import cmath
import math

import numpy as np
import pytest

from qborel.errors import (
    ArgumentError,
    DomainError,
    PoleError,
    RangeError,
    UnsupportedError,
)
from qborel import qspecial as qsp

rng = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# theta


def test_theta_functional_equation():
    q, z = 2.0, 0.7 + 0.2j
    lhs = qsp.theta(q * z, q)
    rhs = z * qsp.theta(z, q)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_theta_zero_on_spiral():
    q = 2.0
    scale = abs(qsp.theta(q**3, q))
    assert abs(qsp.theta(-(q**3), q)) < 1e-10 * scale


def test_theta_series_vs_product():
    q = 1.5
    z = cmath.exp(1j * math.pi / 3)
    a = qsp.theta(z, q)
    b = qsp._theta_product(z, q)
    assert abs(a - b) < 1e-10 * abs(a)


def test_theta_inversion():
    q, z = 1.7, 0.6 + 0.4j
    assert abs(qsp.theta(1.0 / z, q) - z * qsp.theta(z, q)) < 1e-10 * abs(
        qsp.theta(z, q))


def test_theta_power_shifts():
    q, z = 1.6, 0.8 + 0.1j
    base = qsp.theta(z, q)
    for k in range(-3, 4):
        lhs = qsp.theta(q**k * z, q)
        rhs = q ** (k * (k - 1) / 2.0) * z**k * base
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_theta_domain_and_range_guards():
    with pytest.raises(DomainError):
        qsp.theta(0.0, 2.0)
    with pytest.raises(RangeError):
        qsp.theta(1.0, 1.0005)


def test_theta_log_matches_theta():
    q, z = 1.4, 0.9 + 0.3j
    assert cmath.exp(qsp.theta_log(z, q)) == pytest.approx(qsp.theta(z, q), rel=1e-11)


# ---------------------------------------------------------------------------
# q-exponential


def test_eq_delta_q_equation():
    q, z = 1.3, 0.4
    lhs = (qsp.eq_exp(q * z, q) - qsp.eq_exp(z, q)) / (q - 1.0)
    assert abs(lhs - z * qsp.eq_exp(z, q)) < 1e-9


def test_eq_reciprocal_identity():
    q = 1.4
    z = 0.9 + 0.3j
    val = qsp.eq_exp(z, q) * qsp.eq_exp(-z, 1.0 / q)
    assert abs(val - 1.0) < 1e-10


def test_eq_exp_bounded_by_exp():
    for _ in range(100):
        a = complex(rng.normal(), rng.normal())
        z = complex(rng.normal(), rng.normal())
        k = int(rng.integers(1, 4))
        q = 1.0 + 2.5 * rng.random() + 1e-3
        w = a * z**k
        assert abs(qsp.eq_exp(w, q)) <= math.exp(abs(w)) * (1 + 1e-12)


def test_eq_square_base_inequality():
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        q = 1.0 + 2.0 * rng.random() + 1e-3
        lhs = qsp.eq_exp(abs(z), q * q).real ** 2
        rhs = qsp.eq_exp((1.0 + q) * abs(z), q).real
        assert lhs <= rhs * (1 + 1e-12)


def test_eq_series_vs_product():
    q, z = 1.7, 1.3 - 0.8j
    a = qsp.eq_exp(z, q)
    b = qsp._eq_product(z, q)
    assert abs(a - b) < 1e-10 * abs(a)


def test_eq_confluence_to_exp():
    zs = [0.3, 0.7 + 0.2j, -0.5 + 0.4j]
    err_cl = max(abs(qsp.eq_exp(z, 1.01) - cmath.exp(z)) for z in zs)
    err_far = max(abs(qsp.eq_exp(z, 1.1) - cmath.exp(z)) for z in zs)
    assert err_cl < err_far


# ---------------------------------------------------------------------------
# l_q and characters


def test_lq_shift():
    q, z = 1.2, 0.9
    assert abs(qsp.lq(q * z, q) - qsp.lq(z, q) - 1.0) < 1e-9


def test_lambda_char_shift_and_identity():
    q, z, a = 1.4, 0.9, 2.0 + 1.0j
    ratio = qsp.lambda_char(a, q * z, q) / qsp.lambda_char(a, z, q)
    assert abs(ratio - a) < 1e-9
    assert qsp.lambda_char(1.0, 0.33, 1.5) == pytest.approx(1.0)


def test_lambda_char_pole():
    q, a = 1.5, 2.0
    # Theta(z/a) vanishes at z/a = -q^k
    z = -a * q**2
    with pytest.raises(PoleError):
        qsp.lambda_char(a, z, q)


# ---------------------------------------------------------------------------
# matrix versions


def test_lambda_matrix_scalar_reduction():
    q, z, a = 1.3, 0.8, 2.0
    M = qsp.lambda_matrix(np.array([[a]]), z, q)
    assert M[0, 0] == pytest.approx(qsp.lambda_char(a, z, q), rel=1e-12)


def test_lambda_matrix_shift_identity():
    q, z = 1.3, 0.8
    A = np.diag([2.0, 3.0j])
    L = qsp.lambda_matrix(A, z, q)
    Lq = qsp.lambda_matrix(A, q * z, q)
    assert np.max(np.abs(Lq - A @ L)) < 1e-8 * np.max(np.abs(L))
    assert np.max(np.abs(A @ L - L @ A)) < 1e-8 * np.max(np.abs(L))


def test_lambda_matrix_rejects_defective():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(UnsupportedError):
        qsp.lambda_matrix(shear, 0.8, 1.3)


def test_q_exp_matrix_basics():
    q = 1.5
    assert np.allclose(qsp.q_exp_matrix(np.zeros((2, 2)), q), np.eye(2))
    z = 0.37
    one = qsp.q_exp_matrix(np.array([[z]]), q)
    assert one[0, 0] == pytest.approx(qsp.eq_exp(z, q), rel=1e-14)


def test_q_exp_matrix_term_domination():
    # termwise n! <= [n]_q! makes the series norm-dominated by exp
    q = 1.4
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    val = qsp.q_exp_matrix(A, q)
    assert np.linalg.norm(val) <= math.exp(np.linalg.norm(A)) * (1 + 1e-10) * 2
    assert np.max(np.abs(val @ A - A @ val)) < 1e-10


# ---------------------------------------------------------------------------
# Pochhammer and the section-7 limits


def test_pochhammer_examples():
    assert qsp.pochhammer(0.5, 0.5, 0) == 1.0
    assert qsp.pochhammer(2.0, 0.5, 2) == pytest.approx(0.0)
    inf = qsp.pochhammer(0.3, 0.5, None)
    fin = qsp.pochhammer(0.3, 0.5, 120)
    assert inf == pytest.approx(fin, rel=1e-12)


def test_theta_ratio_power_limit():
    # Theta_q(p^g u)/Theta_q(u) -> u^(-g) as p -> 1, away from the spiral rays
    g = 0.6
    u = 1.4 + 0.3j
    errs = []
    for p in (0.7, 0.8, 0.9, 0.95, 0.99):
        q = 1.0 / p
        ratio = cmath.exp(qsp.theta_log(p**g * u, q) - qsp.theta_log(u, q))
        errs.append(abs(ratio - u ** (-g)))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_pochhammer_gamma_limit():
    g = 0.6
    errs = []
    for p in (0.7, 0.8, 0.9, 0.95, 0.99):
        val = (qsp.pochhammer(p**g, p, None) * (1 - p) ** (g - 1)
               / qsp.pochhammer(p, p, None))
        errs.append(abs(val - 1.0 / math.gamma(g)))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2
