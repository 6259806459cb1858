import cmath
import math

import numpy as np
import pytest

from qborel import hypergeom as hg
from qborel import qsummation as qs
from qborel.errors import (
    DegenerateParameterError,
    DirectionError,
    DomainError,
    RangeError,
)
from qborel.operators import newton_polygon, residual, rz_borel_operator
from qborel.qspecial import pochhammer
from qborel.series import SectorPoint

rng = np.random.default_rng(3)


# ---------------------------------------------------------------------------
# series


def test_rphi_empty_truncation_is_one():
    par = hg.PhiParams((0.3,), (), 0.5)
    assert hg.rphi_coefficients(par, 1)[0] == 1.0


def test_rphi_q_binomial_product():
    par = hg.PhiParams((0.3,), (), 0.5)
    lhs = hg.rphi(par, 0.4, 80)
    rhs = pochhammer(0.3 * 0.4, 0.5, None) / pochhammer(0.4, 0.5, None)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_rphi_coefficient_recurrence():
    # u_{n+1} (1 - p^{n+1}) prod(1 - b_i p^n) =
    # u_n (-1)^{1+s-r} q_true^n prod(1 - a_i p^n), q_true = p^(-(r-s-1))
    par = hg.PhiParams((3.0, 5.0, 2.0), (0.5,), 0.7)
    p = par.p
    r, s = par.r, par.s
    u = hg.rphi_coefficients(par, 30)
    qt = p ** (-(r - s - 1))
    for n in range(25):
        lhs = u[n + 1] * (1 - p ** (n + 1)) * np.prod([1 - b * p**n for b in par.lower])
        rhs = u[n] * (-1.0) ** (1 + s - r) * qt**n * np.prod(
            [1 - a * p**n for a in par.upper])
        assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1e-30)


def test_rphi_overflow_raises():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    with pytest.raises(RangeError):
        hg.rphi_coefficients(par, 400)


def test_rF_basics():
    par = hg.FParams((0.5,), ())
    val = hg.rF(par, 0.3)
    assert val == pytest.approx((1 - 0.3) ** (-0.5), rel=1e-10)
    assert hg.rF_coefficients(par, 1)[0] == 1.0


def test_rphi_to_rF_coefficientwise_limit():
    # phi with p^alpha parameters at argument z (1-p)^(1+s-r) converges
    # coefficientwise to F at (-1)^(1+s-r) z; here r=2, s=0
    alphas = (0.4, 1.3)
    fpar = hg.FParams(alphas, ())
    target = hg.rF_coefficients(fpar, 8) * np.array([(-1.0) ** n for n in range(8)])
    prev = None
    for pb in (0.8, 0.9, 0.97, 0.99):
        par = hg.PhiParams(tuple(pb**a for a in alphas), (), pb)
        coeffs = hg.rphi_coefficients(par, 8)
        got = coeffs * np.array([(1 - pb) ** (-n) for n in range(8)])
        err = np.abs(got - target) / np.maximum(np.abs(target), 1.0)
        if prev is not None:
            assert np.all(err <= prev + 1e-15)
        prev = err
    assert np.max(prev) < 0.2


def test_parameter_collision_rejected():
    with pytest.raises(DegenerateParameterError):
        hg.PhiParams((0.3, 0.3), (), 0.5)
    with pytest.raises(DegenerateParameterError):
        hg.FParams((0.5, 1.5), ())


# ---------------------------------------------------------------------------
# operator


def test_rphi_operator_residual():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    op = hg.rphi_operator(par)
    ser = hg.rphi(par, None, 40)
    res = residual(op, ser)
    scale = np.max(np.abs(ser.coefficients))
    assert np.max(np.abs(res.coefficients[: 40 - op.order - 1])) < 1e-12 * scale


def test_rphi_operator_polygon_slopes():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    polygon = newton_polygon(hg.rphi_operator(par))
    nonneg = [s for s, _ in polygon.slopes if s >= 0]
    from fractions import Fraction

    assert nonneg == [Fraction(0), Fraction(1)]


def test_rphi_operator_small_case_expansion():
    # r=2, s=0: (sigma - 1) + (-1)^(s-r) qb z (sigma - a1)(sigma - a2)
    par = hg.PhiParams((2.0, 7.0), (), 1 / 1.5)
    qb = 1.5
    op = hg.rphi_operator(par)
    # expanded by hand: z-part qb*(X - a1)(X - a2) = qb(X^2 -(a1+a2)X + a1 a2)
    b0, b1, b2 = op.coefficients
    assert b0.coeffs[0] == pytest.approx(-1.0)
    assert b0.coeffs[1] == pytest.approx(qb * 14.0)
    assert b1.coeffs[0] == pytest.approx(1.0)
    assert b1.coeffs[1] == pytest.approx(-qb * 9.0)
    assert b2.coeffs[1] == pytest.approx(qb)


# ---------------------------------------------------------------------------
# connection formula


def test_connection_infinity_agreement():
    par = hg.PhiParams((0.2, 0.7), (0.1,), 0.4)
    z = 0.5
    lhs = hg.rphi(par, z, 400)
    rhs = hg.connection_infinity(par, z)
    assert abs(lhs - rhs) < 1e-8 * abs(lhs)


def test_connection_infinity_permutation_invariance():
    a = hg.connection_infinity(hg.PhiParams((0.2, 0.7), (0.1,), 0.4), 0.5)
    b = hg.connection_infinity(hg.PhiParams((0.7, 0.2), (0.1,), 0.4), 0.5)
    assert abs(a - b) < 1e-10 * abs(a)


def test_connection_infinity_domain_guard():
    par = hg.PhiParams((0.2, 0.7), (0.5,), 0.4)
    # common domain empty at z = 0.3 (inverted argument modulus ~4.76)
    with pytest.raises(DomainError):
        hg.connection_infinity(par, 0.3)


# ---------------------------------------------------------------------------
# closed-form q-sum


def _pipeline_value(par, d, z):
    qb = par.qb
    ser = hg.rphi(par, None, 80)
    f = qs.rz_borel(ser, qb)
    handle = qs.q_continuation(f, rz_borel_operator(hg.rphi_operator(par)), d)
    return qs.theta_q_laplace(handle, d, qb, z)


def test_qsum_closed_form_vs_pipeline():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    z = SectorPoint.from_complex(0.15)
    cf = hg.qsum_closed_form(par, 0.0, z)
    pipe = _pipeline_value(par, 0.0, z)
    assert abs(cf - pipe) < 1e-6 * abs(pipe)


def test_qsum_closed_form_forbidden_direction():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    with pytest.raises(DirectionError):
        hg.qsum_closed_form(par, math.pi, SectorPoint.from_complex(0.15))


def test_qsum_closed_form_sigma_compatibility():
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    qb = par.qb
    op = hg.rphi_operator(par)
    z = SectorPoint.from_complex(0.15)
    zc = z.to_complex()
    total = 0.0
    scale = 0.0
    for j, b in enumerate(op.coefficients):
        zj = SectorPoint(z.log_modulus + j * math.log(qb), z.argument)
        t = b(zc) * hg.qsum_closed_form(par, 0.0, zj)
        total += t
        scale = max(scale, abs(t))
    assert abs(total) / scale < 1e-7


# ---------------------------------------------------------------------------
# classical limit


def test_classical_limit_rhs_vs_multisum():
    from qborel import classical as cl
    from qborel.operators import LinearOperator
    from qborel.series import Polynomial

    a1, a2 = 0.3, 0.9
    op = LinearOperator("differential", "delta",
                        (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                         Polynomial([0, 1.0])))
    fp = hg.FParams((a1, a2), ())
    S = cl.multisum(None, op, 0.0)
    val = S(SectorPoint.from_complex(2.0))
    target = hg.classical_limit_rhs(fp, 0.0, 2.0)
    assert abs(val - target) < 1e-5 * abs(target)


def test_classical_limit_gamma_pole():
    with pytest.raises(DegenerateParameterError):
        hg.FParams((0.3, 1.3), ())  # alpha_1 - alpha_2 integral


def test_theorem_limit_grid():
    alphas = (0.3, 0.9)
    fp = hg.FParams(alphas, ())
    target = hg.classical_limit_rhs(fp, 0.0, 2.0)
    errs = []
    for pb in (0.7, 0.8, 0.9, 0.95, 0.99):
        par = hg.PhiParams(tuple(pb**a for a in alphas), (), pb)
        x = 2.0 * (1 - pb) ** (-1)
        v = hg.qsum_closed_form(par, 0.0, SectorPoint.from_complex(x))
        errs.append(abs(v - target))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 5e-2
