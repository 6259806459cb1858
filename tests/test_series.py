import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qborel.errors import ArgumentError, DomainError, RangeError
from qborel.series import (
    Polynomial,
    PowerSeries,
    SectorPoint,
    gamma,
    q_bracket,
    q_factorial,
    ramify,
    section,
)

rng = np.random.default_rng(20260808)


# ---------------------------------------------------------------------------
# q-integers


def test_q_bracket_examples():
    assert q_bracket(0, 2.0) == 0.0
    assert q_bracket(1, 5.0) == 1.0
    assert q_bracket(3, 2.0) == pytest.approx(7.0, rel=1e-14)


def test_q_bracket_domain():
    with pytest.raises(DomainError):
        q_bracket(3, 1.0)
    with pytest.raises(DomainError):
        q_bracket(3, 0.5)


def test_q_factorial_examples():
    assert q_factorial(0, 3.0) == 1.0
    assert q_factorial(3, 2.0) == pytest.approx(21.0, rel=1e-14)
    assert q_factorial(2, 1.5) == pytest.approx(2.5, rel=1e-14)


def test_q_factorial_overflow_names_n():
    with pytest.raises(RangeError) as err:
        q_factorial(4000, 3.0)
    assert "4000" in str(err.value)


def test_q_factorial_bracket_ratio():
    for _ in range(20):
        q = 1.0 + 2.0 * rng.random() + 1e-6
        n = int(rng.integers(1, 41))
        ratio = q_factorial(n, q) / q_factorial(n - 1, q)
        assert ratio == pytest.approx(q_bracket(n, q), rel=1e-12)


def test_classical_factorial_minorizes_q_factorial():
    for _ in range(15):
        q = 1.0 + 2.0 * rng.random() + 1e-6
        n = int(rng.integers(0, 31))
        assert math.factorial(n) <= q_factorial(n, q) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# ramification


def test_ramify_examples():
    s = PowerSeries([1, 1])  # 1 + z
    r2 = ramify(s, 2)
    assert r2.coeff_at(0) == 1 and r2.coeff_at(2) == 1 and r2.coeff_at(1) == 0

    s2 = PowerSeries([0, 0, 1])  # z^2
    half = ramify(s2, "1/2")
    assert half.coeff_at(1) == 1

    s3 = PowerSeries([2, 3, 4])
    assert ramify(s3, 1) is s3


def test_ramify_composes():
    from fractions import Fraction

    for _ in range(10):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = PowerSeries(coeffs)
        b = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        c = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        lhs = ramify(ramify(s, b), c)
        rhs = ramify(s, b * c)
        assert lhs.almost_equal(rhs)


# ---------------------------------------------------------------------------
# sections


def test_section_examples():
    s = PowerSeries([1, 1, 1, 1])  # 1 + z + z^2 + z^3
    s0 = section(s, 2, 0)
    assert s0.coeff_at(0) == 1 and s0.coeff_at(2) == 1 and s0.coeff_at(1) == 0
    s1 = section(s, 2, 1)
    assert s1.coeff_at(0) == 1 and s1.coeff_at(2) == 1

    s5 = PowerSeries(rng.normal(size=9))
    assert section(s5, 1, 0).almost_equal(s5)


def test_section_out_of_range():
    with pytest.raises(ArgumentError):
        section(PowerSeries([1, 2, 3]), 2, 2)


def test_section_reconstruction():
    for beta in (1, 2, 3, 5):
        coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
        s = PowerSeries(coeffs)
        total = np.zeros(17, dtype=complex)
        for l in range(beta):
            sec = section(s, beta, l)
            for n in range(len(sec.coefficients)):
                if n + l < 17:
                    total[n + l] += sec.coefficients[n]
        assert np.allclose(total, coeffs, atol=1e-15)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_small_integers():
    assert gamma(1) == pytest.approx(1.0, rel=1e-13)
    assert gamma(5) == pytest.approx(24.0, rel=1e-13)


def test_gamma_reflection_at_half():
    z = 0.5 + 0.0j
    val = gamma(z) * gamma(1 - z)
    assert val == pytest.approx(math.pi / math.sin(math.pi * 0.5), rel=1e-12)


def test_gamma_recurrence_random():
    for _ in range(40):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.1 and z.real <= 0.5:
            continue
        assert gamma(z + 1) == pytest.approx(z * gamma(z), rel=1e-11)


def test_gamma_pole_names_integer():
    with pytest.raises(DomainError) as err:
        gamma(-3)
    assert "-3" in str(err.value)


# ---------------------------------------------------------------------------
# sector points and polynomials


def test_sector_point_unreduced_argument():
    z = SectorPoint.from_complex(-0.2, argument=math.pi)
    assert z.argument == pytest.approx(math.pi)
    z3 = z.power(3)
    assert z3.argument == pytest.approx(3 * math.pi)
    assert z3.to_complex() == pytest.approx((-0.2) ** 3)


def test_sector_point_argument_mismatch():
    with pytest.raises(ArgumentError):
        SectorPoint.from_complex(1.0, argument=1.0)


def test_polynomial_trims_and_evaluates():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p(2.0) == 5.0
    assert Polynomial([]).is_zero


def test_power_series_arithmetic_min_truncation():
    a = PowerSeries([1, 1, 1, 1])
    b = PowerSeries([1, -1])
    prod = a * b
    assert prod.truncation_order == 2
    assert prod.coeff_at(0) == 1 and prod.coeff_at(1) == 0


# a 240-term series of radius 1, as long as the Borel transforms the
# continuation handles sum
_LONG = PowerSeries(np.exp(2j * np.pi * np.random.default_rng(5).random(240))
                    / np.arange(1.0, 241.0))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


@given(st.data())
def test_eval_many_values_do_not_depend_on_the_order_of_the_points(data):
    # points from 1e-30 to 0.8 of the radius, each with its conjugate and its
    # negative (equal moduli): any permutation permutes the values bit for bit
    polar = data.draw(st.lists(st.tuples(st.floats(-100.0, -0.33),
                                         st.floats(-math.pi, math.pi)),
                               min_size=1, max_size=30))
    t = np.array([2.0**e * cmath.exp(1j * a) for e, a in polar])
    t = np.concatenate([t, t.conj(), -t])
    perm = np.array(data.draw(st.permutations(range(len(t)))))
    assert np.array_equal(_bits(_LONG.eval_many(t[perm])), _bits(_LONG.eval_many(t)[perm]))


@given(st.data())
def test_eval_many_values_depend_on_their_point_alone(data):
    # an octave's last kept term never falls as the octave rises, so every
    # point takes the degree of its own octave: any subset of the points
    # evaluates bit for bit as in the whole set, for _LONG and for series
    # whose coefficient moduli jump between 2^-60 and 2^60 or vanish
    logs = data.draw(st.lists(st.floats(-60.0, 60.0) | st.just(-math.inf),
                              min_size=1, max_size=80))
    jumpy = PowerSeries(np.exp2(logs) * np.exp(1j * np.arange(len(logs))))
    series = data.draw(st.sampled_from([_LONG, jumpy]))
    polar = data.draw(st.lists(st.tuples(st.floats(-100.0, 0.0), st.floats(-math.pi, math.pi)),
                               min_size=1, max_size=40))
    t = np.array([2.0**e * cmath.exp(1j * a) for e, a in polar])
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))))
    assert np.array_equal(_bits(series.eval_many(t[keep])), _bits(series.eval_many(t)[keep]))


def test_eval_many_keeps_the_terms_above_2_to_the_minus_60_of_the_scalar_sum():
    # eval is a full Horner sum; eval_many cuts each octave of |t| below
    # 2^-60 of its largest term bound, which moves real and imaginary parts
    # by at most 2 ulp of the largest term
    gen = np.random.default_rng(9)
    t = 0.8 ** gen.uniform(1.0, 300.0, 500) * np.exp(2j * np.pi * gen.random(500))
    full = np.array([_LONG.eval(x) for x in t])
    largest = np.max(np.abs(_LONG.coefficients) * np.abs(t)[:, None] ** np.arange(240), axis=1)
    diff = _LONG.eval_many(t) - full
    assert np.all(np.abs(diff.real) <= 2 * np.spacing(largest))
    assert np.all(np.abs(diff.imag) <= 2 * np.spacing(largest))
    assert len(_LONG.eval_many(np.zeros(0))) == 0


def test_scalar_eval_matches_a_40_digit_sum():
    mpmath = pytest.importorskip("mpmath")
    # the full Horner sum at 0.8 of the radius, where the terms fall slowest
    with mpmath.mp.workdps(40):
        t = mpmath.mpc(0.8 * math.cos(0.3), 0.8 * math.sin(0.3))
        ref = complex(mpmath.polyval([mpmath.mpc(c) for c in _LONG.coefficients[::-1]], t))
    got = _LONG.eval(complex(t))
    scale = float(np.sum(np.abs(_LONG.coefficients) * 0.8 ** np.arange(240)))
    assert abs(got - ref) <= 1e-15 * scale
