"""Checks against 30-digit mpmath values, which share no code with qborel."""

import math

import pytest

from qborel import classical as cl
from qborel.operators import LinearOperator
from qborel.series import Polynomial, SectorPoint, gamma

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


def _rel(value: complex, ref) -> float:
    return abs(value - complex(ref)) / abs(complex(ref))


@pytest.mark.parametrize("z", [0.1, 0.5, 2.0, 3.7, 10.25, 45.5, -0.5, -2.3,
                               0.5 + 2.0j, 1.5 - 0.75j, -3.2 + 0.4j, 12.0 + 7.0j])
def test_gamma_matches_mpmath(z):
    with mp.workdps(30):
        ref = mp.gamma(mp.mpc(z.real, z.imag) if isinstance(z, complex) else mp.mpf(z))
    assert _rel(gamma(z), ref) < 1e-13


def test_gamma_real_path_is_exact_at_small_integers():
    assert [gamma(n) for n in range(1, 8)] == [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0]


@pytest.mark.parametrize("d", [math.pi - 0.3, math.pi - 0.05, math.pi - 0.01,
                               math.pi + 0.01, math.pi + 0.05, math.pi + 0.3])
def test_euler_sum_near_the_singular_direction(euler_op, d):
    # z delta y + y = z is summed by int_0^{inf e^{id}} e^{-t/z}/(1+t) dt,
    # which is e^{1/z} E1(1/z) with the principal E1 at the projected z:
    # for d < pi, arg(1/z) = -d, and for d > pi the ray e^{id} is the ray
    # e^{i(d - 2 pi)}, arg(1/z) = 2 pi - d; both lie in (-pi, pi)
    z = SectorPoint.from_polar(0.2, d)
    zc = z.to_complex()
    with mp.workdps(30):
        w = 1 / mp.mpc(zc.real, zc.imag)
        ref = mp.exp(w) * mp.e1(w)
    S = cl.summation_chain(euler_op).sum(d)
    assert _rel(S(z), ref) < 1e-10


@pytest.fixture(scope="module")
def two_f_zero_sum():
    # acceptance criterion 7: z delta^2 y + (1 + (a1 + a2) z) delta y + a1 a2 z y = 0
    a1, a2 = 0.3, 0.9
    op = LinearOperator("differential", "delta",
                        (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                         Polynomial([0, 1.0])))
    return a1, a2, cl.multisum(None, op, 0.0)


@pytest.mark.parametrize("z", [2.0, 0.5, 1 + 0.5j, 3 - 1j])
def test_two_f_zero_sum_matches_hyperu(two_f_zero_sum, z):
    # the Borel sum of 2F0(a1, a2;; -z) is x^a1 U(a1, 1 + a1 - a2, x), x = 1/z
    a1, a2, S = two_f_zero_sum
    with mp.workdps(30):
        x = 1 / mp.mpc(z.real, z.imag)
        ref = x**a1 * mp.hyperu(a1, 1 + a1 - a2, x)
    assert _rel(S(SectorPoint.from_complex(z)), ref) < 1e-12


@pytest.mark.parametrize("arg", [0.52, -0.52])
def test_euler_sum_at_the_sector_edge(euler_op, arg):
    # k_r = 3, so the d = 0 sum is defined for |arg z| < pi/6 = 0.5236: the
    # final-level Laplace kernel oscillates some hundred times before it decays
    z = SectorPoint.from_polar(0.2, arg)
    zc = z.to_complex()
    with mp.workdps(30):
        w = 1 / mp.mpc(zc.real, zc.imag)
        ref = mp.exp(w) * mp.e1(w)
    S = cl.summation_chain(euler_op).sum(0.0)
    assert _rel(S(z), ref) < 1e-11
