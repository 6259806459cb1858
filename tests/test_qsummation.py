import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from qborel import classical as cl
from qborel import qsummation as qs
from qborel.errors import (
    ArgumentError,
    BracketingError,
    GrowthError,
    PoleError,
    QBorelError,
    RangeError,
    SingularDirectionError,
    SpiralCollisionError,
    UnsupportedError,
)
from qborel.operators import (
    LinearOperator,
    borel_plane_operator,
    residual,
    rz_borel_operator,
    solve_series,
)
from qborel.series import (
    Polynomial,
    PowerSeries,
    SectorPoint,
    q_bracket,
    q_factorial,
    ramify,
)

from conftest import make_q_euler, q_euler_borel

rng = np.random.default_rng(5)


# ---------------------------------------------------------------------------
# q-Borel transforms


def test_q_borel_order_one(q_euler_op):
    q = q_euler_op.q
    s = solve_series(q_euler_op, 10)
    g = qs.q_borel(s, 1, q)
    assert g.coeff_at(1) == pytest.approx(1.0)
    for n in range(8):
        assert g.coeff_at(n + 1) == pytest.approx(
            (-1.0) ** n / q_bracket(n + 1, q), rel=1e-12)


def test_q_borel_conjugation_uses_rescaled_base():
    # B_{q,k} = rho_k . B_{q^k,1} . rho_{1/k}: the level-k plane carries q^k
    q, k = 1.3, 2
    coeffs = np.zeros(9)
    coeffs[::2] = rng.normal(size=5)  # support in z^(2N)
    s = PowerSeries(coeffs)
    lhs = qs.q_borel(s, k, q)
    rhs = ramify(qs.q_borel(ramify(s, "1/2"), 1, q**k), 2)
    assert lhs.almost_equal(rhs, tol=1e-12)


def test_q_borel_fractional_support_unsupported():
    with pytest.raises(UnsupportedError):
        qs.q_borel(PowerSeries([0.0, 1.0]), 2, 1.3)


def test_rz_borel_examples():
    q = 2.0
    s = PowerSeries([1.0, 1.0, 1.0, 1.0])
    out = qs.rz_borel(s, q)
    assert out.coeff_at(0) == 1.0 and out.coeff_at(1) == 1.0
    assert out.coeff_at(2) == pytest.approx(0.5)
    assert out.coeff_at(3) == pytest.approx(1.0 / 8.0)


# ---------------------------------------------------------------------------
# Jackson integral


def test_jackson_vs_classical_integral():
    # the Riemann-sum offset is (q-1)/log(q) - 1 ~ (q-1)/2 to first order:
    # ~2.4e-2 at q = 1.05, under 1e-3 only once q - 1 < 2e-3
    f = lambda z: cmath.exp(-(cmath.log(z)) ** 2)
    want, _ = quad(lambda t: math.exp(-math.log(t) ** 2), 0, 60,
                   epsabs=1e-12, limit=300)
    got_105 = qs.jackson_integral(f, 0.0, 1.05)
    offset = 0.05 / math.log(1.05) - 1.0
    assert abs(got_105 - want) / want == pytest.approx(offset, rel=1e-2)
    got_close = qs.jackson_integral(f, 0.0, 1.0015)
    assert abs(got_close - want) / want < 1e-3


def test_jackson_definitional_match():
    # the q-Laplace of the constant-1 handle at z = 1 is by definition the
    # Jackson integral of 1/(z e_q(q zeta / z))
    q = 1.2
    from qborel.qspecial import eq_exp

    z = 1.0
    f = lambda zeta: 1.0 / (z * eq_exp(q * zeta / z, q))
    got = qs.jackson_integral(f, 0.0, q)
    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    want = qs.discrete_q_laplace(one, 1, 0.0, q, SectorPoint.from_complex(z))
    assert abs(got - want) < 1e-12 * abs(want)


def test_jackson_divergent_input():
    with pytest.raises(RangeError):
        qs.jackson_integral(lambda z: 1.0, 0.0, 1.3)


# ---------------------------------------------------------------------------
# q-continuation


def test_q_continuation_two_path_consistency():
    q = 1.1
    op = make_q_euler(q)
    s = solve_series(op, 90)
    g = qs.q_borel(s, 1, q)
    bop = borel_plane_operator(op, 1)
    h = qs.q_continuation(g, bop, 0.0)
    # independent path: sigma_q functional equation
    # (sigma - 1) g = (q-1) zeta/(1+zeta) derived from the q-Euler relation
    zeta = 5.0
    direct = h.eval_at(zeta)
    stepped = h.eval_at(zeta / q) + (q - 1.0) * (zeta / q) / (1.0 + zeta / q)
    assert abs(direct - stepped) < 1e-9 * abs(direct)


def test_q_continuation_polynomial_exact():
    # p(qz) - p(z) = (q-1)(-2 z) + (q^2-1) z^2 / 2: the sigma_q equation
    # continues the polynomial p beyond its anchor disk by exact steps
    q = 1.3
    poly = PowerSeries([1.0, -2.0, 0.5])
    op = LinearOperator("q_difference", "sigma_q", (Polynomial([-1.0]), Polynomial([1.0])),
                        q, PowerSeries([0.0, -2.0 * (q - 1.0), 0.5 * (q * q - 1.0)]))
    h = qs.QContinuation(poly, op, 0.0)
    assert h._anchor_disk < 0.05
    assert h.eval_at(0.05) == pytest.approx(poly.eval(0.05), rel=1e-12)


def test_q_continuation_spiral_collision():
    q = 1.1
    op = make_q_euler(q)
    s = solve_series(op, 90)
    g = qs.q_borel(s, 1, q)
    bop = borel_plane_operator(op, 1)
    with pytest.raises(SpiralCollisionError):
        qs.q_continuation(g, bop, math.pi)


def test_q_continuation_grid_matches_closed_form():
    # the q-Borel transform of the q-Euler solution in closed form; the grid
    # starts inside the disk of convergence (radius q) and leaves it
    q = 1.1
    op = make_q_euler(q)
    g = qs.q_borel(solve_series(op, 90), 1, q)
    h = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    grid = h.grid_values(1.0, -5, 40)
    want = q_euler_borel(q ** np.arange(-5.0, 41.0), q)
    assert np.max(np.abs(grid - want) / np.abs(want)) <= 1e-14
    for t in (-5, 7, 40):
        assert abs(h.eval_at(q**t) - want[t + 5]) <= 1e-14 * abs(want[t + 5])


def test_in_disk_seeding_keeps_the_terms_above_2_to_the_minus_60(q_euler_op):
    # per octave of |x| the seeding eval_many stops at the last term whose
    # bound reaches 2^-60 of the octave's largest: within 2 ulp of that term
    # of the full polyval, on the continuation of a q = 1.05 section (207
    # terms, nodes from 1e-40 to the anchor disk)
    h = qs.q_multisum(None, q_euler_op, 0.0, mode="discrete").sections[0].cont
    q, c = h.q, h.series.coefficients
    base = h._anchor_disk / q**1000 * cmath.exp(0.3j)
    x = base * np.array([q ** float(t) for t in range(991)])
    assert abs(x[0]) < 1e-40
    got = h.series.eval_many(x)
    full = np.polynomial.polynomial.polyval(x, c)
    largest = np.max(np.abs(c) * np.abs(x)[:, None] ** np.arange(len(c)), axis=1)
    assert np.all(np.abs(got - full) <= 2 * np.spacing(largest))
    assert np.array_equal(h.grid_values(base, 0, 990), got)


def test_q_continuation_walk_matches_series_order_two():
    # grid points between the anchor disk and 0.8 radius are walked by the
    # order-2 equation, yet still inside the series' disk of convergence
    from qborel import hypergeom as hg

    qb = 1.2
    par = hg.PhiParams((3.0, 5.0), (), 1.0 / qb)
    f = qs.rz_borel(hg.rphi(par, None, 80), qb)
    h = qs.q_continuation(f, rz_borel_operator(hg.rphi_operator(par)), 0.0)
    assert h.op.order == 2
    ts = [t for t in range(-10, 0) if h._anchor_disk < qb**t < 0.8 * h.radius]
    assert len(ts) >= 3
    walked = h.grid_values(1.0, ts[0], ts[-1])
    direct = np.array([h.series.eval(qb**t) for t in ts])
    assert np.max(np.abs(walked - direct) / np.abs(direct)) < 1e-11


def test_q_continuation_eval_at_on_pole_spiral_raises():
    q = 1.1
    op = make_q_euler(q)
    g = qs.q_borel(solve_series(op, 90), 1, q)
    h = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    spiral = h.pole_spirals[0]
    with pytest.raises(SpiralCollisionError, match="leading coefficient near"):
        h.eval_at(spiral.base * q**3)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_q_sum_with_a_large_anchor_radius_matches_the_closed_form(mode):
    # at q = 1.1 the Borel transform's radius is so large that the anchor's
    # tail check, top ** (N - 1), overflowed a float and the build raised
    from qborel import hypergeom as hg

    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.1)
    S = qs.q_multisum(None, hg.rphi_operator(par), 0.0, mode=mode)
    for z in (0.15, 0.3):
        ref = hg.qsum_closed_form(par, 0.0, SectorPoint.from_complex(z))
        assert abs(S(SectorPoint.from_complex(z)) - ref) <= 2e-8 * abs(ref)


# ---------------------------------------------------------------------------
# the three q-Laplace kernels


def test_discrete_q_laplace_classical_limit():
    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    val = qs.discrete_q_laplace(one, 1, 0.0, 1.05, SectorPoint.from_complex(0.2))
    assert abs(val - 1.0) < 2e-2


def test_discrete_q_laplace_delta_identity():
    # z L(dq g) = p L(zeta g) - p z L(g) on a polynomial
    q = 1.4
    p = 1.0 / q
    coeffs = rng.normal(size=6)
    g = PowerSeries(coeffs)
    dg = PowerSeries([(q**n - 1) / (q - 1) * c for n, c in enumerate(coeffs)])
    zg = PowerSeries(np.concatenate([[0.0], coeffs]))
    hz = lambda s: cl.FunctionHandle(lambda zeta: s.eval(zeta), 0.0)
    z = SectorPoint.from_complex(0.3)
    zc = z.to_complex()
    lhs = zc * qs.discrete_q_laplace(hz(dg), 1, 0.0, q, z)
    rhs = p * qs.discrete_q_laplace(hz(zg), 1, 0.0, q, z) - p * zc * qs.discrete_q_laplace(
        hz(g), 1, 0.0, q, z)
    assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_discrete_q_laplace_pole_spiral():
    q = 1.3
    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    z = SectorPoint.from_complex(-(q - 1.0), argument=math.pi)
    with pytest.raises(PoleError):
        qs.discrete_q_laplace(one, 1, 0.0, q, z)
    # every transform checks its spiral: |z| = 0.3 and 0.39 at arg pi are
    # nodes of (q-1) q^Z e^{i pi}, where an unchecked continuous sum reads
    # -126.0+53.1i
    transforms = (lambda z: qs.discrete_q_laplace(one, 1, 0.0, q, z),
                  lambda z: qs.continuous_q_laplace(one, 1, 0.0, q, z),
                  lambda z: qs.theta_q_laplace(one, 0.0, q, z))
    for transform in transforms:
        for r in (0.3, 0.39):
            with pytest.raises(PoleError):
                transform(SectorPoint.from_polar(r, math.pi))


def test_pole_bookkeeping_random_points():
    q = 1.3
    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    spiral_base = (q - 1.0) * cmath.exp(1j * math.pi)
    hits = 0
    for _ in range(20):
        # off-spiral points: random modulus/argument away from the spiral
        m = 0.05 + 0.4 * rng.random()
        a = rng.uniform(-2.0, 2.0)
        z = SectorPoint.from_polar(m, a)
        if qs.PoleSpiral(spiral_base, q).distance_rel(z.to_complex()) < 1e-3:
            continue
        qs.discrete_q_laplace(one, 1, 0.0, q, z)  # must not raise
        hits += 1
    assert hits >= 15
    for t in range(5):
        z = SectorPoint.from_complex(spiral_base * q**t, argument=math.pi)
        with pytest.raises(PoleError):
            qs.discrete_q_laplace(one, 1, 0.0, q, z)


def test_e_q_kernel_windows_refuse_a_growth_the_theta_kernel_sums():
    # e^(5 zeta) at z = 0.1: the e_Q kernel falls off geometrically and its
    # window's upper edge term is not negligible, so both its sums raise;
    # the theta kernel, 1/Theta_q, falls off like a Gaussian in log zeta
    grower = cl.FunctionHandle(lambda zeta: cmath.exp(5.0 * zeta), 0.0)
    z = SectorPoint.from_complex(0.1)
    for transform in (qs.discrete_q_laplace, qs.continuous_q_laplace):
        with pytest.raises(RangeError, match="window too narrow"):
            transform(grower, 1, 0.0, 1.05, z)
    assert qs.theta_q_laplace(grower, 0.0, 1.05, z) == pytest.approx(1.659, rel=1e-3)


def test_theta_q_laplace_matches_discrete_on_q_euler():
    q = 1.05
    op = make_q_euler(q)
    s = solve_series(op, 100)
    g = qs.q_borel(s, 1, q)
    h1 = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    f = qs.rz_borel(s, q)
    h2 = qs.q_continuation(f, rz_borel_operator(op), 0.0)
    for zv in (0.1, 0.15, 0.2):
        z = SectorPoint.from_complex(zv)
        a = qs.discrete_q_laplace(h1, 1, 0.0, q, z)
        b = qs.theta_q_laplace(h2, 0.0, q, z)
        assert abs(a - b) < 1e-8 * abs(a)


def test_theta_q_laplace_zero_and_shift():
    q = 1.3
    zero = cl.FunctionHandle(lambda _: 0.0 + 0j, 0.0)
    assert qs.theta_q_laplace(zero, 0.0, q, SectorPoint.from_complex(0.3)) == 0.0
    # sigma-equivariance: L(f)(qz) relates to L(sigma f)(z) through the node
    # shift n -> n+1; for f(zeta) = zeta this gives L(f)(qz) = q L(f)(z) * ...
    f = cl.FunctionHandle(lambda zeta: zeta, 0.0)
    z = SectorPoint.from_complex(0.4)
    zq = SectorPoint(z.log_modulus + math.log(q), z.argument)
    lhs = qs.theta_q_laplace(f, 0.0, q, zq)
    # sigma_q L = (value at qz); for the kernel, shifting z -> qz re-indexes
    # the sum, multiplying the f(zeta)=zeta moment by q exactly
    rhs = q * qs.theta_q_laplace(f, 0.0, q, z)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["discrete", "continuous"]), st.integers(1, 3),
       st.floats(1.05, 1.5), st.floats(0.05, 1.0), st.floats(-0.5, 0.5))
def test_order_k_q_laplace_is_the_conjugate_order_one_transform(form, k, q, r, arg):
    # L_{q,k}(f)(z) = L_{q^k,1}(rho_{1/k} f)(z^k): f(zeta) = zeta^k is
    # xi -> xi in the plane xi = zeta^k; |arg z^k| <= 1.5 keeps z^k off the
    # pole spiral on the negative axis
    X = {"discrete": qs.discrete_q_laplace, "continuous": qs.continuous_q_laplace}[form]
    power = cl.FunctionHandle(lambda zeta: zeta**k, 0.0)
    identity = cl.FunctionHandle(lambda xi: xi, 0.0)
    lhs = X(power, k, 0.0, q, SectorPoint.from_polar(r, arg))
    rhs = X(identity, 1, 0.0, q**k, SectorPoint.from_polar(r**k, k * arg))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_continuous_q_laplace_identity_and_limit():
    q = 1.4
    p = 1.0 / q
    coeffs = rng.normal(size=5)
    g = PowerSeries(coeffs)
    dg = PowerSeries([(q**n - 1) / (q - 1) * c for n, c in enumerate(coeffs)])
    zg = PowerSeries(np.concatenate([[0.0], coeffs]))
    hz = lambda s: cl.FunctionHandle(lambda zeta: s.eval(zeta), 0.0)
    z = SectorPoint.from_complex(0.3)
    zc = z.to_complex()
    lhs = zc * qs.continuous_q_laplace(hz(dg), 1, 0.0, q, z)
    rhs = p * qs.continuous_q_laplace(hz(zg), 1, 0.0, q, z) \
        - p * zc * qs.continuous_q_laplace(hz(g), 1, 0.0, q, z)
    assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)

    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    val = qs.continuous_q_laplace(one, 1, 0.0, 1.02, SectorPoint.from_complex(0.2))
    assert abs(val - 1.0) < 1e-2


def test_continuous_vs_discrete_cross_method():
    q = 1.05
    op = make_q_euler(q)
    s = solve_series(op, 100)
    g = qs.q_borel(s, 1, q)
    h = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    z = SectorPoint.from_complex(0.1)
    a = qs.discrete_q_laplace(h, 1, 0.0, q, z)
    b = qs.continuous_q_laplace(h, 1, 0.0, q, z)
    assert abs(a - b) < 5e-3 * abs(a)


def test_q_growth_gate_does_not_depend_on_earlier_orders():
    # an order-1 transform on a handle must not change a later order-2
    # transform on the same handle
    q = 1.1
    op = make_q_euler(q)

    def handle():
        g = qs.q_borel(solve_series(op, 90), 1, q)
        return qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)

    fresh = qs.discrete_q_laplace(handle(), 2, 0.0, q, 0.91)
    assert fresh == pytest.approx(0.564484966016774, rel=1e-12)
    h = handle()
    qs.discrete_q_laplace(h, 1, 0.0, q, 0.5)
    assert qs.discrete_q_laplace(h, 2, 0.0, q, 0.91) == fresh


def test_discrete_q_laplace_far_out_matches_the_theta_sum():
    # the window sum's edge check is the only growth guard: at q = 1.05 the
    # Jackson sum of the q-Euler Borel continuation at z = 1, 2 and 5, where
    # L |z| of a fitted growth bound (L 1.58) exceeds q, agrees with the
    # theta-kernel sum
    q = 1.05
    op = make_q_euler(q)
    s = solve_series(op, 100)
    h1 = qs.q_continuation(qs.q_borel(s, 1, q), borel_plane_operator(op, 1), 0.0)
    h2 = qs.q_continuation(qs.rz_borel(s, q), rz_borel_operator(op), 0.0)
    for z in (1.0, 2.0, 5.0):
        a = qs.discrete_q_laplace(h1, 1, 0.0, q, z)
        b = qs.theta_q_laplace(h2, 0.0, q, z)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_theta_q_sum_reads_the_section_grid(q_euler_op):
    # the theta q-sum is theta_q_laplace of its section's continuation, bit
    # for bit, whatever order the points are asked in
    q, d = q_euler_op.q, 0.3
    sec = qs.q_summation_chain(q_euler_op, "theta").sections[0]
    h = qs.q_continuation(sec.g1, sec.op, d)
    S = qs.q_multisum(None, q_euler_op, d, mode="theta")
    zs = [SectorPoint.from_polar(r, d + a) for r, a in
          ((0.05, 0.0), (0.3, 0.1), (0.1, -0.2), (0.2, 0.05), (0.4, 0.0))]
    for i in rng.permutation(len(zs)):
        assert S(zs[i]) == qs.theta_q_laplace(h, d, q, zs[i])


def test_q_laplace_refuses_other_node_sources():
    q = 1.2
    op = make_q_euler(1.1)
    h = qs.q_continuation(qs.q_borel(solve_series(op, 90), 1, 1.1),
                          borel_plane_operator(op, 1), 0.0)
    for f in (lambda zeta: 1.0, h):
        for transform in (lambda: qs.discrete_q_laplace(f, 1, 0.0, q, 0.2),
                          lambda: qs.continuous_q_laplace(f, 1, 0.0, q, 0.2),
                          lambda: qs.theta_q_laplace(f, 0.0, q, 0.2)):
            with pytest.raises(ArgumentError):
                transform()


# ---------------------------------------------------------------------------
# formal q-identities (exact)


def test_q_borel_delta_q_commutation():
    q = 1.35
    for _ in range(6):
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = PowerSeries(coeffs)
        dq = lambda s: s.termwise(lambda n: (q**n - 1.0) / (q - 1.0))
        lhs = qs.q_borel(dq(f), 1, q)
        rhs = dq(qs.q_borel(f, 1, q))
        assert lhs.almost_equal(rhs, tol=1e-13)
        zf = PowerSeries(np.concatenate([[0.0], coeffs]))
        lhs2 = dq(qs.q_borel(zf, 1, q))
        rhs2 = PowerSeries(np.concatenate([[0.0], qs.q_borel(f, 1, q).coefficients]))
        assert lhs2.almost_equal(rhs2, tol=1e-13)


def test_single_level_sum_solves_equation():
    # slope-1 pure case: L_{q,1} . B_{q,1} of the q-Euler solution satisfies
    # the original inhomogeneous equation (checked via exact sigma shifts)
    q = 1.15
    op = make_q_euler(q)
    s = solve_series(op, 80)
    g = qs.q_borel(s, 1, q)
    h = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    evalS = lambda z: qs.discrete_q_laplace(h, 1, 0.0, q, z)
    z = SectorPoint.from_complex(0.12)
    zc = z.to_complex()
    sop = op.to_sigma_basis()
    total = 0.0
    scale = 0.0
    for j, b in enumerate(sop.coefficients):
        zj = SectorPoint(z.log_modulus + j * math.log(q), z.argument)
        t = b(zc) * evalS(zj)
        total += t
        scale = max(scale, abs(t))
    total -= sop.rhs.eval(z)
    assert abs(total) / scale < 1e-7


# ---------------------------------------------------------------------------
# q-multisummation


def test_q_multisum_confluence_point(q_euler_op):
    S = qs.q_multisum(None, q_euler_op, 0.0, mode="discrete")
    val = S(SectorPoint.from_complex(0.1))
    classical = math.exp(10.0) * exp1(10.0)
    assert abs(val - classical) < 5e-2
    assert S.residual(q_euler_op, SectorPoint.from_complex(0.1)) < 1e-7


def test_q_multisum_residual_three_points(q_euler_op):
    S = qs.q_multisum(None, q_euler_op, 0.0, mode="discrete")
    for zv in (0.08, 0.1, 0.13):
        assert S.residual(q_euler_op, SectorPoint.from_complex(zv)) < 1e-7


def test_q_multisum_slope_zero_passthrough():
    # sigma_q y = (1 + z) y has a convergent solution: polygon slope 0 only
    q = 1.3
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([-1.0, -1.0]), Polynomial([1.0])), q)
    S = qs.q_multisum(None, op, 0.0, order=80)
    z = SectorPoint.from_complex(0.05)
    assert S.convergent_series is not None
    direct = S.convergent_series.eval(z)
    assert S(z) == pytest.approx(direct)


def test_q_multisum_singular_direction(q_euler_op, euler_op):
    # every mode refuses the limit's singular directions
    limit = cl.summation_chain(euler_op)
    for mode in ("discrete", "continuous", "theta"):
        with pytest.raises(SingularDirectionError):
            qs.q_multisum(None, q_euler_op, math.pi, mode=mode, limit=limit)


def test_q_multisum_checks_a_supplied_series_in_every_mode(q_euler_op):
    junk = PowerSeries(np.ones(40))
    for mode in ("discrete", "continuous", "theta"):
        with pytest.raises(ArgumentError, match="does not satisfy the operator"):
            qs.q_multisum(junk, q_euler_op, 0.0, mode=mode)
    # the theta chain is built from the series: it is checked there too
    with pytest.raises(ArgumentError, match="does not satisfy the operator"):
        qs.q_summation_chain(q_euler_op, "theta", s=junk)
    # sigma_q y = (1 + z) y has a convergent solution
    convergent = LinearOperator("q_difference", "sigma_q",
                                (Polynomial([-1.0, -1.0]), Polynomial([1.0])), 1.3)
    with pytest.raises(ArgumentError, match="does not satisfy the operator"):
        qs.q_multisum(junk, convergent, 0.0, order=80)
    # an unknown mode is refused before the convergent branch
    with pytest.raises(ArgumentError, match="unknown q-summation mode"):
        qs.q_multisum(None, convergent, 0.0, mode="jackson", order=80)


def test_zero_series_q_operator_refuses_to_sum(euler_homogenized):
    # z delta_q^2 y + delta_q y - y = 0 at q = 1.05, the q-analogue of the
    # homogenized Euler equation: its recurrence forces a_0 = 0 as well
    op = LinearOperator("q_difference", "delta_q", euler_homogenized.coefficients, 1.05)
    limit = cl.summation_chain(euler_homogenized)
    for mode in ("discrete", "continuous"):
        chain = qs.q_summation_chain(op, mode, limit)
        for refuse in (lambda: chain.sum(0.0), lambda: chain.lateral_pair(math.pi)):
            with pytest.raises(ArgumentError, match="valuation 0 is not an admissible"):
                refuse()
    # the theta chain solves the series as it is built
    with pytest.raises(ArgumentError, match="valuation 0 is not an admissible"):
        qs.q_summation_chain(op, "theta", limit)


def test_q_entry_points_check_a_supplied_series_once(euler_op, monkeypatch):
    checked = []
    check = cl._check_series

    def counting(op, s):
        checked.append(s is not None)
        return check(op, s)

    monkeypatch.setattr(cl, "_check_series", counting)
    monkeypatch.setattr(qs, "_check_series", counting)
    op = make_q_euler(1.2)
    s = solve_series(op, 60)
    qs.q_multisum(s, op, 0.0, mode="theta")
    qs.q_stokes_jump(s, op, math.pi, [SectorPoint.from_polar(0.2, math.pi)],
                     mode="theta", limit=cl.summation_chain(euler_op))
    assert checked.count(True) == 2
    # a convergent chain sums the supplied series, not its own
    convergent = LinearOperator("q_difference", "sigma_q",
                                (Polynomial([-1.0, -1.0]), Polynomial([1.0])), 1.3)
    short = solve_series(convergent, 30)
    assert qs.q_multisum(short, convergent, 0.0).convergent_series is short


def test_q_summation_chain_builds_one_section_chain(euler_op, monkeypatch):
    # sums on both sides of the positive axis and the lateral pair about pi
    # share the chain's ladder and sections
    built = []
    build = qs._build_sections

    def counting(op, *args, **kwargs):
        built.append(op.kind)
        return build(op, *args, **kwargs)

    limit = cl.summation_chain(euler_op)
    monkeypatch.setattr(qs, "_build_sections", counting)
    chain = qs.q_summation_chain(make_q_euler(1.2), limit=limit)
    z = SectorPoint.from_polar(0.1, 0.0)
    up, down = chain.sum(0.1)(z), chain.sum(-0.1)(z)
    plus, minus = chain.lateral_pair(math.pi)
    assert built == ["q_difference"]
    assert abs(up - down) < 1e-12 * abs(up)
    assert plus.direction > math.pi > minus.direction


def test_q_stokes_jump_is_zero_off_the_singular_set(euler_op):
    limit = cl.summation_chain(euler_op)
    z = SectorPoint.from_polar(0.2, 0.5)
    for mode in ("discrete", "continuous", "theta"):
        chain = qs.q_summation_chain(make_q_euler(1.2), mode, limit)
        assert chain.lateral_pair(0.5) is None
        assert qs.q_stokes_jump(None, make_q_euler(1.2), 0.5, [z], mode, limit) == [0j]


def test_divergent_q_stokes_jump_needs_limit(q_euler_op):
    with pytest.raises(ArgumentError, match="takes them from its limit"):
        qs.q_stokes_jump(None, q_euler_op, math.pi, [-0.2])


def test_q_stokes_jump_builds_two_section_chains(euler_op, monkeypatch):
    # one classical chain of the limit operator gives the bracket, one q
    # chain serves both lateral sums
    built = []
    build = cl._build_sections

    def counting(op, *args, **kwargs):
        built.append(op.kind)
        return build(op, *args, **kwargs)

    monkeypatch.setattr(cl, "_build_sections", counting)
    monkeypatch.setattr(qs, "_build_sections", counting)
    z = SectorPoint.from_polar(0.2, math.pi)
    limit = cl.summation_chain(euler_op)
    (Jq,) = qs.q_stokes_jump(None, make_q_euler(1.2), math.pi, [z], limit=limit)
    assert sorted(built) == ["differential", "q_difference"]
    assert np.isfinite(Jq) and Jq != 0


def test_q_stokes_jump_refuses_a_bracket_below_1e8(q_euler_op, euler_op):
    # two singular directions of the limit operator 1e-8 apart leave no
    # singularity-free bracket
    close = cl.DirectionSet((math.pi, math.pi + 1e-8), ("borel-pole", "borel-pole"))
    limit = dataclasses.replace(cl.summation_chain(euler_op), directions=close)
    with pytest.raises(BracketingError, match="no singularity-free bracket"):
        qs.q_stokes_jump(None, q_euler_op, math.pi, [-0.2], limit=limit)


def test_first_order_normalizer_refuses_other_shapes():
    q = 1.05
    order_two = LinearOperator("q_difference", "delta_q",
                               (Polynomial([-1.0]), Polynomial([1.0]),
                                Polynomial([0.0, 1.0])), q)
    with pytest.raises(UnsupportedError, match="first-order operators"):
        qs.first_order_homogeneous_solution(order_two)
    # first order, but b1 = 1 + z is not c*z
    not_euler = LinearOperator("q_difference", "delta_q",
                               (Polynomial([1.0]), Polynomial([1.0, 1.0])), q)
    with pytest.raises(UnsupportedError, match=r"b1 = c\*z and b0 = c'"):
        qs.first_order_homogeneous_solution(not_euler)


def test_q_stokes_convergent_zero():
    q = 1.3
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([-1.0, -1.0]), Polynomial([1.0])), q)
    (Jq,) = qs.q_stokes_jump(None, op, math.pi, [SectorPoint.from_polar(0.1, math.pi)])
    assert Jq == 0.0


# ---------------------------------------------------------------------------
# (A1)-(A3) validation


def test_validate_identical_coefficients(q_euler_op, euler_op):
    report = qs.validate_confluence_family(
        lambda q: make_q_euler(q), euler_op, [1.5, 1.2, 1.1, 1.05])
    assert report.all_pass
    assert max(report.a3_c1) < 1e-12


def test_validate_q_minus_one_family(euler_op):
    def op_of_q(q):
        return LinearOperator(
            "q_difference", "delta_q",
            (Polynomial([1.0, q - 1.0]), Polynomial([0.0, 1.0])),
            q, PowerSeries([0.0, 1.0]))

    report = qs.validate_confluence_family(op_of_q, euler_op,
                                           [1.5, 1.2, 1.1, 1.05, 1.02])
    assert report.a3_pass and report.a2_pass
    assert max(report.a3_c1) < 10.0


def test_validate_sqrt_family_fails_a3(euler_op):
    def op_of_q(q):
        return LinearOperator(
            "q_difference", "delta_q",
            (Polynomial([1.0 + math.sqrt(q - 1.0)]), Polynomial([0.0, 1.0])),
            q, PowerSeries([0.0, 1.0]))

    report = qs.validate_confluence_family(
        op_of_q, euler_op, [1.5, 1.2, 1.1, 1.05, 1.02, 1.01])
    assert not report.a3_pass
    assert report.a3_slope < -0.3


def test_q_multisum_confluence_hypergeometric_family():
    # q-deformed operator of the divergent 2F0-type series: its q-sums
    # approach the Gamma-weighted classical value (an oracle computed from a
    # completely different route)
    from qborel import hypergeom as hg

    a1, a2 = 0.3, 0.9
    lim = LinearOperator("differential", "delta",
                         (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                          Polynomial([0, 1.0])))
    target = hg.classical_limit_rhs(hg.FParams((a1, a2), ()), 0.0, 2.0)
    errs = []
    limit = cl.summation_chain(lim)
    for q in (1.3, 1.15, 1.08):
        opq = LinearOperator("q_difference", "delta_q",
                             (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                              Polynomial([0, 1.0])), q)
        S = qs.q_multisum(None, opq, 0.0, mode="discrete", limit=limit)
        z = SectorPoint.from_complex(2.0)
        errs.append(abs(S(z) - target))
        assert S.residual(opq, z) < 1e-9
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


@pytest.mark.parametrize("q, mode", [(1.005, "continuous"), (1.1, "discrete")])
def test_grown_q_grid_equals_a_fresh_build(q, mode):
    # continuous q = 1.005 correlates its levels by FFT blocks (its kernel
    # has about 3 200 taps), discrete q = 1.1 by direct dots; in both a grid
    # grown by a second, wider request, which computes only the new nodes
    # and outputs of each level, equals a fresh build over the wider range
    # at every level, and the values of the first, narrow grid are those of
    # the wide one, bit for bit
    grown, fresh = (qs.q_multisum(None, make_q_euler(q), 0.0, mode=mode).sections[0]
                    for _ in range(2))
    assert grown.levels == 2
    K = qs._level(1, 0.0, grown.Qw, 1.0, grown.M)[2]
    assert (cl._block_size(len(K)) > 1) == (mode == "continuous")
    narrow = grown._nodes(-40, 40).copy()
    grown._nodes(-900, 700)
    fresh._nodes(-900, 700)
    assert grown._grid[:2] == fresh._grid[:2]
    assert np.array_equal(grown._grid[2], fresh._grid[2])
    for (a, values), (b, built) in zip(grown._grid[4], fresh._grid[4], strict=True):
        assert a == b and np.array_equal(values, built)
    assert np.array_equal(grown._nodes(-40, 40), narrow)


@pytest.mark.parametrize("q, mode", [(1.1, "discrete"), (1.5, "continuous"), (1.1, "theta")])
def test_a_point_q_times_further_walks_only_the_new_nodes(q, mode, monkeypatch):
    # z and then q z: w = z^3 moves one Q_w-step, M nodes of each section's
    # grid (M = 5 in the continuous mode at q = 1.5), past the top of the
    # grid, which lies above the anchor disk; each grid resumes the walk
    # from its own top node values, so its node source is asked for its M
    # new nodes alone and no series is summed, and the value is a fresh
    # sum's, bit for bit
    S = qs.q_multisum(None, make_q_euler(q), 0.0, mode=mode)
    S(0.1)
    before = {sec.cont: sec._grid[4][0] for sec in S.sections}
    asked, summed = [], []
    walk, eval_many = qs.QContinuation.grid_values, PowerSeries.eval_many
    monkeypatch.setattr(qs.QContinuation, "grid_values", lambda self, base, a, b, M=1, below=None:
                        asked.append((self, a, b)) or walk(self, base, a, b, M, below))
    monkeypatch.setattr(PowerSeries, "eval_many",
                        lambda self, t: summed.append(len(t)) or eval_many(self, t))
    value = S(0.1 * q)
    assert summed == []
    assert {sec.M for sec in S.sections} == {5 if mode == "continuous" else 1}
    for sec in S.sections:
        (lo, old), (new_lo, new) = before[sec.cont], sec._grid[4][0]
        assert new_lo == lo and len(new) == len(old) + sec.M
        assert [ask[1:] for ask in asked if ask[0] is sec.cont] == [(lo + len(old),
                                                                   lo + len(new) - 1)]
    monkeypatch.undo()
    assert value == qs.q_multisum(None, make_q_euler(q), 0.0, mode=mode)(0.1 * q)


# the points of the convergence checks: |arg z| up to 0.51, |arg w| up to 1.53
_RULE_POINTS = [0.1, 0.2 + 0.05j, 0.3 * cmath.exp(0.45j), 0.3 * cmath.exp(0.5j),
                0.1 * cmath.exp(0.51j)]
# |arg w| = 2.1: the final kernel's poles, on arg xi = arg w + pi, lie nearer
# the ray than the rule's pi/2
_OUTER_POINTS = [0.1 * cmath.exp(0.7j), 0.3 * cmath.exp(0.7j)]


def _four_times_the_rule(monkeypatch):
    rule = qs._nodes_per_step
    monkeypatch.setattr(qs, "_nodes_per_step", lambda *args: 4 * rule(*args))


@pytest.mark.parametrize("d, table", [
    (0.0, {1.5: 5, 1.2: 3, 1.1: 2, 1.05: 1, 1.02: 1, 1.01: 1}),
    (math.pi + math.pi / 24, {1.5: 19, 1.3: 12, 1.2: 9, 1.1: 5, 1.05: 3, 1.01: 1}),
    (math.pi - math.pi / 24, {1.5: 19, 1.3: 12, 1.2: 9, 1.1: 5, 1.05: 3, 1.01: 1}),
], ids=["d=0", "pi+pi/24", "pi-pi/24"])
def test_nodes_per_step_of_the_continuous_q_euler_sections(d, table):
    # M = ceil(37 log Q_w / (2 pi a)), Q_w = q^3: the pole spirals of g_1
    # lie on arg w = pi, so a = pi/2 at d = 0, and pi/8 on the lateral rays
    # pi +- pi/24 (3 pi +- pi/8 in w)
    for q, M in table.items():
        S = qs.q_multisum(None, make_q_euler(q), d, mode="continuous")
        assert [sec.M for sec in S.sections] == [M] * 3, q


@pytest.mark.parametrize("q", [1.5, 1.2, 1.05, 1.01])
def test_continuous_sums_converge_at_the_rules_nodes_per_step(q, monkeypatch):
    # the log-trapezoid error falls like e^(-2 pi a M / log Q_w): 4 times
    # the rule's M moves no value by more than the walk's rounding; beyond
    # |arg w| = pi/2 the final kernel's poles narrow the strip, and the
    # values at |arg w| = 2.1 move by up to 6e-12 (at q = 1.01)
    S = qs.q_multisum(None, make_q_euler(q), 0.0, mode="continuous")
    values = [S(z) for z in _RULE_POINTS + _OUTER_POINTS]
    _four_times_the_rule(monkeypatch)
    finer = qs.q_multisum(None, make_q_euler(q), 0.0, mode="continuous")
    assert finer.sections[0].M == 4 * S.sections[0].M
    for z, value in zip(_RULE_POINTS + _OUTER_POINTS, values):
        rtol = 1e-12 if z in _RULE_POINTS else 1e-11
        assert abs(finer(z) - value) <= rtol * abs(value)


@pytest.mark.parametrize("q", [1.3, 1.2])
def test_continuous_lateral_jump_converges_at_the_rules_nodes_per_step(q, euler_op,
                                                                      monkeypatch):
    # the lateral rays pi +- pi/24 lie pi/8 from the pole spirals in w, where
    # 8 nodes per step left the q = 1.3 jump 9e-12 off; the rule's M (12 at
    # q = 1.3, 9 at 1.2) and 4 times as many agree to rounding
    limit = cl.summation_chain(euler_op)
    zs = [SectorPoint.from_polar(0.2, math.pi)]
    (jump,) = qs.q_stokes_jump(None, make_q_euler(q), math.pi, zs, "continuous", limit)
    _four_times_the_rule(monkeypatch)
    (finer,) = qs.q_stokes_jump(None, make_q_euler(q), math.pi, zs, "continuous", limit)
    assert abs(finer - jump) <= 1e-14 * abs(jump)


@pytest.mark.parametrize("delta", [1e-6, 0.002])
def test_a_ray_near_a_pole_spiral_takes_the_nodes_of_the_strip_floor(delta, monkeypatch):
    # q = 1.5: g_1's pole spirals lie on arg w = pi.  A ray delta from them
    # takes the M of the floor pi/8 (19), not 37 log Q_w / (2 pi delta)
    # nodes per step (about 7e6 at delta = 1e-6); its grids stay under
    # 1 000 nodes for a two-level and a one-level section.  No node count
    # resolves a pole that near, and the sum is the one of 8 nodes per step
    # to the 7e-12 that the spiral's residue leaves
    q, d = 1.5, (math.pi - delta) / 3
    z = SectorPoint.from_polar(0.2, d)
    S = qs.q_multisum(None, make_q_euler(q), d, mode="continuous")
    value = S(z)
    assert [sec.M for sec in S.sections] == [19] * 3
    pipe = qs.q_summation_chain(make_q_euler(q), "continuous").sections[0]
    single = qs._QSection(cl.SectionPipeline(pipe.l, 1, pipe.op, pipe.g1), q**3, 3 * d,
                          "continuous")
    assert single.levels == 0 and single.M == 19
    assert np.isfinite(single.value(SectorPoint.from_polar(0.008, 3 * d)))
    for sec in S.sections + [single]:
        assert len(sec._grid[2]) < 1000
    monkeypatch.setattr(qs, "_nodes_per_step", lambda *args: 8)
    fixed = qs.q_multisum(None, make_q_euler(q), d, mode="continuous")(z)
    assert abs(value - fixed) <= 2e-11 * abs(fixed)


def test_continuous_q_laplace_of_a_ray_handle_keeps_8_nodes_per_step(monkeypatch):
    # a RayHandle's poles are unknown: 1/(xi - e^(0.1i)) has one 0.1 from
    # the ray, which one node per step (the rule's M at q = 1.05 for a
    # strip of pi/2) would leave 3e-6 off
    f = cl.FunctionHandle(lambda x: 1.0 / (x - cmath.exp(0.1j)), 0.0)
    value = qs.continuous_q_laplace(f, 1, 0.0, 1.05, 0.5)
    assert qs._HANDLE_NODES == 8 and qs._nodes_per_step(1, 0.0, 1.05, []) == 1
    monkeypatch.setattr(qs, "_HANDLE_NODES", 64)
    finer = qs.continuous_q_laplace(f, 1, 0.0, 1.05, 0.5)
    monkeypatch.setattr(qs, "_HANDLE_NODES", 1)
    coarse = qs.continuous_q_laplace(f, 1, 0.0, 1.05, 0.5)
    assert abs(value - finer) <= 1e-14 * abs(finer)
    assert abs(coarse - finer) > 1e-6 * abs(finer)


@pytest.mark.parametrize("q", [1.05, 1.001])
def test_continuous_sections_at_one_node_per_step_are_the_discrete_ones(q):
    # where the rule gives M = 1 the trapezoid sum is the Jackson sum, bit
    # for bit; at q = 1.001 its kernel has about 16 000 taps, which 8 nodes
    # per step took past the node cap
    cont, disc = (qs.q_multisum(None, make_q_euler(q), 0.0, mode=mode)
                  for mode in ("continuous", "discrete"))
    assert [sec.M for sec in cont.sections] == [1, 1, 1]
    for z in _RULE_POINTS if q == 1.05 else [0.1]:
        assert cont(z) == disc(z)
    for a, b in zip(cont.sections, disc.sections):
        assert a._grid[:2] == b._grid[:2] and np.array_equal(a._grid[2], b._grid[2])


def test_fft_level_correlation_matches_the_direct_dots():
    # a level array that climbs 60 decades, turns and then stays flat, against
    # a kernel of 8 nodes per step, long enough for FFT blocks: every output is
    # the direct dot's to 2e-13 (kept FFT outputs are checked to 1e-13, the
    # rest are that dot), and the direct path is np.dot bit for bit.  Over
    # 4.5 blocks of outputs the first 4 are those of the whole range, bit
    # for bit, and the filled-up last block keeps that accuracy
    K = qs._level(1, 0.0, 1.02 ** 3, 1.0, 8)[2]
    n, B = len(K), cl._block_size(len(K))
    assert B > 1
    t = np.arange(5 * B + n - 1)
    a = np.exp(np.minimum(t, 1.5 * n) * (60 * math.log(10) / (1.5 * n)) + 0.01j * t)
    dots = np.array([np.dot(K, a[i : i + n]) for i in range(5 * B)])
    got = cl._correlate(a, K)
    assert np.max(np.abs(got - dots) / np.abs(dots)) <= 2e-13
    part = cl._correlate(a[: 4 * B + B // 2 + n - 1], K)
    assert len(part) == 4 * B + B // 2
    assert np.array_equal(part[: 4 * B], got[: 4 * B])
    assert np.max(np.abs(part - dots[: len(part)]) / np.abs(dots[: len(part)])) <= 2e-13
    rows = np.array([0, 1, 2, 7, 9, 10, 5 * B - 1])
    assert np.array_equal(cl._direct_dots(a, K, rows), dots[rows])


@pytest.fixture(scope="module")
def euler_sums():
    """The classical Euler sum and the discrete, continuous and theta q-Euler
    sums (q = 1.05) at d = 0."""
    euler = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                           None, PowerSeries([0.0, 1.0]))
    sums = {"classical": cl.multisum(None, euler, 0.0)}
    for mode in ("discrete", "continuous", "theta"):
        sums[mode] = qs.q_multisum(None, make_q_euler(1.05), 0.0, mode=mode)
    return sums


@pytest.mark.parametrize("z", [1e-200, 1e-320, 1e300, math.nan, math.inf])
@pytest.mark.parametrize("kind", ["classical", "discrete", "continuous", "theta"])
def test_sums_at_the_ends_of_the_float_range_raise_typed_errors(euler_sums, kind, z):
    # a value is finite, and a refusal is a QBorelError: no OverflowError or
    # ValueError from a log, a floor or an exponential, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = euler_sums[kind](z)
        except QBorelError:
            return
    assert cmath.isfinite(value)


def test_sums_refuse_a_non_finite_direction(euler_op):
    chain = cl.summation_chain(euler_op)
    q_chain = qs.q_summation_chain(make_q_euler(1.05), limit=chain)
    for bad in (math.nan, math.inf):
        for c in (chain, q_chain):
            with pytest.raises(ArgumentError, match="not finite"):
                c.sum(bad)
            with pytest.raises(ArgumentError, match="not finite"):
                c.lateral_pair(bad)
