import cmath
import math
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qborel import classical as cl
from qborel.errors import (
    ArgumentError,
    DomainError,
    ResonanceError,
    SingularDirectionError,
    UnsupportedError,
    ValidationError,
)
from qborel.operators import (
    LinearOperator,
    Recurrence,
    borel_plane_operator,
    newton_polygon,
    solve_series,
)
from qborel.series import Polynomial, PowerSeries, SectorPoint, gamma, q_factorial

from conftest import make_q_euler

rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# ladders


def test_ladder_example41(example41_op):
    polygon = newton_polygon(example41_op)
    ladder = cl.build_ladder(polygon, [0, 0, 1, 4], k_r_choice=5)
    assert ladder.kappa == (Fraction(2), Fraction(10, 3), Fraction(5))
    assert ladder.kappa_tilde == (
        Fraction(4), Fraction(4), Fraction(20, 3), Fraction(20, 3), Fraction(5))
    assert ladder.beta == 20
    assert sum(Fraction(1, 1) / k for k in ladder.kappa_tilde) == Fraction(1)


def test_ladder_single_slope_minimal(euler_homogenized):
    polygon = newton_polygon(euler_homogenized)
    ladder = cl.build_ladder(polygon, [0, 0, 1])
    assert ladder.top_level == 3
    assert ladder.kappa == (Fraction(3, 2), Fraction(3))
    # alpha_1 = 2 copies of 3, then kappa_r itself: reciprocals sum to 1/k_1
    assert ladder.kappa_tilde == (Fraction(3), Fraction(3), Fraction(3))
    assert ladder.beta == 3


def test_ladder_invalid_top_choice(euler_homogenized):
    polygon = newton_polygon(euler_homogenized)
    with pytest.raises(ArgumentError):
        cl.build_ladder(polygon, [0, 0, 1], k_r_choice=2)


# ---------------------------------------------------------------------------
# formal Borel


def test_formal_borel_identity_order_one():
    s = PowerSeries([0, 1.0])
    assert cl.formal_borel(s, 1).coeff_at(1) == pytest.approx(1.0)


def test_formal_borel_euler(euler_op):
    s = solve_series(euler_op, 12)
    b = cl.formal_borel(s, 1)
    for n in range(11):
        expect = (-1) ** n / (n + 1.0)
        assert b.coeff_at(n + 1) == pytest.approx(expect, rel=1e-13)


def test_formal_borel_conjugation():
    from qborel.series import ramify

    coeffs = rng.normal(size=9)
    s = PowerSeries(coeffs)
    k = Fraction(3, 2)
    lhs = cl.formal_borel(s, k)
    rhs = ramify(cl.formal_borel(ramify(s, 1 / k), 1), k)
    assert lhs.almost_equal(rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# singular directions


def test_singular_directions_euler(euler_op):
    dirs = cl.singular_directions(euler_op)
    # the beta-sections see the rotated copies of the Borel singularity at -1:
    # an honest superset of {pi}
    assert any(abs(d - math.pi) < 1e-9 for d in dirs.singular_directions)
    assert dirs.min_distance(0.0) > 0.5
    assert all(p in ("borel-pole", "leading-root") for p in dirs.provenance)


def test_singular_directions_convergent_empty():
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, -1.0]), Polynomial([1.0, -1.0])))
    dirs = cl.singular_directions(op)
    assert dirs.singular_directions == ()


def test_singular_directions_leading_root():
    # leading coefficient root at 2i contributes the ray pi/2
    lead = Polynomial([0.0, -2.0j, 1.0])  # z(z - 2i)
    op = LinearOperator("differential", "delta",
                        (Polynomial([-1.0]), Polynomial([1.0]), lead))
    dirs = cl.singular_directions(op)
    hits = [d for d, p in dirs.entries() if p == "leading-root"]
    assert any(abs(d - math.pi / 2) < 1e-9 for d in hits)


# ---------------------------------------------------------------------------
# continuation and Laplace


def _euler_borel_handle(euler_op, d):
    s = solve_series(euler_op, 60)
    b = cl.formal_borel(s, 1)
    bop = borel_plane_operator(euler_op, 1)
    return cl.ContinuationHandle(b, bop, d)


def test_borel_continuation_matches_log(euler_op):
    h = _euler_borel_handle(euler_op, 0.0)
    for t in (0.5, 2.0, 10.0):
        assert h.eval_ray(t) == pytest.approx(math.log(1.0 + t), rel=1e-9)


def test_borel_continuation_singular_ray(euler_op):
    with pytest.raises(SingularDirectionError):
        _euler_borel_handle(euler_op, math.pi)


def test_polynomial_handle_is_exact():
    poly = PowerSeries([1.0, 2.0, 0.5])
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, 0.0, 0.0, -2.0 - 0.0j]),
                         Polynomial([1.0])))  # any op with nonzero lead; unused
    handle = cl.FunctionHandle(lambda zeta: poly.eval(zeta), 0.0)
    for x in (0.1, 3.0, 20.0):
        assert handle.eval_ray(x) == pytest.approx(poly.eval(x), rel=1e-14)


def test_laplace_of_constants_and_moments():
    one = cl.FunctionHandle(lambda z: 1.0 + 0j, 0.0)
    z = SectorPoint.from_complex(0.3)
    assert cl.laplace_along_ray(one, 1, 0.0, z) == pytest.approx(1.0, rel=1e-12)
    ident = cl.FunctionHandle(lambda zeta: zeta, 0.0)
    assert cl.laplace_along_ray(ident, 1, 0.0, z) == pytest.approx(0.3, rel=1e-11)


def test_laplace_euler_value(euler_op):
    h = _euler_borel_handle(euler_op, 0.0)
    z = SectorPoint.from_complex(0.1)
    got = cl.laplace_along_ray(h, 1, 0.0, z)
    # independent oracle: integrating log(1+zeta) against the kernel by parts
    # gives int_0^inf e^(-t/z)/(1+t) dt
    oracle, _ = quad(lambda t: math.exp(-t / 0.1) / (1.0 + t), 0, 60,
                     epsabs=1e-14, epsrel=1e-13, limit=300)
    assert got == pytest.approx(oracle, rel=1e-9)
    assert oracle == pytest.approx(0.0915633, abs=2e-7)


def test_laplace_domain_errors():
    one = cl.FunctionHandle(lambda z: 1.0 + 0j, 0.0)
    with pytest.raises(DomainError):
        cl.laplace_along_ray(one, 1, 0.0, SectorPoint.from_polar(0.3, 2.5))
    grower = cl.FunctionHandle(lambda z: cmath.exp(3.0 * z), 0.0, growth=(1.0, 3.0))
    with pytest.raises(DomainError):
        cl.laplace_along_ray(grower, 1, 0.0, SectorPoint.from_complex(0.5))


def test_laplace_refuses_an_integrand_that_grows_along_the_ray():
    # stated growth L = 0 while |f| = e^(20 x): at z = 0.1 the integrand
    # e^(20 s) e^(-10 s) grows at each of the truncation's three extensions
    understated = cl.FunctionHandle(lambda zeta: cmath.exp(20.0 * zeta), 0.0)
    with pytest.raises(DomainError, match="integrand does not decay along the ray"):
        cl.laplace_along_ray(understated, 1, 0.0, SectorPoint.from_complex(0.1))


def test_laplace_refuses_a_tail_beyond_the_handle_reach():
    # a reach of 0.5 cuts e^(-10 s) at s = 0.48, where it is still 8e-3 of
    # its peak: the next extension would leave the handle's domain
    short = cl.FunctionHandle(lambda zeta: 1.0 + 0j, 0.0)
    short._x_dom = 0.5
    with pytest.raises(DomainError, match="tail beyond the previous stage's reach"):
        cl.laplace_along_ray(short, 1, 0.0, SectorPoint.from_complex(0.1))


def test_laplace_along_ray_takes_order_one_only():
    # every ladder level is order 1 in its section variable
    one = cl.FunctionHandle(lambda zeta: 1.0 + 0j, 0.0)
    z = SectorPoint.from_complex(0.3)
    for k in (2, Fraction(1, 2), 1.5):
        with pytest.raises(UnsupportedError, match="order 1"):
            cl.laplace_along_ray(one, k, 0.0, z)
    assert cl.laplace_along_ray(one, Fraction(1), 0.0, z) == pytest.approx(1.0, rel=1e-12)


def test_laplace_positivity():
    h = cl.FunctionHandle(lambda zeta: 1.0 / (1.0 + zeta), 0.0)
    z = SectorPoint.from_complex(0.25)
    val = cl.laplace_along_ray(h, 1, 0.0, z)
    assert val.real > 0
    assert abs(val.imag) < 1e-12 * abs(val)


def test_laplace_along_ray_samples_each_node_once(euler_op):
    # one reference rule per value: after the truncation's 12-point peak
    # scan, each round samples its new G7/K15 panels by one eval_ray_many,
    # and no node is sampled twice; the value matches scipy's QUADPACK
    h = _euler_borel_handle(euler_op, 0.3)
    calls, many = [], h.eval_ray_many

    def recording(xs):
        calls.append(np.array(xs, dtype=float))
        return many(xs)

    h.eval_ray_many = recording
    z = SectorPoint.from_polar(0.1, 0.4)
    got = cl.laplace_along_ray(h, 1, 0.3, z)
    assert len(calls[0]) == 12
    rounds = calls[1:]
    assert len(rounds) > 1 and all(len(r) % 15 == 0 for r in rounds)
    nodes = np.concatenate(rounds)
    assert len(np.unique(nodes)) == len(nodes)
    A, S, fn, _ = cl._laplace_truncation(h, 0.3, z, 0)
    del h.eval_ray_many
    ref, _ = quad(fn, 0.0, S, epsabs=0.0, epsrel=1e-13, limit=200, complex_func=True)
    assert abs(got - A * ref) <= 1e-12 * abs(A * ref)


def test_laplace_along_ray_raises_on_a_non_finite_sample():
    # the NaN lies between the truncation's peak-scan nodes (S = 4.2, nodes
    # every 0.35) and inside the first G7/K15 panel [0, 0.525]
    hole = cl.FunctionHandle(
        lambda zeta: complex(math.nan) if 0.41 < zeta.real < 0.47 else 1.0 + 0j, 0.0)
    with pytest.raises(ValidationError, match="non-finite integrand value"):
        cl.laplace_along_ray(hole, 1, 0.0, SectorPoint.from_complex(0.1))


def test_laplace_along_ray_panel_budget_raises(monkeypatch):
    # 1/(1 + zeta) on the ray pi + 0.02 passes 0.02 from its pole: the rule
    # bisects its 8 starting panels, and with no room to do so it raises
    d = math.pi + 0.02
    near_pole = cl.FunctionHandle(lambda zeta: 1.0 / (1.0 + zeta), d)
    z = SectorPoint.from_polar(0.5, d)
    value = cl.laplace_along_ray(near_pole, 1, d, z)
    monkeypatch.setattr(cl, "_REF_MAX_PANELS", 8)
    with pytest.raises(ValidationError, match="reference Laplace quadrature .* within 8 panels"):
        cl.laplace_along_ray(near_pole, 1, d, z)
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# commutation identities (formal sides exact, integral sides ~1e-8)


def _random_poly(deg=8):
    return np.concatenate([rng.normal(size=deg + 1)]).astype(complex)


def _delta_series(coeffs):
    return np.array([n * c for n, c in enumerate(coeffs)])


def test_formal_borel_delta_commutation():
    for _ in range(6):
        c = _random_poly()
        f = PowerSeries(c)
        df = PowerSeries(_delta_series(c))
        lhs = cl.formal_borel(df, 1)
        rhs = cl.formal_borel(f, 1).termwise(lambda n: float(n))
        assert lhs.almost_equal(rhs, tol=1e-14)


def test_formal_borel_multiplication_identity():
    # delta B(z f) = zeta B(f) exactly
    for _ in range(6):
        c = _random_poly()
        f = PowerSeries(c)
        zf = PowerSeries(np.concatenate([[0.0], c]))
        lhs = cl.formal_borel(zf, 1).termwise(lambda n: float(n))
        rhs = PowerSeries(np.concatenate([[0.0], cl.formal_borel(f, 1).coefficients]))
        assert lhs.almost_equal(rhs, tol=1e-14)


def _poly_handle(coeffs, d=0.0):
    p = PowerSeries(coeffs)
    return cl.FunctionHandle(lambda zeta: p.eval(zeta), d)


def _fd_delta(fn, z: SectorPoint, h=1e-5):
    # central difference for delta = d/d(log z), Richardson extrapolated
    def diff(step):
        up = fn(SectorPoint(z.log_modulus + step, z.argument))
        dn = fn(SectorPoint(z.log_modulus - step, z.argument))
        return (up - dn) / (2 * step)

    d1, d2 = diff(h), diff(h / 2)
    return (4 * d2 - d1) / 3.0


def test_laplace_delta_commutation():
    c = _random_poly(6)
    g = _poly_handle(c)
    dg = _poly_handle(_delta_series(c))
    z = SectorPoint.from_complex(0.17)
    lhs = cl.laplace_along_ray(dg, 1, 0.0, z)
    rhs = _fd_delta(lambda w: cl.laplace_along_ray(g, 1, 0.0, w), z)
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_laplace_multiplication_identity():
    c = _random_poly(6)
    g = _poly_handle(c)
    dg = _poly_handle(_delta_series(c))
    zg = _poly_handle(np.concatenate([[0.0], c]))
    z = SectorPoint.from_complex(0.21)
    zc = z.to_complex()
    lhs = zc * cl.laplace_along_ray(dg, 1, 0.0, z)
    rhs = cl.laplace_along_ray(zg, 1, 0.0, z) - zc * cl.laplace_along_ray(g, 1, 0.0, z)
    assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# multisummation


def test_multisum_euler_quick(euler_op):
    S = cl.multisum(None, euler_op, 0.0)
    from scipy.special import exp1

    val = S(SectorPoint.from_complex(0.1))
    oracle = math.exp(10.0) * exp1(10.0)
    assert abs(val - oracle) / oracle < 1e-10
    # residual property at interior points
    for zv in (0.08, 0.1, 0.15):
        assert S.residual(euler_op, SectorPoint.from_complex(zv)) < 1e-5


def test_multisum_convergent_passthrough():
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, -1.0]), Polynomial([1.0, -1.0])))
    S = cl.multisum(None, op, 0.0)
    val = S(SectorPoint.from_complex(0.3))
    assert val == pytest.approx(1.0 / 0.7, rel=1e-12)


def test_multisum_singular_direction_rejected(euler_op):
    with pytest.raises(SingularDirectionError):
        cl.multisum(None, euler_op, math.pi)


def test_stokes_jump_convergent_is_zero():
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, -1.0]), Polynomial([1.0, -1.0])))
    (J,) = cl.stokes_jump(None, op, math.pi, [SectorPoint.from_polar(0.3, math.pi)])
    assert J == 0.0


# ---------------------------------------------------------------------------
# one front end: the ladder, chain and directions every sum reads


def test_multisum_refuses_every_direction_of_the_singular_set():
    # z delta y + y = z^3: the rhs degree 3 makes d0 = 3, k_r = 4, beta = 4;
    # singular_directions and multisum read the same ladder and chain
    op = LinearOperator("differential", "delta",
                        (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                        None, PowerSeries([0.0, 0.0, 0.0, 1.0]))
    dirs = cl.singular_directions(op).singular_directions
    assert len(dirs) == 4
    for d in dirs:
        with pytest.raises(SingularDirectionError):
            cl.multisum(None, op, d)


def test_stokes_jump_builds_one_section_chain(euler_op, monkeypatch):
    # the direction check and both lateral sums share the chain
    built = []
    build = cl._build_sections

    def counting(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(cl, "_build_sections", counting)
    z = SectorPoint.from_polar(0.2, math.pi)
    (J,) = cl.stokes_jump(None, euler_op, math.pi, [z])
    assert built == [euler_op]
    assert abs(abs(J * cmath.exp(-1.0 / z.to_complex())) - 2 * math.pi) < 1e-9


def test_multisum_checks_a_supplied_series_for_every_operator(euler_op):
    # delta y + y = z is convergent (y = z/2): a supplied series is checked
    # against it as against the divergent Euler operator, and the operator's
    # own series passes the check
    half = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([1.0])),
                          None, PowerSeries([0.0, 1.0]))
    junk = PowerSeries(np.ones(40))
    for op in (half, euler_op):
        with pytest.raises(ArgumentError, match="does not satisfy the operator"):
            cl.multisum(junk, op, 0.0)
        with pytest.raises(ArgumentError, match="does not satisfy the operator"):
            cl.stokes_jump(junk, op, math.pi, [-0.2])
    z = SectorPoint.from_complex(0.05)
    S = cl.multisum(solve_series(half, 40), half, 0.0)
    assert S(z) == pytest.approx(0.025, rel=1e-14)


def test_multisum_raises_at_a_resonant_recurrence_row():
    # -2 y + delta y + z delta^2 y = z^2 has no power-series solution: the
    # section seeds hit the inconsistent resonant row n = 2
    op = LinearOperator("differential", "delta",
                        (Polynomial([-2.0]), Polynomial([1.0]), Polynomial([0.0, 1.0])),
                        None, PowerSeries([0.0, 0.0, 1.0]))
    with pytest.raises(ResonanceError):
        cl.multisum(None, op, 0.0)


def test_multisum_fractional_slope_unsupported():
    # y - z (delta+1)^2 y = 1 has the single slope 1/2: the ladder's
    # section-variable orders drop below 1 and evaluation is declined
    from qborel.errors import UnsupportedError

    op = LinearOperator("differential", "delta",
                        (Polynomial([1.0, -1.0]), Polynomial([0.0, -2.0]),
                         Polynomial([0.0, -1.0])),
                        None, PowerSeries([1.0]))
    polygon = newton_polygon(op)
    assert polygon.positive_slopes() == (Fraction(1, 2),)
    ladder = cl.build_ladder(polygon, [1, 1, 1, 0])
    assert ladder.kappa_tilde == (Fraction(12, 5),) * 4 + (Fraction(3),)
    with pytest.raises(UnsupportedError):
        cl.multisum(None, op, math.pi / 12)


# ---------------------------------------------------------------------------
# section chain (one builder for the Gamma and the q-factorial weight)


@pytest.mark.parametrize("weight", ["gamma", "qfact"])
def test_stage_seeds_match_weighted_section_coefficients(euler_op, weight):
    # seeds of stage j on section l: a_{l + n beta} / prod_{i >= j} W_i(n),
    # W_i(n) = Gamma(1 + n m_i) for Euler and [n m_i]_{q^kt_i}! for q-Euler
    # at q = 1.05; a_n from the linear recurrence solve
    q = 1.05
    op = euler_op if weight == "gamma" else make_q_euler(q)
    ladder = cl.build_ladder(newton_polygon(euler_op), [0, 1, 1])
    assert ladder.beta == 3 and ladder.levels == 3
    m = [int(1 / lam) for lam in ladder.w_orders()]
    sections = cl._build_sections(op, ladder, order=60, weight=weight)
    assert [sec.l for sec in sections] == [0, 1, 2]
    for sec in sections:
        assert len(sec.stage_seeds) == 3
        a = solve_series(op, 3 * len(sec.stage_seeds[0]) + 3).coefficients
        for j, seeds in enumerate(sec.stage_seeds):
            for n, got in enumerate(seeds):
                if weight == "gamma":
                    w = math.prod(math.gamma(1.0 + n * mi) for mi in m[j:])
                else:
                    w = math.prod(q_factorial(n * mi, q ** float(kt))
                                  for mi, kt in zip(m[j:], ladder.kappa_tilde[j:]))
                want = a[sec.l + n * ladder.beta] / w
                assert abs(got - want) <= 1e-12 * abs(want), (sec.l, j, n)


@pytest.mark.parametrize("weight", ["gamma", "qfact"])
def test_build_sections_solves_the_master_recurrence_once(euler_op, weight, monkeypatch):
    # the beta = 3 sections slice one log-form master solve; a shorter solve
    # is a prefix of a longer one, bit for bit
    op = euler_op if weight == "gamma" else make_q_euler(1.05)
    rec = Recurrence.from_operator(op)
    head, whole = rec.solve_logspace(10), rec.solve_logspace(30)
    assert all(np.array_equal(a, b[:10]) for a, b in zip(head, whole))
    calls = []
    solve_logspace = Recurrence.solve_logspace
    monkeypatch.setattr(Recurrence, "solve_logspace",
                        lambda self, *a, **k: calls.append(a) or solve_logspace(self, *a, **k))
    ladder = cl.build_ladder(newton_polygon(euler_op), [0, 1, 1])
    assert ladder.beta == 3
    assert len(cl._build_sections(op, ladder, order=60, weight=weight)) == 3
    assert len(calls) == 1


def test_zero_series_operator_refuses_sum_and_lateral_pair(euler_homogenized):
    # z delta^2 y + delta y - y = 0: (n - 1) a_n + (n - 1)^2 a_(n-1) = 0
    # forces a_0 = 0, so the chain at valuation 0 holds the zero series
    with pytest.raises(ArgumentError, match="valuation 0 is not an admissible") as plain:
        solve_series(euler_homogenized, 10)
    chain = cl.summation_chain(euler_homogenized)
    for refuse in (lambda: chain.sum(0.0), lambda: chain.lateral_pair(math.pi),
                   lambda: chain.lateral_pair(0.5)):
        with pytest.raises(ArgumentError) as err:
            refuse()
        assert str(err.value) == str(plain.value)
    assert cl.singular_directions(euler_homogenized).singular_directions == pytest.approx(
        (math.pi / 3, math.pi, 5 * math.pi / 3))


def test_truncate_overflow_cuts_past_the_seed_floor():
    # 5 seeds: the first 13 entries are kept whatever their size ...
    coeffs = np.ones(40, dtype=complex)
    coeffs[6] = 1e290
    coeffs[20] = 1e281
    coeffs[30] = complex(np.inf, 0.0)
    assert len(cl._truncate_overflow(coeffs, 5)) == 13
    # ... and beyond them the cut falls at the first entry above 1e280
    coeffs[6] = 1.0
    out = cl._truncate_overflow(coeffs, 5)
    assert len(out) == 20 and np.all(out == 1.0)
    assert len(cl._truncate_overflow(np.ones(40, dtype=complex), 5)) == 40


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_truncate_overflow_drops_non_finite_entries_below_the_floor(bad):
    coeffs = np.ones(40, dtype=complex)
    coeffs[6] = complex(0.0, bad)
    out = cl._truncate_overflow(coeffs, 5)
    assert len(out) == 6 and np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# stage tabulation (adaptive batched Gauss-Kronrod, validated, no fallback)


def _replace_table(mp, build):
    """Make build(handle) the cached sub-anchor table of LaplaceStageHandle
    under the MonkeyPatch mp; return the builder it replaces."""
    table = cached_property(build)
    table.__set_name__(cl.LaplaceStageHandle, "_interp")
    original = cl.LaplaceStageHandle._interp.func
    mp.setattr(cl.LaplaceStageHandle, "_interp", table)
    return original


def _check_points(handle):
    """The three points at which a stage validates its tabulation."""
    lo, hi = handle._interp.a, handle._interp.b
    return np.array([lo * (hi / lo) ** f for f in (0.23, 0.52, 0.81)])


@pytest.fixture(scope="module")
def stokes_pair():
    """Euler sums on the rays pi +/- pi/24 (rtol 1e-10), built while counting
    each stage handle's tabulations and the points of its reference checks."""
    euler = LinearOperator("differential", "delta",
                           (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                           None, PowerSeries([0.0, 1.0]))
    tabulated, direct = {}, {}
    direct_fn = cl.LaplaceStageHandle._direct

    def counting_table(self):
        tabulated[id(self)] = tabulated.get(id(self), 0) + 1
        return table_fn(self)

    def counting_direct(self, xs):
        direct.setdefault(id(self), []).append(len(xs))
        return direct_fn(self, xs)

    offset = math.pi / 24.0
    with pytest.MonkeyPatch.context() as mp:
        table_fn = _replace_table(mp, counting_table)
        mp.setattr(cl.LaplaceStageHandle, "_direct", counting_direct)
        plus = cl.multisum(None, euler, math.pi + offset, rtol=1e-10)
        minus = cl.multisum(None, euler, math.pi - offset, rtol=1e-10)
    return plus, minus, tabulated, direct


def test_batched_laplace_matches_adaptive_quadrature_near_stokes_ray(stokes_pair):
    plus = stokes_pair[0]
    for sec in plus.sections:
        for h in sec.handles[1:]:
            xs = _check_points(h)
            got = cl._batched_ray_laplace(h.prev, h.direction, xs)
            for x, g in zip(xs, got):
                ref = cl.laplace_along_ray(h.prev, 1, h.direction,
                                           SectorPoint.from_polar(x, h.direction))
                assert abs(g - ref) < 1e-11 * abs(ref)


def test_tabulation_makes_only_its_three_check_quadratures(stokes_pair):
    # one reference check per table, covering its three points at once
    _, _, tabulated, direct = stokes_pair
    assert len(tabulated) == 6
    assert set(direct) == set(tabulated)
    for key, n_tab in tabulated.items():
        assert n_tab == 1
        assert direct[key] == [3]


@pytest.fixture(scope="module")
def euler_tables(stokes_pair):
    """Every stage handle of the Euler sums at d = 0 (rtol 1e-11) and at
    pi +/- pi/24 (rtol 1e-10); each builds its table on first use."""
    euler = LinearOperator("differential", "delta",
                           (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                           None, PowerSeries([0.0, 1.0]))
    handles = []
    for S in (cl.multisum(None, euler, 0.0), *stokes_pair[:2]):
        for sec in S.sections:
            handles.extend(sec.handles[1:])
    return handles


def test_euler_stage_tables_chop_at_128_nodes_or_fewer(euler_tables):
    assert len(euler_tables) == 18
    for h in euler_tables:
        n = len(h._interp.vals) - 1
        assert n in (32, 64, 128)
        coeffs = np.abs(cl._cheb_coeffs(h._interp.vals))
        assert np.max(coeffs[-max(4, n // 8):]) <= 1e-13 * np.max(coeffs)


def test_stage_tables_match_direct_quadrature_across_their_span(euler_tables):
    # the built-in check covers 3 points; here 12 log-spaced ones
    for h in euler_tables:
        a, b = h._interp.a, h._interp.b
        for x in a * (b / a) ** ((np.arange(12) + 0.5) / 12):
            ref = cl.laplace_along_ray(h.prev, 1, h.direction,
                                       SectorPoint.from_polar(x, h.direction))
            assert abs(h._interp(x) - ref) <= 1e-10 * abs(ref)


def test_rough_stage_table_raises_at_the_chop_cap(euler_op):
    # a previous stage with pseudo-random relative noise 3e-11, below what
    # the Gauss-Kronrod error estimate resolves, leaves a coefficient floor
    # near 5e-13 of the largest: no grid up to 512 chops
    sec = cl.summation_chain(euler_op).sections[0]

    class Rough(cl.FunctionHandle):
        noise = 0.0

        def eval_ray_many(self, xs):
            xs = np.asarray(xs, dtype=float)
            return (1.0 + self.noise * np.sin(1e12 * xs)) / (1.0 + xs)

    prev = Rough(lambda zeta: 1.0 / (1.0 + zeta), 0.0)
    h = cl.LaplaceStageHandle(prev, 0.0, sec.stage_ops[1])
    prev.noise = 3e-11
    with pytest.raises(ValidationError, match=r"\(direction = 0\.0\) does not chop "
                                              r"at n = 512"):
        h.eval_ray(0.5 * h._x0)


def test_stage_without_asymptotic_seeds_refuses_a_read_below_its_table(euler_op):
    # the table spans [1e-8 x0, x0]; below it, with no asymptotic range,
    # a read raises where it once ran one scalar quadrature per point
    sec = cl.summation_chain(euler_op).sections[0]
    prev = cl.ContinuationHandle(sec.g1, sec.stage_ops[0], 0.0)
    h = cl.LaplaceStageHandle(prev, 0.0, sec.stage_ops[1])
    x = 1e-10 * h._x0
    with pytest.raises(DomainError, match=r"arg=0\.0 read at x = .* below its table"):
        h.eval_ray(x)
    with pytest.raises(DomainError, match="below its table"):
        h.eval_ray_many(np.array([0.5 * h._x0, x]))
    # the table itself reads as before
    assert h._interp.a == pytest.approx(1e-8 * h._x0)
    assert h.eval_ray(1e-3 * h._x0) == h._interp(1e-3 * h._x0)


_EPS = 1e-5


@pytest.mark.parametrize("prev_fn, coefficients, rhs, seeds", [
    # f(s) = s^2 e^-s, L f = 2x^2/(1 + x)^3: seeds 0, 0, 2, -6, 12, ...
    # start with two zeros, so c0 + c1 x alone gives no cutoff
    (lambda s: s * s * cmath.exp(-s), ([-2.0, 1.0], [1.0, 1.0]), None,
     [0.0, 0.0] + [(-1) ** n * (n + 1) * (n + 2) for n in range(6)]),
    # f(s) = 1/(1 + s/eps), L f = sum (-1)^n n! (x/eps)^n: the cutoff falls
    # below 1e-8 x0, where the table once started
    (lambda s: 1.0 / (1.0 + s / _EPS), ([1.0, 1.0 / _EPS], [0.0, 1.0 / _EPS]), [1.0],
     [(-1) ** n * math.factorial(n) / _EPS**n for n in range(8)]),
])
def test_stage_reads_below_its_table_from_its_asymptotic_range(prev_fn, coefficients,
                                                               rhs, seeds):
    # the anchor moments and batched rules of a next stage read down to
    # about 1e-12 of their span: the asymptotic range and the table must
    # leave no gap between them
    op = LinearOperator("differential", "delta",
                        tuple(Polynomial(c) for c in coefficients), None,
                        PowerSeries(rhs) if rhs else None)
    prev = cl.FunctionHandle(prev_fn, 0.0)
    h = cl.LaplaceStageHandle(prev, 0.0, op, asym_seeds=np.array(seeds, dtype=complex))
    assert h._asym is not None
    assert h._interp.a == 0.8 * h._x_asym
    xs = h._x0 * np.geomspace(1e-13, 0.99, 40)
    many = h.eval_ray_many(xs)
    for x, v in zip(xs, many):
        ref = cl.laplace_along_ray(prev, 1, 0.0, SectorPoint.from_complex(x))
        assert abs(h.eval_ray(x) - ref) < 1e-10 * abs(ref)
        assert abs(v - ref) < 1e-10 * abs(ref)


def test_growth_is_fitted_once_per_handle(euler_op, monkeypatch):
    # fit caches growth(): over many values and the stage tables, anchors and
    # final levels that read it, each handle fits once
    fits = {}
    for cls in (cl.ContinuationHandle, cl.LaplaceStageHandle):
        def counting(self, growth=cls.growth):
            fits[self] = fits.get(self, 0) + 1
            return growth(self)
        monkeypatch.setattr(cls, "growth", counting)
    S = cl.multisum(None, euler_op, 0.0)
    for z in (0.1, 0.05, 0.3, 0.2 + 0.05j, 0.15 - 0.05j, 0.02):
        S(SectorPoint.from_complex(z))
    handles = [h for sec in S.sections for h in sec.handles]
    assert len(handles) == 9
    assert fits == {h: 1 for h in handles}
    assert all(h.fit is h.fit for h in handles)


def test_classical_stokes_constant_near_pi(stokes_pair):
    plus, minus = stokes_pair[:2]
    z = SectorPoint.from_polar(0.2, math.pi)
    J = plus(z) - minus(z)
    assert abs(abs(J * cmath.exp(-1.0 / z.to_complex())) - 2 * math.pi) < 1e-11


@pytest.fixture(scope="module")
def euler_ode_sum():
    """The Euler sum on the ray pi + pi/24 (rtol 1e-10) after one value,
    built while keeping the ray points at which the stage tables sample
    each handle."""
    euler = LinearOperator("differential", "delta",
                           (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                           None, PowerSeries([0.0, 1.0]))
    samples = {}
    batched = cl._batched_ray_laplace

    def recording_batched(handle, d, xs):
        many = handle.eval_ray_many

        def recording(pts):
            samples.setdefault(handle, []).append(np.array(pts))
            return many(pts)

        handle.eval_ray_many = recording
        try:
            return batched(handle, d, xs)
        finally:
            del handle.eval_ray_many

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cl, "_batched_ray_laplace", recording_batched)
        S = cl.multisum(None, euler, math.pi + math.pi / 24.0, rtol=1e-10)
        S(SectorPoint.from_polar(0.2, math.pi))
    return S, samples


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


def test_scalar_and_array_step_values_agree_to_2_ulp_of_the_largest_term(euler_ode_sum):
    # eval_ray's plain-Python Horner and eval_ray_many's array Horner on the
    # same Taylor step: real and imaginary parts within 2 ulp of the largest
    # term, at every table sample point in the continued range and at every
    # step's centre and the two ends of the range it serves
    _, samples = euler_ode_sum
    assert len(samples) == 6
    for h, pts in samples.items():
        steps = h._steps
        los, cs, hs = steps.grid
        assert len(cs) >= 5
        table = np.concatenate(pts)
        table = table[table >= h._x0]
        assert len(table) > 100
        xs = np.concatenate([table, los, cs, cs + 0.5 * hs])
        many = h._segment_values(xs)
        for x, y in zip(xs, many):
            i = np.searchsorted(los, x, side="right") - 1
            t = (x - cs[i]) / hs[i]
            row = np.array(steps.rows[i])
            largest = np.max(np.abs(row) * abs(t) ** np.arange(len(row) - 1, -1, -1))
            diff = h._stepped_value(float(x)) - y
            assert abs(diff.real) <= 2 * np.spacing(largest)
            assert abs(diff.imag) <= 2 * np.spacing(largest)


def test_series_samples_of_a_stage_table_keep_the_terms_above_2_to_the_minus_60(
        euler_ode_sum):
    # inside 0.8 of the radius eval_ray_many sums the Borel series by the
    # octave rule of PowerSeries.eval_many: real and imaginary parts within
    # 2 ulp of the largest term of the full polyval at every point a stage
    # table samples there
    _, samples = euler_ode_sum
    handles = [h for h in samples if isinstance(h, cl.ContinuationHandle)]
    assert handles
    for h in handles:
        xs = np.concatenate(samples[h])
        xs = xs[xs <= h._series_limit]
        assert len(xs) > 100
        t = xs * cmath.exp(1j * h.direction)
        c = h.series.coefficients
        full = np.polynomial.polynomial.polyval(t, c)
        largest = np.max(np.abs(c) * xs[:, None] ** np.arange(len(c)), axis=1)
        diff = h.eval_ray_many(xs) - full
        assert np.all(np.abs(diff.real) <= 2 * np.spacing(largest))
        assert np.all(np.abs(diff.imag) <= 2 * np.spacing(largest))


@pytest.mark.parametrize("d", [0.0, 0.7])
def test_taylor_steps_reproduce_closed_forms(d):
    # (1 + zeta) delta f + zeta f = 0 is solved by 1/(1 + zeta) and
    # (1 + zeta) delta f = zeta by log(1 + zeta), the Euler Borel transform:
    # one step's recurrence gives their Taylor coefficients in
    # t = (x - c)/h, (-s)^n/(1 + w)^(n+1) and (-1)^(n+1) (s/(1 + w))^n/n for
    # w = c e^{id}, s = h e^{id}, and its end vector their values at c + h;
    # the steps from x0 = 0.5 out to 40 keep the values within 4e-15
    zeta = Polynomial([0.0, 1.0])
    cases = [(LinearOperator("differential", "delta", (zeta, Polynomial([1.0, 1.0]))),
              PowerSeries((-1.0) ** np.arange(60)),
              lambda n, w, s: (-s) ** n / (1 + w) ** (n + 1) if n else 1 / (1 + w)),
             (LinearOperator("differential", "delta", (Polynomial([]), Polynomial([1.0, 1.0])),
                             None, PowerSeries([0.0, 1.0])),
              PowerSeries([0.0] + [(-1.0) ** (n + 1) / n for n in range(1, 60)]),
              lambda n, w, s: (-1) ** (n + 1) * (s / (1 + w)) ** n / n if n
              else cmath.log(1 + w))]
    for op, series, coeff in cases:
        h = cl.ContinuationHandle(series, op, d)
        for c in (0.4, 2.0, 30.0):
            w = c * cmath.exp(1j * d)
            step, (v,) = h._taylor_step(c, (coeff(0, w, 0.0),))
            # R = min(c, |w + 1|): h = R/3 keeps the terms below 3^-n
            assert step == pytest.approx(min(c, abs(w + 1)) / 3, rel=1e-15)
            s = step * cmath.exp(1j * d)
            exact = np.array([coeff(n, w, s) for n in range(len(v))])
            assert np.all(np.abs(np.array(v) - exact) <= 1e-15 * abs(exact[0] or exact[1]))
            end = coeff(0, w + s, 0.0)
            assert abs(sum(reversed(v)) - end) <= 1e-15 * abs(end)
        steps = h.ensure(40.0)
        xs = np.geomspace(h._x0, steps.cs[-1] + 0.5 * steps.hs[-1], 400)
        exact = np.array([coeff(0, x * cmath.exp(1j * d), 0.0) for x in xs])
        assert np.max(np.abs(h._segment_values(xs) - exact) / np.abs(exact)) < 4e-15


def test_taylor_step_refuses_a_tail_it_cannot_bound(euler_op, monkeypatch):
    # with 12 terms a step cannot bound its tail by 2^-56 of its largest
    # term: it raises, naming the ray, the step's start and R, and the sum
    # passes the refusal on
    sec = cl.summation_chain(euler_op).sections[0]
    h = cl.ContinuationHandle(sec.g1, sec.stage_ops[0], 0.0)
    monkeypatch.setattr(cl, "_TAYLOR_TERMS", 12)
    # the Borel singularity lies on the opposite ray, so R is the distance to 0
    with pytest.raises(ValidationError, match=rf"arg=0\.0 at x={h._x0:.6g} "
                                              rf"\(distance R = {h._x0:.4g} "):
        h.eval_ray(1.0)
    with pytest.raises(ValidationError, match="within 12 terms"):
        cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))


def test_ode_rungs_do_not_depend_on_the_requests_that_built_them(euler_op):
    # a continuation and a stage handle, each built twice and extended once
    # to 40 or by the requests 1.2, 5, 40: the same Taylor steps and the
    # same values, bit for bit
    sec = cl.summation_chain(euler_op).sections[0]

    def continuation():
        return cl.ContinuationHandle(sec.g1, sec.stage_ops[0], 0.0)

    prev = continuation()

    def stage():
        return cl.LaplaceStageHandle(prev, 0.0, sec.stage_ops[1],
                                     asym_seeds=sec.stage_seeds[1])

    for make in (continuation, stage):
        once, stepwise = make(), make()
        steps = once.ensure(40.0)
        for x in (1.2, 5.0, 40.0):
            stepwise.ensure(x)
        assert stepwise._steps.cs == steps.cs
        xs = np.geomspace(steps.cs[0], steps.cs[-1] + 0.5 * steps.hs[-1], 500)
        assert np.array_equal(_bits(stepwise._segment_values(xs)),
                              _bits(once._segment_values(xs)))


def _count_tabulations(monkeypatch):
    """Per stage table built by LaplaceStageHandle._interp: its nodes and
    the previous-stage points its batched Laplace calls sample, keyed by the
    previous stage (each stage has its own)."""
    tables = {}
    batched = cl._batched_ray_laplace

    def counting_table(self):
        tables.setdefault(self.prev, {"nodes": 0, "points": 0})
        return table_fn(self)

    def counting_batched(handle, d, xs):
        table = tables[handle]
        many = handle.eval_ray_many

        def counted(pts):
            table["points"] += len(pts)
            return many(pts)

        handle.eval_ray_many = counted
        try:
            return batched(handle, d, xs)
        finally:
            del handle.eval_ray_many
            table["nodes"] += len(xs)

    table_fn = _replace_table(monkeypatch, counting_table)
    monkeypatch.setattr(cl, "_batched_ray_laplace", counting_batched)
    return tables


def test_batched_laplace_points_per_node_on_positive_axis(euler_op, monkeypatch):
    # the d = 0 Euler tabulations must stay as cheap as the fixed 14-panel,
    # 24-point rule they replace: 14 * 24 + 1 integrand points per node of
    # each table, over all its nested grids
    tables = _count_tabulations(monkeypatch)
    S = cl.multisum(None, euler_op, 0.0)
    S(SectorPoint.from_complex(0.1))
    assert len(tables) == 6
    assert max(t["points"] / t["nodes"] for t in tables.values()) <= 14 * 24 + 1


def test_stage_ode_anchor_matches_direct_for_order_two():
    # the 2F0 operator of acceptance criterion 7: each stage ODE starts from
    # moments t = 0, 1 of the previous stage, so both need their own tolerance
    a1, a2 = 0.3, 0.9
    op = LinearOperator("differential", "delta",
                        (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                         Polynomial([0, 1.0])))
    S = cl.multisum(None, op, 0.0)
    for sec in S.sections:
        for h in sec.handles[1:]:
            x = h._x0 * (1.0 + 5e-5)
            (ref,) = h._direct([x])
            assert abs(h.eval_ray(x) - ref) < 1e-10 * abs(ref)


def test_tabulation_check_failure_raises(euler_op, monkeypatch):
    batched = cl._batched_ray_laplace
    monkeypatch.setattr(cl, "_batched_ray_laplace",
                        lambda *args: batched(*args) * (1.0 + 1e-6))
    with pytest.raises(ValidationError, match="relative error"):
        cl.multisum(None, euler_op, 0.0)


def test_tabulation_check_fails_on_a_non_finite_reference(euler_op, monkeypatch):
    # a NaN reference makes the relative error NaN, which fails the check
    monkeypatch.setattr(cl.LaplaceStageHandle, "_direct",
                        lambda self, xs: np.full(np.shape(xs), complex(np.nan)))
    with pytest.raises(ValidationError, match="relative error nan"):
        cl.multisum(None, euler_op, 0.0)


def _mutate_batched(change):
    """The tabulation's batched values pass through change(values, xs)."""
    def mutate(mp):
        batched = cl._batched_ray_laplace
        mp.setattr(cl, "_batched_ray_laplace",
                   lambda handle, d, xs: change(batched(handle, d, xs), np.asarray(xs)))
    return mutate


def _shifted_nodes(mp):
    """Each table value is tabulated at x (1 + 1e-6) and stored for x."""
    batched = cl._batched_ray_laplace
    mp.setattr(cl, "_batched_ray_laplace",
               lambda handle, d, xs: batched(handle, d, np.asarray(xs) * (1.0 + 1e-6)))


def _stretched_interpolant(mp):
    """The interpolant reads its values as if they sat on the nodes of
    [a, b (1 + 1e-6)]."""
    init = cl._ChebLogInterpolant.__init__
    mp.setattr(cl._ChebLogInterpolant, "__init__",
               lambda self, a, b, values: init(self, a, b * (1.0 + 1e-6), values))


def _noisy_previous_stage(mp):
    """The batched rule reads the previous stage with relative noise 1e-6."""
    batched = cl._batched_ray_laplace

    def noisy(handle, d, xs):
        many = handle.eval_ray_many
        handle.eval_ray_many = lambda pts: many(pts) * (1.0 + 1e-6 * np.sin(1e9 * pts))
        try:
            return batched(handle, d, xs)
        finally:
            del handle.eval_ray_many

    mp.setattr(cl, "_batched_ray_laplace", noisy)


_CHECK = r"disagrees with .* quadrature at x = .*: relative error"
_CHOP = r"does not chop at n = 512"
_BUDGET = r"batched Laplace tabulation .* within 448 panels"


@pytest.mark.parametrize("mutate, d, guard", [
    (_shifted_nodes, 0.0, _CHECK),
    (_stretched_interpolant, 0.0, _CHECK),
    (_mutate_batched(lambda v, xs: v.conj()), math.pi + math.pi / 24, _CHECK),
    (_mutate_batched(lambda v, xs: v * (1.0 + 1e-10 * np.sin(1e12 * xs))), 0.0, _CHOP),
    (_noisy_previous_stage, 0.0, _BUDGET),
], ids=["shifted-nodes", "stretched-interpolant", "conjugated-values", "noisy-values",
        "noisy-previous-stage"])
def test_tabulation_mutations_raise_at_their_guard(euler_op, monkeypatch, mutate, d, guard):
    # a table is built by the batched rule (panel budget), chopped, then
    # checked at three points, so a row caught by the check (the first
    # three: each leaves a smooth, chopping table) passed the other guards
    mutate(monkeypatch)
    with pytest.raises(ValidationError, match=guard):
        cl.multisum(None, euler_op, d)


def test_tabulation_panel_budget_raises(euler_op, monkeypatch):
    # the d = 0 Euler tabulation bisects one of its 14 starting panels
    monkeypatch.setattr(cl, "_GK_MAX_PANELS", 14)
    with pytest.raises(ValidationError, match="14 panels"):
        cl.multisum(None, euler_op, 0.0)


def test_moment_panel_budget_raises(monkeypatch):
    # near the sector edge the kernel e^(-sA) oscillates: the moments bisect
    # past 14 panels and raise instead of falling back to scalar quadrature
    monkeypatch.setattr(cl, "_GK_MAX_PANELS", 14)
    one = cl.FunctionHandle(lambda zeta: 1.0 + 0j, 0.0)
    with pytest.raises(ValidationError, match="Laplace moments .* 14 panels"):
        cl._moment_values(one, 0.0, SectorPoint.from_polar(1.0, 1.5), 1)


def test_reference_quadrature_only_checks_the_tabulations(euler_op, monkeypatch):
    # anchor moments and final-level values run the batched rule; the
    # reference rule runs once per stage tabulation, on its three check
    # points, and from nowhere but the check
    calls, depth = [], [0]
    reference_fn, direct_fn = cl._reference_laplace, cl.LaplaceStageHandle._direct

    def counting_reference(handle, d, ws):
        calls.append((len(ws), depth[0]))      # points, open _direct calls
        return reference_fn(handle, d, ws)

    def direct(self, xs):
        depth[0] += 1
        try:
            return direct_fn(self, xs)
        finally:
            depth[0] -= 1

    tables = _count_tabulations(monkeypatch)
    monkeypatch.setattr(cl, "_reference_laplace", counting_reference)
    monkeypatch.setattr(cl.LaplaceStageHandle, "_direct", direct)
    S = cl.multisum(None, euler_op, 0.0)
    for z in (0.1, 0.05, 0.3, 0.2 + 0.05j, 0.15 - 0.05j):
        S(SectorPoint.from_complex(z))
    assert len(tables) == 6
    assert calls == [(3, 1)] * len(tables)


@settings(max_examples=40, deadline=None)
@given(st.floats(math.log(0.1), math.log(10.0)),
       st.floats(-math.pi / 2 + 0.02, math.pi / 2 - 0.02))
def test_batched_moments_of_one(log_modulus, arg):
    # I_t = int_0^inf s^t e^(-s A) ds = t!/A^(t+1), and N_t = A I_t at d = 0.
    # Sampling on the real s-axis cancels int |s^t e^(-s A)| ds / |I_t| =
    # (|A|/Re A)^(t+1) = kappa_t, so double precision cannot beat eps kappa_t
    # (kappa_4 = 3e8 at |arg A| = pi/2 - 0.02); measured worst 7e-15 kappa_t
    A = cmath.rect(math.exp(log_modulus), arg)
    one = cl.FunctionHandle(lambda zeta: 1.0 + 0j, 0.0)
    N = cl._moment_values(one, 0.0, SectorPoint.from_complex(1.0 / A), 5)
    for t in range(5):
        ref = math.factorial(t) / A**t
        kappa = (abs(A) / A.real) ** (t + 1)
        assert abs(N[t] - ref) <= 1e-13 * kappa * abs(ref)
