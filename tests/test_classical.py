import cmath
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from qborel import classical as cl
from qborel.errors import (
    ArgumentError,
    DomainError,
    GrowthError,
    RangeError,
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
    reweight_recurrence,
    section_recurrence,
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
    ts = [0.5, 2.0, 10.0]
    for t, value in zip(ts, h.eval_ray_many(ts)):
        assert value == pytest.approx(math.log(1.0 + t), rel=1e-9)


def test_borel_continuation_singular_ray(euler_op):
    with pytest.raises(SingularDirectionError):
        _euler_borel_handle(euler_op, math.pi)


def test_polynomial_handle_is_exact():
    poly = PowerSeries([1.0, 2.0, 0.5])
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, 0.0, 0.0, -2.0 - 0.0j]),
                         Polynomial([1.0])))  # any op with nonzero lead; unused
    handle = cl.FunctionHandle(lambda zeta: poly.eval(zeta), 0.0)
    xs = [0.1, 3.0, 20.0]
    for x, value in zip(xs, handle.eval_ray_many(xs)):
        assert value == pytest.approx(poly.eval(x), rel=1e-14)


def test_laplace_of_constants_and_moments():
    one = cl.FunctionHandle(lambda z: 1.0 + 0j, 0.0)
    z = SectorPoint.from_complex(0.3)
    assert cl.laplace_along_ray(one, 0.0, z) == pytest.approx(1.0, rel=1e-12)
    ident = cl.FunctionHandle(lambda zeta: zeta, 0.0)
    assert cl.laplace_along_ray(ident, 0.0, z) == pytest.approx(0.3, rel=1e-11)


def test_laplace_euler_value(euler_op):
    h = _euler_borel_handle(euler_op, 0.0)
    z = SectorPoint.from_complex(0.1)
    got = cl.laplace_along_ray(h, 0.0, z)
    # independent oracle: integrating log(1+zeta) against the kernel by parts
    # gives int_0^inf e^(-t/z)/(1+t) dt
    oracle, _ = quad(lambda t: math.exp(-t / 0.1) / (1.0 + t), 0, 60,
                     epsabs=1e-14, epsrel=1e-13, limit=300)
    assert got == pytest.approx(oracle, rel=1e-9)
    assert oracle == pytest.approx(0.0915633, abs=2e-7)


def test_laplace_domain_errors():
    one = cl.FunctionHandle(lambda z: 1.0 + 0j, 0.0)
    with pytest.raises(DomainError):
        cl.laplace_along_ray(one, 0.0, SectorPoint.from_polar(0.3, 2.5))
    grower = cl.FunctionHandle(lambda z: cmath.exp(3.0 * z), 0.0)
    with pytest.raises(DomainError, match="integrand does not decay"):
        cl.laplace_along_ray(grower, 0.0, SectorPoint.from_complex(0.5))


def test_laplace_refuses_an_integrand_that_grows_along_the_ray():
    # |f| = e^(20 x): at z = 0.1 the integrand e^(20 s) e^(-10 s) grows at
    # each of the truncation's three extensions
    understated = cl.FunctionHandle(lambda zeta: cmath.exp(20.0 * zeta), 0.0)
    with pytest.raises(DomainError, match="integrand does not decay along the ray"):
        cl.laplace_along_ray(understated, 0.0, SectorPoint.from_complex(0.1))


def test_laplace_positivity():
    h = cl.FunctionHandle(lambda zeta: 1.0 / (1.0 + zeta), 0.0)
    z = SectorPoint.from_complex(0.25)
    val = cl.laplace_along_ray(h, 0.0, z)
    assert val.real > 0
    assert abs(val.imag) < 1e-12 * abs(val)


def test_laplace_along_ray_samples_each_node_once(euler_op):
    # one reference rule per value: the truncation's 12-point peak scan,
    # whose last node is 42/Re A, then one probe per 1.5x extension, then
    # each round samples its new G7/K15 panels by one eval_ray_many, and no
    # node is sampled twice; the value matches scipy's QUADPACK
    h = _euler_borel_handle(euler_op, 0.3)
    calls, many = [], h.eval_ray_many

    def recording(xs):
        calls.append(np.array(xs, dtype=float))
        return many(xs)

    h.eval_ray_many = recording
    z = SectorPoint.from_polar(0.1, 0.4)
    got = cl.laplace_along_ray(h, 0.3, z)
    del h.eval_ray_many
    A, S, _ = cl._laplace_truncation(h, 0.3, z)
    scan, probes = calls[0], [c for c in calls[1:] if len(c) == 1]
    assert len(scan) == 12 and scan[-1] == 42.0 / A.real
    reach = scan[-1]
    for probe in probes:
        reach *= 1.5
        assert probe.tolist() == [reach]
    assert reach == S
    rounds = calls[1 + len(probes):]
    assert len(rounds) > 1 and all(len(r) % 15 == 0 for r in rounds)
    nodes = np.concatenate(rounds)
    assert len(np.unique(nodes)) == len(nodes)
    ref, _ = quad(lambda s: complex(h.eval_ray_many([s])[0]) * cmath.exp(-s * A), 0.0, S,
                  epsabs=0.0, epsrel=1e-13, limit=200, complex_func=True)
    assert abs(got - A * ref) <= 1e-12 * abs(A * ref)


def test_laplace_along_ray_raises_on_a_non_finite_sample():
    # the NaN lies between the truncation's peak-scan nodes (S = 4.2, nodes
    # every 0.35) and inside the first G7/K15 panel [0, 0.525]
    hole = cl.FunctionHandle(
        lambda zeta: complex(math.nan) if 0.41 < zeta.real < 0.47 else 1.0 + 0j, 0.0)
    with pytest.raises(ValidationError, match="non-finite integrand value"):
        cl.laplace_along_ray(hole, 0.0, SectorPoint.from_complex(0.1))


def test_laplace_along_ray_panel_budget_raises(monkeypatch):
    # 1/(1 + zeta) on the ray pi + 0.02 passes 0.02 from its pole: the rule
    # bisects some of its 17 starting panels, and with no room to do so it
    # raises
    d = math.pi + 0.02
    near_pole = cl.FunctionHandle(lambda zeta: 1.0 / (1.0 + zeta), d)
    z = SectorPoint.from_polar(0.5, d)
    value = cl.laplace_along_ray(near_pole, d, z)
    monkeypatch.setattr(cl, "_REF_MAX_PANELS", 8)
    with pytest.raises(ValidationError, match="reference Laplace quadrature .* within 8 panels"):
        cl.laplace_along_ray(near_pole, d, z)
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
    lhs = cl.laplace_along_ray(dg, 0.0, z)
    rhs = _fd_delta(lambda w: cl.laplace_along_ray(g, 0.0, w), z)
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_laplace_multiplication_identity():
    c = _random_poly(6)
    g = _poly_handle(c)
    dg = _poly_handle(_delta_series(c))
    zg = _poly_handle(np.concatenate([[0.0], c]))
    z = SectorPoint.from_complex(0.21)
    zc = z.to_complex()
    lhs = zc * cl.laplace_along_ray(dg, 0.0, z)
    rhs = cl.laplace_along_ray(zg, 0.0, z) - zc * cl.laplace_along_ray(g, 0.0, z)
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


def test_convergent_sum_refuses_a_point_its_series_does_not_reach():
    # (1 - z) delta y + y = z: a_n = 1/(n (n + 1)), radius 1, but its 240
    # terms give the radius estimate 1.046.  From z = 0.99 on, the last
    # terms are not below 1e-12 of the value (at z = 1.02 the partial sum
    # 1.256 leaves a residual of 0.38), and the point raises
    op = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([1.0, -1.0])),
                        None, PowerSeries([0.0, 1.0]))
    S = cl.multisum(None, op, 0.0)
    for x in (0.5, 0.9):
        assert S(SectorPoint.from_complex(x)) == pytest.approx(
            1.0 + (1.0 - x) * math.log1p(-x) / x, rel=1e-13)
    for x in (0.99, 1.02, 1.04):
        with pytest.raises(DomainError, match="beyond the reach of the 240-term series"):
            S(SectorPoint.from_complex(x))


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
    # g_1 of section l, seeds and solved terms alike: a_{l + n beta} /
    # prod_i W_i(n), W_i(n) = Gamma(1 + n m_i) for Euler and
    # [n m_i]_{q^kt_i}! for q-Euler at q = 1.05; a_n from the linear
    # recurrence solve
    q = 1.05
    op = euler_op if weight == "gamma" else make_q_euler(q)
    ladder = cl.build_ladder(newton_polygon(euler_op), [0, 1, 1])
    assert ladder.beta == 3 and ladder.levels == 3
    m = [int(1 / lam) for lam in ladder.w_orders()]
    sections = cl._build_sections(op, ladder, order=60, weight=weight)
    assert [sec.l for sec in sections] == [0, 1, 2]
    for sec in sections:
        assert sec.levels == 3
        a = solve_series(op, 3 * 12 + 3).coefficients
        for n, got in enumerate(sec.g1.coefficients[:12]):
            if weight == "gamma":
                w = math.prod(math.gamma(1.0 + n * mi) for mi in m)
            else:
                w = math.prod(q_factorial(n * mi, q ** float(kt))
                              for mi, kt in zip(m, ladder.kappa_tilde))
            want = a[sec.l + n * ladder.beta] / w
            assert abs(got - want) <= 1e-12 * abs(want), (sec.l, n)


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


_coefficient = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["differential", "q_difference"]), q=st.floats(1.05, 2.0),
       lower=st.lists(st.tuples(_coefficient, _coefficient), min_size=1, max_size=3),
       lead=st.floats(0.1, 2.0), lead_phase=st.floats(-math.pi, math.pi))
def test_stages_above_g1_have_no_nonzero_leading_root(kind, q, lower, lead, lead_phase):
    # a span-1 operator (coefficients of z-degree <= 1) is divergent only
    # with leading coefficient c z.  Rebuilt from the top down, every stage
    # recurrence of a section above g_1 then has a leading coefficient c z^k:
    # only the last reweighting balances the degrees of A_0 and A_1.  So
    # the stages add no singular direction, and a section keeps g_1's
    # operator alone
    coeffs = tuple(Polynomial([complex(*c)]) for c in lower)
    coeffs += (Polynomial([0.0, cmath.rect(lead, lead_phase)]),)
    if kind == "differential":
        op, weight = LinearOperator(kind, "delta", coeffs), "gamma"
    else:
        op, weight = LinearOperator(kind, "delta_q", coeffs, q).to_sigma_basis(), "qfact"
    assume(not newton_polygon(op).is_convergent_only())
    ladder = cl._summation_ladder(op)
    for l in range(ladder.beta):
        rec = section_recurrence(Recurrence.from_operator(op), ladder.beta, l)
        for lam in reversed(ladder.w_orders()[1:]):
            rec = reweight_recurrence(rec, lam, weight)
            assert len(rec.to_operator().coefficients[-1].nonzero_roots()) == 0


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
# classical levels on the log grid (trapezoid sums, checked, no fallback)


EULER = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                       None, PowerSeries([0.0, 1.0]))


def _first_level(sec, h, ts):
    """The first level of a classical section at the nodes ts of step h, as
    a one-level grid built over them holds it (_LogGrid._grow, correlated
    in blocks aligned to t, checked as it is built)."""
    grid = cl._LaplaceGrid(sec.cont, h, 1)
    lo = int(min(ts))
    return grid, grid._nodes(lo, int(max(ts)))[np.asarray(ts) - lo]


@pytest.fixture(scope="module")
def stokes_pair():
    """Euler sums on the rays pi +/- pi/24 after their value at
    z = 0.2 e^(i pi), built while counting each grid's builds and the points
    of its reference checks (keyed by the g_1 handle the check reads)."""
    built, checked = {}, {}
    grow, reference = cl._LaplaceGrid._ensure_grid_locked, cl._reference_laplace

    def counting_grow(self, lo, hi):
        built[self] = built.get(self, 0) + 1
        return grow(self, lo, hi)

    def counting_reference(handle, d, ws):
        checked.setdefault(handle, []).append(len(ws))
        return reference(handle, d, ws)

    offset = math.pi / 24.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cl._LaplaceGrid, "_ensure_grid_locked", counting_grow)
        mp.setattr(cl, "_reference_laplace", counting_reference)
        plus = cl.multisum(None, EULER, math.pi + offset)
        minus = cl.multisum(None, EULER, math.pi - offset)
        for S in (plus, minus):
            S(SectorPoint.from_polar(0.2, math.pi))
    return plus, minus, built, checked


def test_batched_laplace_matches_adaptive_quadrature_near_stokes_ray(stokes_pair):
    # the first level of each section of the sum on pi + pi/24, a trapezoid
    # sum at step 1/32 as a grid builds it, against the adaptive reference
    # rule; at the nodes x = e^(4j), where the sum's own three-level grids
    # keep their first level for its checks, it is the same, bit for bit
    plus = stokes_pair[0]
    h = 1.0 / 32.0
    ts = np.round(np.log([1e-3, 1e-2, 0.1]) / h).astype(int)
    for sec in plus.sections:
        grid, values = _first_level(sec, h, ts)
        for t, got in zip(ts, values):
            x = float(cl._ray_nodes(h, t, t)[0])
            ref = cl.laplace_along_ray(sec.cont, sec.d_w, SectorPoint.from_polar(x, sec.d_w))
            assert abs(got - ref) < 1e-11 * abs(ref)
        j0, built = sec._grids[h]._grid[3][0].lattice      # at x = e^(4j), t = 128 j
        t = 128 * np.arange(j0, j0 + len(built))
        assert len(t) > 10
        assert np.array_equal(grid._nodes(t[0], t[-1])[t - t[0]], built)


def test_tabulation_makes_only_its_three_check_quadratures(stokes_pair):
    # one grid per section (step 1/32 at z = -0.2), built once, and three
    # reference checks per grid, one for each of the nodes e^-12, e^-8 and
    # e^-4 (x = e^(4j), the highest at most e^2 |w|, |w| = 0.008)
    plus, minus, built, checked = stokes_pair
    grids = [g for S in (plus, minus) for sec in S.sections for g in sec._grids.values()]
    assert len(grids) == 6 and all(g.h == 1.0 / 32.0 for g in grids)
    assert built == {g: 1 for g in grids}
    assert checked == {g.cont: [1, 1, 1] for g in grids}
    assert all(sorted(g._refs) == [-3, -2, -1] for g in grids)


@pytest.fixture(scope="module")
def euler_sections(stokes_pair):
    """Every section of the Euler sums at d = 0 and at pi +/- pi/24."""
    return [sec for S in (cl.multisum(None, EULER, 0.0), *stokes_pair[:2]) for sec in S.sections]


def test_stage_tables_match_direct_quadrature_across_their_span(euler_sections):
    # the first level, as a grid builds it, at 12 nodes spread over x in
    # [1e-4, 1], against the reference rule
    assert len(euler_sections) == 9
    h = 1.0 / 32.0
    ts = np.round(np.linspace(math.log(1e-4), 0.0, 12) / h).astype(int)
    for sec in euler_sections:
        for t, got in zip(ts, _first_level(sec, h, ts)[1]):
            x = float(cl._ray_nodes(h, t, t)[0])
            ref = cl.laplace_along_ray(sec.cont, sec.d_w, SectorPoint.from_polar(x, sec.d_w))
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_classical_stokes_constant_near_pi(stokes_pair):
    plus, minus = stokes_pair[:2]
    z = SectorPoint.from_polar(0.2, math.pi)
    J = plus(z) - minus(z)
    assert abs(abs(J * cmath.exp(-1.0 / z.to_complex())) - 2 * math.pi) < 1e-11


@pytest.fixture(scope="module")
def euler_ode_sum():
    """The Euler sum on the ray pi + pi/24 after one value,
    built while keeping the ray points at which its grids sample each g_1."""
    samples = {}
    sample = cl._LaplaceGrid._samples

    def recording(self, lo, hi):
        samples.setdefault(self.cont, []).append(cl._ray_nodes(self.h, lo, hi))
        return sample(self, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cl._LaplaceGrid, "_samples", recording)
        S = cl.multisum(None, EULER, math.pi + math.pi / 24.0)
        S(SectorPoint.from_polar(0.2, math.pi))
    return S, samples


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


def test_scalar_and_array_step_values_agree_to_2_ulp_of_the_largest_term(euler_ode_sum):
    # a plain-Python Horner on the row of the Taylor step that serves x and
    # _segment_values' array Horner: real and imaginary parts within 2 ulp
    # of the largest term, at every grid node in the continued range and at
    # every step's centre and the two ends of the range it serves
    _, samples = euler_ode_sum
    assert len(samples) == 3
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
            horner = 0j
            for coef in steps.rows[i]:
                horner = horner * float(t) + coef
            diff = horner - y
            assert abs(diff.real) <= 2 * np.spacing(largest)
            assert abs(diff.imag) <= 2 * np.spacing(largest)


def test_series_samples_of_a_stage_table_keep_the_terms_above_2_to_the_minus_60(
        euler_ode_sum):
    # inside 0.8 of the radius eval_ray_many sums the Borel series by the
    # octave rule of PowerSeries.eval_many: real and imaginary parts within
    # 2 ulp of the largest term of the full polyval at every grid node there
    _, samples = euler_ode_sum
    for h, pts in samples.items():
        xs = np.concatenate(pts)
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
    # one step's recurrence from the exact start gives their Taylor
    # coefficients in t = (x - c)/h, every term up to the step's count,
    # (-s)^n/(1 + w)^(n+1) and (-1)^(n+1) (s/(1 + w))^n/n for w = c e^{id},
    # s = h e^{id}; its row keeps the first of them, and its end vector is
    # their value at c + h; the steps from x0 = 0.5 out to 40 keep the
    # values within 4e-15
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
            V = coeff(0, w, 0.0)
            _, _, (step,), (row,), (count,), (last,) = h._taylor_steps(c, (V,), 0.0, c)
            # R = min(c, |w + 1|): h = R/3 keeps the terms below 3^-n
            assert step == pytest.approx(min(c, abs(w + 1)) / 3, rel=1e-15)
            s = step * cmath.exp(1j * d)
            # the step's terms: V times its start column, plus its forcing column
            def shifted(coeffs):
                return cl._shifted(coeffs.tolist(), np.array([w]), np.array([s]))
            F = [] if op.rhs is None else shifted(op.rhs.coefficients)
            T = cl._transfer_terms([shifted(p.coeffs) for p in op.coefficients], F,
                                   np.array([c / step]), 1, count)
            v = V * T[0, 0, :, 0] + (T[0, 1, :, 0] if F else 0.0)
            assert np.array_equal(np.array(row[::-1]), v[:len(row)])
            exact = np.array([coeff(n, w, s) for n in range(count)])
            assert np.all(np.abs(v - exact) <= 1e-15 * abs(exact[0] or exact[1]))
            end = coeff(0, w + s, 0.0)
            assert abs(last - end) <= 1e-15 * abs(end)
        steps = h.ensure(40.0)
        xs = np.geomspace(h._x0, steps.cs[-1] + 0.5 * steps.hs[-1], 400)
        exact = np.array([coeff(0, x * cmath.exp(1j * d), 0.0) for x in xs])
        assert np.max(np.abs(h._segment_values(xs) - exact) / np.abs(exact)) < 4e-15


def test_taylor_step_refuses_a_tail_it_cannot_bound(euler_op, monkeypatch):
    # with 12 terms a step cannot bound its tail by 2^-56 of its largest
    # term: it raises, naming the ray, the step's start and R, and the sum
    # passes the refusal on
    sec = cl.summation_chain(euler_op).sections[0]
    h = cl.ContinuationHandle(sec.g1, sec.op, 0.0)
    monkeypatch.setattr(cl, "_TAYLOR_TERMS", 12)
    # the Borel singularity lies on the opposite ray, so R is the distance to 0
    with pytest.raises(ValidationError, match=rf"arg=0\.0 at x={h._x0:.6g} "
                                              rf"\(distance R = {h._x0:.4g} "):
        h.eval_ray_many([1.0])
    with pytest.raises(ValidationError, match="within 12 terms"):
        cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))


def test_taylor_continuation_that_overflows_raises_a_located_growth_error():
    # y = 1e305 e^zeta solves delta y = zeta y.  With no singular point
    # besides 0 each step has h = c/3, and the first step whose end
    # (4/3) c passes log(DBL_MAX/1e305) overflows: GrowthError names the ray
    # and that step's start, and numpy warns of nothing
    op = LinearOperator("differential", "delta", (Polynomial([0.0, -1.0]), Polynomial([1.0])))
    series = PowerSeries([1e305 / math.factorial(n) for n in range(80)])
    h = cl.ContinuationHandle(series, op, 0.0)
    c = h._x0
    while c + c / 3.0 <= math.log(sys.float_info.max / 1e305):
        c += c / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GrowthError, match=rf"arg=0\.0 overflows in the step from x={c:.6g}$"):
            h.eval_ray_many([3.0, 20.0])


# the 2F0(0.3, 0.9) operator of tests/test_oracles.py
TWO_F_ZERO = LinearOperator("differential", "delta",
                            (Polynomial([0, 0.3 * 0.9]), Polynomial([1.0, 0.3 + 0.9]),
                             Polynomial([0, 1.0])))


def _rung_cases():
    for op, d, x_max in [(EULER, 0.0, 40.0),
                         (EULER, math.pi + math.pi / 24, 6.7e5),
                         (EULER, math.pi - math.pi / 24, 6.7e5),
                         (TWO_F_ZERO, 0.0, 6.7e5)]:
        for sec in cl.summation_chain(op).sum(d).sections:
            yield sec.cont, x_max
    # (1 + zeta) delta f + zeta f = 0, solved by 1/(1 + zeta): one start
    # column of one component
    op = LinearOperator("differential", "delta", (Polynomial([0.0, 1.0]), Polynomial([1.0, 1.0])))
    yield cl.ContinuationHandle(PowerSeries((-1.0) ** np.arange(60)), op, 0.7), 6.7e5


def test_ode_rungs_do_not_depend_on_the_requests_that_built_them(monkeypatch):
    # each continuation, built four times and extended once to x_max, by
    # the requests 1.2, 5, 40, 6.7e5 (each capped at x_max), one step at a
    # time (each request just past the reach of the steps so far), or once
    # from a first recurrence run of 8 terms that must grow: the same
    # Taylor steps, rows, term counts, end vector and values, bit for bit.
    # Each request runs the recurrence of its new steps as one batch, so the
    # batches differ, down to batches of one step
    for h, x_max in _rung_cases():
        once, stepwise, single, grown = (cl.ContinuationHandle(h.series, h.op, h.direction)
                                         for _ in range(4))
        steps = once.ensure(x_max)
        for x in (1.2, 5.0, 40.0, 6.7e5):
            stepwise.ensure(min(x, x_max))
        reach = single._x0
        while len(single.ensure(reach).cs) < len(steps.cs):
            got = single._steps
            reach = np.nextafter(got.cs[-1] + 0.5 * got.hs[-1], math.inf)
            assert len(single.ensure(reach).cs) == len(got.cs) + 1
        with monkeypatch.context() as mp:
            mp.setattr(cl, "_FIRST_TERMS", 8)
            grown.ensure(x_max)
        assert len(steps.cs) > 20
        xs = np.geomspace(steps.cs[0], steps.cs[-1] + 0.5 * steps.hs[-1], 500)
        for other in (stepwise, single, grown):
            got = other._steps
            assert ((got.los, got.cs, got.hs, got.terms)
                    == (steps.los, steps.cs, steps.hs, steps.terms))
            assert all(np.array_equal(_bits(np.array(a)), _bits(np.array(b)))
                       for a, b in zip(got.rows + (got.V,), steps.rows + (steps.V,)))
            assert np.array_equal(_bits(other._segment_values(xs)),
                                  _bits(once._segment_values(xs)))


def test_batched_laplace_points_per_node_on_positive_axis(euler_op, monkeypatch):
    # the d = 0 Euler grids sample g_1 once per node: one eval_ray_many call
    # per build, on as many points as nodes, the window of the last level
    # and the reach of the two kernels below it
    samples, points = [], []
    sample, many = cl._LaplaceGrid._samples, cl.ContinuationHandle.eval_ray_many

    def counting_sample(self, lo, hi):
        before = len(points)
        values = sample(self, lo, hi)
        samples.append((self, hi - lo + 1, points[before:]))
        return values

    monkeypatch.setattr(cl._LaplaceGrid, "_samples", counting_sample)
    monkeypatch.setattr(cl.ContinuationHandle, "eval_ray_many",
                        lambda self, xs: points.append(len(xs)) or many(self, xs))
    S = cl.multisum(None, euler_op, 0.0)
    S(SectorPoint.from_complex(0.1))
    assert len(samples) == 3
    for grid, nodes, calls in samples:
        lo, hi = grid._grid[:2]
        assert calls == [nodes]
        assert nodes == hi - lo + 1 + 2 * (len(grid._kernel[0]) - 1)


def test_a_grid_grown_down_and_up_samples_only_its_new_nodes(euler_op, monkeypatch):
    # after z = 0.1, z = 0.1 e^(-+2) moves w = z^3 6 e-folds down, then up,
    # past the 5 e-fold slack of each section's grid (h = 1/32): each growth
    # samples g_1 at the new nodes below, then above, the old ones alone
    S = cl.multisum(None, euler_op, 0.0)
    S(SectorPoint.from_complex(0.1))
    grids = [g for sec in S.sections for g in sec._grids.values()]
    sampled = []
    sample = cl._LaplaceGrid._samples
    monkeypatch.setattr(cl._LaplaceGrid, "_samples",
                        lambda self, lo, hi: sampled.append((self, lo, hi)) or sample(self, lo, hi))
    for z in (0.1 * math.exp(-2.0), 0.1 * math.exp(2.0)):
        before = {g: g._grid[4][0] for g in grids}
        sampled.clear()
        S(SectorPoint.from_complex(z))
        assert [g for sec in S.sections for g in sec._grids.values()] == grids
        for g, (lo, old) in before.items():
            new_lo, new = g._grid[4][0]
            stretch = (new_lo, lo - 1) if z < 0.1 else (lo + len(old), new_lo + len(new) - 1)
            assert stretch[1] - stretch[0] > 5 * 32
            assert len(new) == len(old) + stretch[1] - stretch[0] + 1
            assert [s[1:] for s in sampled if s[0] is g] == [stretch]


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_grown_classical_grid_equals_a_fresh_build(h, euler_op, monkeypatch):
    # h = 1/64 correlates its levels by FFT blocks (2 705 taps), 1/32 by
    # direct dots.  g_1 sampled 1e-6 high at even nodes and low at odd ones
    # makes the first level's step-2h check fault at some thousand nodes.
    # A grid grown down and then up equals a fresh build over its final
    # range, bit for bit, at every level: values, the faults of every level
    # note and the first level's reference lattice
    sample = cl._LaplaceGrid._samples
    monkeypatch.setattr(cl._LaplaceGrid, "_samples", lambda self, lo, hi: sample(self, lo, hi)
                        * (1.0 + 1e-6 * (-1.0) ** np.arange(lo, hi + 1)))
    sec = cl.multisum(None, euler_op, 0.0).sections[0]
    grown, fresh = (cl._LaplaceGrid(sec.cont, h, sec.levels) for _ in range(2))
    assert grown.levels == 2
    assert (cl._block_size(len(grown._kernel[0])) > 1) == (h < 1 / 32)
    e = round(1 / h)                     # nodes per e-fold
    for lo, hi in [(-8 * e, -6 * e), (-20 * e, -6 * e), (-20 * e, 2 * e)]:
        grown._nodes(lo, hi)
    fresh._nodes(-20 * e, 2 * e)
    a, b = grown._grid, fresh._grid
    assert a[:2] == b[:2]
    for (lo_a, values), (lo_b, built) in zip(a[4], b[4], strict=True):
        assert lo_a == lo_b and np.array_equal(values, built)
    for x, y in zip(a[3], b[3], strict=True):
        assert x[:2] == y[:2]
        assert all(np.array_equal(f, g) for f, g in zip(x.faults, y.faults, strict=True))
    assert len(a[3][0].faults[2]) > 1000
    (j_a, lattice), (j_b, built) = a[3][0].lattice, b[3][0].lattice
    assert j_a == j_b and np.array_equal(lattice, built) and len(lattice) > 15


def test_stage_ode_anchor_matches_direct_for_order_two():
    # the 2F0 operator of acceptance criterion 7: the g_1 of each section
    # steps its order-2 ODE from the vector (f, delta f) that the series
    # gives at the anchor x0; just past x0, and at 0.75 of the radius, where
    # the series still converges, the stepped values match the series
    a1, a2 = 0.3, 0.9
    op = LinearOperator("differential", "delta",
                        (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                         Polynomial([0, 1.0])))
    S = cl.multisum(None, op, 0.0)
    for sec in S.sections:
        h = sec.cont
        assert len(h._V0) == h._m > 1
        for x in (h._x0 * (1.0 + 5e-5), 0.75 * h.radius):
            direct = h.series.eval(x * cmath.exp(1j * h.direction))
            assert abs(h._segment_values(np.array([x]))[0] - direct) < 1e-10 * abs(direct)


def test_tabulation_check_failure_raises(euler_op, monkeypatch):
    # g_1 samples scaled by 1 + 1e-6 pass the level checks (the step-2h sums
    # scale with them) but not the reference rule, which reads g_1 itself
    sample = cl._LaplaceGrid._samples
    monkeypatch.setattr(cl._LaplaceGrid, "_samples",
                        lambda self, lo, hi: sample(self, lo, hi) * (1.0 + 1e-6))
    with pytest.raises(ValidationError, match="reference quadrature .*: relative error"):
        cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))


def test_tabulation_check_fails_on_a_non_finite_reference(euler_op, monkeypatch):
    # a NaN reference makes the relative error NaN, which fails the check
    monkeypatch.setattr(cl, "_reference_laplace",
                        lambda handle, d, ws: np.full(len(ws), complex(np.nan)))
    with pytest.raises(ValidationError, match="relative error nan"):
        cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))


# the node of x = |w| = 1e-3, where the d = 0 sum at z = 0.1 peaks (odd, so
# the step-2h sums do not read it)
_T_PEAK = round(math.log(1e-3) * 32)


def _mutate_samples(change):
    """The grids' samples of g_1 pass through change(values, t), t the nodes'
    indices."""
    def mutate(mp):
        sample = cl._LaplaceGrid._samples
        mp.setattr(cl._LaplaceGrid, "_samples",
                   lambda self, lo, hi: change(sample(self, lo, hi), np.arange(lo, hi + 1)))
    return mutate


def _at_peak(factor):
    def change(values, t):
        values[t == _T_PEAK] *= factor
        return values
    return _mutate_samples(change)


def _shifted_nodes(mp):
    """g_1 is sampled at x (1 + 1e-6) for the node x."""
    mp.setattr(cl._LaplaceGrid, "_samples", lambda self, lo, hi: self.cont.eval_ray_many(
        cl._ray_nodes(self.h, lo, hi) * (1.0 + 1e-6)))


def _scaled_kernel_weight(mp):
    """The largest weight of the level kernel is scaled by 1 + 1e-6."""
    kernel = cl._laplace_kernel

    def scaled(h):
        K, L1 = kernel(h)
        K[np.argmax(K)] *= 1.0 + 1e-6
        return K, L1

    mp.setattr(cl, "_laplace_kernel", scaled)


def _short_upper_cut(mp):
    """The level kernel stops at y = e^2.5 = 12, not at e^4.25."""
    kernel = cl._laplace_kernel

    def short(h):
        K, L1 = kernel(h)
        return K[:L1 + round(2.5 / h) + 1], L1

    mp.setattr(cl, "_laplace_kernel", short)


def _noisy_previous_stage(mp):
    """The reference rule reads g_1 with relative noise 1e-6."""
    reference = cl._reference_laplace

    def noisy(handle, d, ws):
        many = handle.eval_ray_many
        handle.eval_ray_many = lambda pts: many(pts) * (1.0 + 1e-6 * np.sin(1e9 * pts))
        try:
            return reference(handle, d, ws)
        finally:
            del handle.eval_ray_many

    mp.setattr(cl, "_reference_laplace", noisy)


_REF = r"disagrees with its reference quadrature at x = .*: relative error"
_TWO_H = r"disagrees with its step-2h sum at x = .*: relative difference"
_EDGE = r"kernel window too narrow at x = .* \(edge term not negligible\)"
_FINITE = r"classical level 2 along arg = 0 .* is not finite at x = "
_BUDGET = r"reference Laplace quadrature .* within 256 panels"


@pytest.mark.parametrize("mutate, d, guard", [
    (_shifted_nodes, 0.0, _REF),
    (_mutate_samples(lambda v, t: v.conj()), math.pi + math.pi / 24, _REF),
    (_mutate_samples(lambda v, t: v * (1.0 + 1e-6 * np.sin(1e12 * np.exp(t / 32)))), 0.0, _TWO_H),
    (_noisy_previous_stage, 0.0, _BUDGET),
    (_scaled_kernel_weight, 0.0, _TWO_H),
    (_short_upper_cut, 0.0, _EDGE),
    (_at_peak(1.0 + 1e-6), 0.0, _TWO_H),
    (_at_peak(np.nan), 0.0, _FINITE),
], ids=["shifted-nodes", "conjugated-values", "noisy-values", "noisy-previous-stage",
        "scaled-kernel-weight", "short-upper-cut", "perturbed-sample", "nan-node"])
def test_tabulation_mutations_raise_at_their_guard(euler_op, monkeypatch, mutate, d, guard):
    # a point's read raises at the first fault among the level values its
    # window depends on, in this order: not finite, an edge term of a
    # kernel window, the step-2h sum (after the step is halved at least
    # once), then
    # the first level against the reference rule, so a row caught by a
    # later guard passed the earlier ones
    mutate(monkeypatch)
    with pytest.raises((ValidationError, RangeError), match=guard):
        cl.multisum(None, euler_op, d)(SectorPoint.from_polar(0.1, d - (d > 1) * math.pi / 24))


def _outcomes(S, zs):
    """The value at each point z of zs, asked in that order, or the text of
    the error it raises."""
    out = {}
    for z in zs:
        try:
            out[z] = S(SectorPoint.from_complex(z))
        except (ValidationError, RangeError) as exc:
            out[z] = f"{type(exc).__name__}: {exc}"
    return out


def test_a_points_reference_check_does_not_depend_on_the_points_before_it():
    # 5 z delta y + y = z at d = 0 (ROADMAP item 3): z = 0.1 and 0.03 read
    # the same grids (step 1/32; the build for 0.03 covers the window of
    # 0.1), but the first level is off the reference rule by 2.5e-9 at
    # x = e^-8, a reference node of z = 0.1 (e^-16, e^-12, e^-8), and within
    # 1e-9 at those of z = 0.03 (e^-20, e^-16, e^-12): each point keeps its
    # outcome in either order
    op = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, 5.0])),
                        None, PowerSeries([0.0, 1.0]))
    zs = [0.1, 0.03]
    first, second = (_outcomes(cl.summation_chain(op).sum(0.0), order)
                     for order in (zs, zs[::-1]))
    assert first == second
    assert re.fullmatch(r"ValidationError: .*reference quadrature at x = 0\.000335463: "
                        r"relative error 2\.\d\de-09 > 1e-09", first[zs[0]])
    assert isinstance(first[zs[1]], complex)


def test_a_fault_outside_a_points_window_does_not_refuse_it(euler_op, monkeypatch):
    # a NaN sample of g_1 at x = e^8 lies in the build of the d = 0 grids
    # for z = 0.1 (5 e-folds beyond its window), but not among the values
    # its window depends on; the window of z = 0.3 reads level values it
    # makes non-finite.  In either order z = 0.1 gets its value, the same
    # as without the NaN, and z = 0.3 raises
    clean = cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))
    _mutate_samples(lambda v, t: np.where(t == 8 * 32, np.nan, v))(monkeypatch)
    zs = [0.1, 0.3]
    first, second = (_outcomes(cl.multisum(None, euler_op, 0.0), order)
                     for order in (zs, zs[::-1]))
    assert first == second
    assert first[0.1] == clean
    assert re.fullmatch(r"ValidationError: classical level 2 along arg = 0 \(h = 2\^-5\) is "
                        r"not finite at x = .*", first[0.3])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_window_of_a_growing_g1_refines_its_step(p, monkeypatch):
    # g_1 = s^p on one level along d = 0: the window sum at w = 1/A is
    # p!/A^p.  Near the sector edge the growth narrows the strip that sets
    # the step, and the window's step-2h check fails at the rule's step at
    # some of these 200 points; the halved step sums every point to
    # 1e-13 kappa, kappa = (|A|/Re A)^(p+1) the condition of the integral
    reads, read = [], cl._LaplaceGrid.read
    monkeypatch.setattr(cl._LaplaceGrid, "read", lambda self, *a: reads.append(self.h)
                        or read(self, *a))
    op = LinearOperator("differential", "delta", (Polynomial([-float(p)]), Polynomial([1.0])))
    sec = cl._LaplaceSection(cl.SectionPipeline(0, 1, op, PowerSeries([0.0] * p + [1.0])), 0.0)
    rng = np.random.default_rng(1)
    mods = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 200))
    args = rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, 200)
    for A in mods * np.exp(1j * args):
        kappa = (abs(A) / A.real) ** (p + 1)
        exact = math.factorial(p) / A**p
        assert abs(sec.value(SectorPoint.from_complex(1.0 / A)) - exact) <= 1e-13 * kappa * abs(exact)
    assert len(reads) > 200


@pytest.mark.parametrize("gamma, p, z", [(7, 1, 0.1), (1, 4, 0.2 * cmath.exp(0.3j))])
def test_a_halving_that_does_not_help_ends_the_refinements(gamma, p, z):
    # gamma z delta y + y = z^p at d = 0 (ROADMAP item 3): the first level
    # is off its step-2h sum by about 1.1e-9 at both the rule's step and
    # its half, where a step error would fall like e^(-2 pi a/h); the sum
    # refuses after 2 grids, not 3, and names the second disagreement
    op = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, gamma])),
                        None, PowerSeries([0.0] * p + [1.0]))
    S = cl.summation_chain(op).sum(0.0)
    with pytest.raises(ValidationError) as info:
        S(SectorPoint.from_complex(z))
    sec = S.sections[0]
    assert len(sec._grids) == 2
    h = min(sec._grids)
    assert re.fullmatch(rf"classical level 2 along arg = 0 \(h = 2\^{math.log2(h):.0f}\) {_TWO_H} "
                        r"1\.\d\de-09 > 1e-09; halving cut it under 10-fold", str(info.value))


def test_a_disagreement_that_moves_to_another_level_keeps_refining(euler_op, monkeypatch):
    # the tenfold-gain test compares a level with itself: a first grid that
    # reads a fault of level 2 and a second one that reads a barely smaller
    # fault of level 3 still halve the step, and the third grid's clean read
    # sums the point
    z = SectorPoint.from_complex(0.3 * cmath.exp(0.2j))
    want = cl.summation_chain(euler_op).sum(0.0)(z)
    faults = [(2, 2.0, "level 2 fault"), (3, 1.9, "level 3 fault")]
    read = cl._LaplaceGrid.read
    monkeypatch.setattr(cl._LaplaceGrid, "read", lambda self, *a: (None, faults.pop(0))
                        if faults else read(self, *a))
    S = cl.summation_chain(euler_op).sum(0.0)
    assert S(z) == pytest.approx(want, rel=1e-12)
    assert len(S.sections[0]._grids) == 3


def test_tabulation_panel_budget_raises(euler_op, monkeypatch):
    # the first-level check of the d = 0 Euler sum bisects some of the
    # reference rule's 17 starting panels
    monkeypatch.setattr(cl, "_REF_MAX_PANELS", 17)
    with pytest.raises(ValidationError, match="within 17 panels"):
        cl.multisum(None, euler_op, 0.0)(SectorPoint.from_complex(0.1))


def test_moment_panel_budget_raises(monkeypatch):
    # near the sector edge the kernel e^(-sA) oscillates: the reference rule
    # bisects past its 17 starting panels and raises instead of falling back
    # to another rule
    monkeypatch.setattr(cl, "_REF_MAX_PANELS", 17)
    one = cl.FunctionHandle(lambda zeta: 1.0 + 0j, 0.0)
    with pytest.raises(ValidationError, match="reference Laplace quadrature .* 17 panels"):
        cl.laplace_along_ray(one, 0.0, SectorPoint.from_polar(1.0, 1.5))


def test_reference_quadrature_only_checks_the_tabulations(euler_op, monkeypatch):
    # final values are window sums on the grids; the reference rule runs
    # from nowhere but the first-level check, once for each node x = e^(4j)
    # among the three of some point, the highest at most e^2 |w| (log |w| =
    # 3 log |z| from -8.99 to -3.61 here: j = -4..-1), one node a call
    calls, depth = [], [0]
    reference, check = cl._reference_laplace, cl._LaplaceGrid._reference

    def counting_reference(handle, d, ws):
        calls.append((handle, round(math.log(ws[0].modulus) / 4), len(ws), depth[0]))
        return reference(handle, d, ws)

    def counting_check(self, *args):
        depth[0] += 1
        try:
            return check(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cl, "_reference_laplace", counting_reference)
    monkeypatch.setattr(cl._LaplaceGrid, "_reference", counting_check)
    S = cl.multisum(None, euler_op, 0.0)
    for z in (0.1, 0.05, 0.3, 0.2 + 0.05j, 0.15 - 0.05j):
        S(SectorPoint.from_complex(z))
    grids = [g for sec in S.sections for g in sec._grids.values()]
    assert len(grids) == 3
    assert sorted(calls, key=lambda c: (id(c[0]), c[1])) == sorted(
        ((g.cont, j, 1, 1) for g in grids for j in range(-4, 0)),
        key=lambda c: (id(c[0]), c[1]))


@settings(max_examples=40, deadline=None)
@given(st.floats(math.log(0.1), math.log(10.0)),
       st.floats(-math.pi / 2 + 0.02, math.pi / 2 - 0.02))
def test_batched_moments_of_one(log_modulus, arg):
    # the final window of a section whose g_1 is 1 gives N_0 = A I_0 = 1,
    # I_0 = int_0^inf e^(-s A) ds, at d = 0 and w = 1/A.  Sampling on the
    # real s-axis cancels int |e^(-s A)| ds / |I_0| = |A|/Re A = kappa_0, so
    # double precision cannot beat eps kappa_0 (kappa_0 = 50 at |arg A| =
    # pi/2 - 0.02)
    A = cmath.rect(math.exp(log_modulus), arg)
    delta = LinearOperator("differential", "delta", (Polynomial([0.0]), Polynomial([1.0])))
    one = cl.SectionPipeline(0, 1, delta, PowerSeries([1.0]))
    value = cl._LaplaceSection(one, 0.0).value(SectorPoint.from_complex(1.0 / A))
    assert abs(value - 1.0) <= 1e-13 * abs(A) / A.real
