import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qborel.errors import (
    ArgumentError,
    ParseError,
    ResonanceError,
    UnsupportedError,
    ValidationError,
)
from qborel.operators import (
    LinearOperator,
    Recurrence,
    apply_operator,
    borel_plane_operator,
    characteristic_polynomial,
    newton_polygon,
    parse_operator,
    residual,
    reweight_recurrence,
    section_recurrence,
    serialize_operator,
    solve_series,
)
from qborel.series import Polynomial, PowerSeries, q_bracket, q_factorial, ramify

from conftest import make_q_euler

rng = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# documents


def test_parse_round_trip_bit_exact(euler_op, q_euler_op):
    for op in (euler_op, q_euler_op):
        text = serialize_operator(op)
        again = serialize_operator(parse_operator(text))
        assert text == again


def test_parse_example41(example41_op):
    text = serialize_operator(example41_op)
    op = parse_operator(text)
    assert op.order == 3


def test_parse_missing_q_is_error():
    doc = {"kind": "q_difference", "basis": "delta_q",
           "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(ParseError):
        parse_operator(doc)


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ValidationError):
        LinearOperator("differential", "delta", (Polynomial([1]), Polynomial([])))


def test_parse_error_carries_path():
    with pytest.raises(ParseError) as err:
        parse_operator({"kind": "differential", "basis": "delta",
                        "coefficients": [[["x", 0.0]]]})
    assert "coefficients[0][0]" in str(err.value)


# ---------------------------------------------------------------------------
# Newton polygons


def test_polygon_example41(example41_op):
    polygon = newton_polygon(example41_op)
    assert [(s, m) for s, m in polygon.slopes] == [
        (Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)]
    assert (1, Fraction(0)) in polygon.vertices
    assert (2, Fraction(1)) in polygon.vertices
    assert (3, Fraction(3)) in polygon.vertices
    assert polygon.positive_slopes() == (Fraction(1), Fraction(2))


def test_polygon_sigma_minus_constant():
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([-2.0]), Polynomial([1.0])), 2.0)
    polygon = newton_polygon(op)
    assert polygon.slopes == ((Fraction(0), 1),)


def test_polygon_z_delta_q_as_sigma():
    # z delta_q + 1 = (z/(q-1)) sigma_q + (1 - z/(q-1))
    q = 1.5
    op = LinearOperator("q_difference", "delta_q",
                        (Polynomial([1.0]), Polynomial([0.0, 1.0])), q)
    polygon = newton_polygon(op)
    assert polygon.slopes == ((Fraction(1), 1),)


def test_polygon_shift_normalization():
    # multiplying every b_i by z shifts each n_i by 1, slopes unchanged (q-case)
    q = 1.3
    base = (Polynomial([1.0, 2.0]), Polynomial([0.0, 1.0]), Polynomial([3.0]))
    shifted = tuple(p * Polynomial([0.0, 1.0]) for p in base)
    p1 = newton_polygon(LinearOperator("q_difference", "sigma_q", base, q))
    p2 = newton_polygon(LinearOperator("q_difference", "sigma_q", shifted, q))
    assert p1.slopes == p2.slopes
    assert [(d, n + 1) for d, n in p1.vertices] == list(p2.vertices)


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_constant_coefficient():
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([-0.5]), Polynomial([1.0])), 2.0)
    cp = characteristic_polynomial(op, 0)
    assert len(cp.roots) == 1
    assert cp.roots[0] == pytest.approx(0.5, rel=1e-12)


def test_char_poly_reexpansion(q_euler_op):
    sop = q_euler_op.to_sigma_basis()
    polygon = newton_polygon(sop)
    slope = polygon.positive_slopes()[0]
    cp = characteristic_polynomial(q_euler_op, slope)
    # re-expansion from roots reproduces the monic normalization
    lead = cp.coefficients[-1]
    rebuilt = np.array([lead], dtype=complex)
    for root, mult in zip(cp.roots, cp.multiplicities):
        for _ in range(mult):
            rebuilt = np.convolve(rebuilt, np.array([-root, 1.0]))
    assert np.max(np.abs(rebuilt[::-1] - np.array(cp.coefficients)[::-1])) < 1e-8 * max(
        1.0, abs(lead))


def test_char_poly_wrong_slope_is_error():
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([-0.5]), Polynomial([1.0])), 2.0)
    with pytest.raises(ArgumentError):
        characteristic_polynomial(op, 1)


def test_char_poly_non_integer_slope_unsupported():
    # columns (0,0),(2,1): slope 1/2
    op = LinearOperator("q_difference", "sigma_q",
                        (Polynomial([1.0]), Polynomial([]), Polynomial([0.0, 1.0])),
                        1.4)
    with pytest.raises(UnsupportedError):
        characteristic_polynomial(op, Fraction(1, 2))


# ---------------------------------------------------------------------------
# operator action and series solving


def test_apply_operator_examples():
    d = LinearOperator("differential", "delta", (Polynomial([]), Polynomial([1.0])))
    s = PowerSeries([0, 0, 0, 1.0])  # z^3
    out = apply_operator(d, s)
    assert out.coeff_at(3) == pytest.approx(3.0)

    q = 2.0
    sq = LinearOperator("q_difference", "sigma_q", (Polynomial([]), Polynomial([1.0])), q)
    out = apply_operator(sq, PowerSeries([0, 0, 1.0]))
    assert out.coeff_at(2) == pytest.approx(4.0)


def test_solve_series_euler(euler_op):
    s = solve_series(euler_op, 9)
    expect = [0] + [(-1) ** n * math.factorial(n) for n in range(8)]
    assert np.allclose(s.coefficients, expect)
    assert np.max(np.abs(residual(euler_op, s).coefficients[:-1])) < 1e-9


def test_solve_series_q_euler():
    q = 1.3
    op = make_q_euler(q)
    s = solve_series(op, 7)
    expect = [0] + [(-1) ** n * q_factorial(n, q) for n in range(6)]
    assert np.allclose(s.coefficients, expect)


def test_solve_series_delta_minus_one():
    op = LinearOperator("differential", "delta", (Polynomial([-1.0]), Polynomial([1.0])))
    s = solve_series(op, 6, valuation=1, leading=1.0)
    assert np.allclose(s.coefficients, [0, 1, 0, 0, 0, 0])


def test_solve_series_resonance_error():
    # delta y - y = z: the n=1 row is resonant with inconsistent right side
    op = LinearOperator("differential", "delta",
                        (Polynomial([-1.0]), Polynomial([1.0])),
                        None, PowerSeries([0.0, 1.0]))
    with pytest.raises(ResonanceError) as err:
        solve_series(op, 6, valuation=1)
    assert err.value.n == 1


def test_solve_logspace_raises_where_solve_raises():
    # -2 y + delta y + z delta^2 y = z^2: (n - 2) a_n + (n - 1)^2 a_(n-1)
    # = [n = 2] has a_1 = 0, so the resonant n = 2 row reads 0 = 1
    op = LinearOperator("differential", "delta",
                        (Polynomial([-2.0]), Polynomial([1.0]), Polynomial([0.0, 1.0])),
                        None, PowerSeries([0.0, 0.0, 1.0]))
    rec = Recurrence.from_operator(op)
    for solve in (rec.solve, rec.solve_logspace):
        with pytest.raises(ResonanceError) as err:
            solve(6)
        assert err.value.n == 2
    # consistent data at a resonant row still leave the coefficient free
    free = LinearOperator("differential", "delta", (Polynomial([-1.0]), Polynomial([1.0])))
    phases, logmags = Recurrence.from_operator(free).solve_logspace(6, valuation=1)
    assert np.allclose(phases * np.exp(logmags), [0, 1, 0, 0, 0, 0])


def _row_by_loop(rec, n):
    """Row n one index at a time, the loop the row table replaced:
    (A_i(x_n)/x_n^D, D log x_n, resonance scale); D = 0 in n."""
    if rec.var == "n":
        row = np.array([Ai(float(n)) for Ai in rec.A], dtype=complex)
        scale = sum(abs(c) * float(n) ** j for j, c in enumerate(rec.A[0].coeffs))
        return row, 0.0, max(scale, 1e-300)
    D = max((Ai.degree for Ai in rec.A if not Ai.is_zero), default=0)
    lnx = n * math.log(rec.qstep)
    xinv = math.exp(-min(lnx, 700.0)) if lnx > 0 else 1.0
    row = np.zeros(len(rec.A), dtype=complex)
    for i, Ai in enumerate(rec.A):
        acc = 0.0 + 0.0j
        for j in range(D + 1):
            acc = acc * xinv + (Ai.coeffs[j] if j <= Ai.degree else 0.0)
        row[i] = acc
    scale = sum(abs(c) * xinv ** (D - j) for j, c in enumerate(rec.A[0].coeffs))
    return row, D * lnx, max(scale, 1e-300)


@pytest.mark.parametrize("q", [None, 1.05, 1.5])
def test_row_table_matches_the_row_loop_bit_for_bit(q, euler_op, example41_op):
    # the master, section and stage recurrences of the Euler chain (beta = 3,
    # three levels of w-order 1), and the span-3 Example 4.1
    rec = Recurrence.from_operator(make_q_euler(q) if q else euler_op)
    recs = [rec, Recurrence.from_operator(example41_op)] if q is None else [rec]
    weight = "qfact" if q else "gamma"
    for l in range(3):
        cur = section_recurrence(rec, 3, l)
        recs.append(cur)
        for _ in range(3):
            cur = reweight_recurrence(cur, Fraction(1), weight)
            recs.append(cur)
    if q:
        recs.append(reweight_recurrence(rec, Fraction(1), "rz"))
    for r in recs:
        rows, log_scales, scales = r._rows(3, 240)
        for n in range(3, 240):
            row, log_scale, scale = _row_by_loop(r, n)
            assert np.array_equal(rows[n - 3].view(float), row.view(float)), n
            assert (log_scales[n - 3], scales[n - 3]) == (log_scale, scale), n


_sizes = st.floats(0.5, 4.0)
_complex = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     _sizes, st.floats(0.0, 2 * math.pi))


@settings(max_examples=150, deadline=None)
@given(var=st.sampled_from(["n", "qn"]), q=st.floats(1.1, 1.8), order=st.integers(2, 16),
       resonant=st.one_of(st.none(), st.integers(0, 15)),
       nudge=st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-11]), root=_complex, c0=_complex,
       extra=st.one_of(st.none(), _complex), a1=st.lists(_complex, min_size=1, max_size=3),
       rhs=st.one_of(st.none(), _complex), valuation=st.integers(0, 15), leading=_complex)
def test_solve_and_solve_logspace_share_one_resonance_rule(
        var, q, order, resonant, nudge, root, c0, extra, a1, rhs, valuation, leading):
    # span 1: A_0(x) a_n + A_1(x) a_(n-1) = [n = 0] rhs.  A_0 has a root at
    # x_k (1 + nudge), x_k = k or q^k, when resonant = k, else a generic
    # one, and maybe a second generic factor; the nudges put A_0(x_k) about
    # the resonance threshold.  With a right side at n = 0 only, no row sums
    # two terms, so no cancellation tells the two arithmetics apart
    if resonant is not None:
        root = (float(resonant) if var == "n" else q**resonant) * (1.0 + nudge)
    A0 = Polynomial([-c0 * root, c0])
    if extra is not None:
        A0 = A0 * Polynomial([-extra, 1.0])
    rec = Recurrence([A0, Polynomial(a1)], var, q if var == "qn" else None,
                     {} if rhs is None else {0: rhs})
    outcomes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for solve in (rec.solve, rec.solve_logspace):
            try:
                outcomes.append(solve(order, valuation=valuation, leading=leading))
            except ResonanceError as err:
                outcomes.append(err.n)
        plain, logform = outcomes
        assert isinstance(plain, int) is isinstance(logform, int)
        if isinstance(plain, int):
            assert plain == logform
            return
        a = plain
        b = logform[0] * np.exp(logform[1])
    both = np.isfinite(a) & np.isfinite(b)
    assert np.all(np.abs(a - b)[both] <= 1e-12 * np.maximum(np.abs(a), np.abs(b))[both])


def test_random_operator_solve_residual():
    count = 0
    for _ in range(30):
        m = int(rng.integers(1, 4))
        polys = []
        for j in range(m + 1):
            deg = int(rng.integers(0, 5))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            if j == 0:
                coeffs[0] = 0.0  # keep n = 0 indicial so valuation 0 works
            polys.append(Polynomial(coeffs))
        if polys[-1].is_zero:
            polys[-1] = Polynomial([1.0])
        op = LinearOperator("differential", "delta", tuple(polys))
        try:
            s = solve_series(op, 40, valuation=0, leading=1.0)
        except (ResonanceError, ArgumentError):
            continue
        res = residual(op, s)
        scale = np.max(np.abs(s.coefficients)) or 1.0
        head = res.coefficients[: 40 - 4]
        assert np.max(np.abs(head)) < 1e-10 * max(scale, 1.0)
        count += 1
    assert count >= 10


# ---------------------------------------------------------------------------
# Borel-plane operators


def test_borel_plane_euler(euler_op):
    bop = borel_plane_operator(euler_op, 1)
    # solution space contains log(1+zeta): seeded by the termwise division
    s = solve_series(euler_op, 30)
    divided = s.termwise(lambda n: 1.0 / math.factorial(n))
    res = residual(bop, divided)
    assert np.max(np.abs(res.coefficients[:-2])) < 1e-12


def test_borel_plane_q_euler(q_euler_op):
    q = q_euler_op.q
    bop = borel_plane_operator(q_euler_op, 1)
    s = solve_series(q_euler_op, 30)
    divided = s.termwise(lambda n: 1.0 / q_factorial(n, q))
    res = residual(bop, divided)
    assert np.max(np.abs(res.coefficients[:-2])) < 1e-12


def test_borel_plane_conjugation_property(euler_homogenized):
    # borel_plane_operator(op, k) annihilates rho_k(B_1(rho_{1/k}(f)))
    op = euler_homogenized
    # rho_2-conjugate: b_j(z) delta^j -> b_j(z^2) (delta/2)^j, so solutions
    # are rho_2 images and the coefficients live in C[z^2]
    polys = []
    for j, b in enumerate(op.coefficients):
        coeffs = []
        for c in b.coeffs:
            coeffs.extend([c * 0.5**j, 0.0])
        polys.append(Polynomial(coeffs[:-1] if coeffs else []))
    op2 = LinearOperator("differential", "delta", tuple(polys))
    f = solve_series(op2, 40, valuation=2, leading=1.0)
    bop2 = borel_plane_operator(op2, 2)
    inner = ramify(f, Fraction(1, 2))
    b1 = inner.termwise(lambda n: 1.0 / math.gamma(1.0 + n))
    target = ramify(b1, 2)
    res = residual(bop2, target)
    scale = np.max(np.abs(target.coefficients)) or 1.0
    assert np.max(np.abs(res.coefficients[:-4])) < 1e-10 * scale


def test_borel_plane_requires_multiple_shifts(euler_op):
    with pytest.raises(UnsupportedError):
        borel_plane_operator(euler_op, 2)


def test_slope_zero_operator_transform_keeps_solution():
    # convergent case: op annihilating 1/(1-z); k=1 transform of solutions
    op = LinearOperator("differential", "delta",
                        (Polynomial([0.0, -1.0]), Polynomial([1.0, -1.0])))
    s = solve_series(op, 30, valuation=0, leading=1.0)
    bop = borel_plane_operator(op, 1)
    divided = s.termwise(lambda n: 1.0 / math.factorial(n))
    res = residual(bop, divided)
    assert np.max(np.abs(res.coefficients[:-2])) < 1e-12
