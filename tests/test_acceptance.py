"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured error and runtime.  Tolerances are pinned here, not deferred.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest
from scipy.special import exp1

from qborel import classical as cl
from qborel import hypergeom as hg
from qborel import qspecial as qsp
from qborel import qsummation as qs
from qborel.cli import main as cli_main
from qborel.errors import (
    DirectionError,
    DomainError,
    ParseError,
    PoleError,
    QBorelError,
    ResonanceError,
    SingularDirectionError,
)
from qborel.operators import (
    LinearOperator,
    borel_plane_operator,
    parse_operator,
    rz_borel_operator,
    solve_series,
)
from qborel.series import Polynomial, PowerSeries, SectorPoint

from conftest import make_q_euler

rng = np.random.default_rng(1234)


def _report(criterion, detail, t0):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {time.time() - t0:.2f}s)")


EULER_DOC = {"kind": "differential", "basis": "delta",
             "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
             "rhs": [[0.0, 0.0], [1.0, 0.0]]}

EX41_DOC = {"kind": "differential", "basis": "delta",
            "coefficients": [[[-1.0, 0.0]], [[1.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]],
                             [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                              [1.0, 0.0], [1.0, 0.0]]]}

QEULER_DOC = {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
              "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
              "rhs": [[0.0, 0.0], [1.0, 0.0]]}


def test_criterion_1_ladder_exactness(tmp_path):
    """cmd_ladder on the Example-4.1 operator: kappa~ = (4,4,20/3,20/3,5)
    and beta = 20, exact rationals, < 1 s."""
    t0 = time.time()
    op = tmp_path / "ex41.json"
    op.write_text(json.dumps(EX41_DOC))
    out = tmp_path / "ladder.csv"
    rc = cli_main(["ladder", "--op", str(op), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    for line in ("kappa_tilde,1,4", "kappa_tilde,2,4", "kappa_tilde,3,20/3",
                 "kappa_tilde,4,20/3", "kappa_tilde,5,5", "beta,,20"):
        assert line in text
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("1 (ladder exactness)", "kappa~=(4,4,20/3,20/3,5), beta=20", t0)


def test_criterion_2_euler_borel_laplace(euler_op):
    """multisum of the Euler series at d=0, z in {0.05, 0.1, 0.2} matches
    e^(1/z) E1(1/z) to 1e-8 relative, < 5 s."""
    t0 = time.time()
    S = cl.multisum(None, euler_op, 0.0)
    worst = 0.0
    for zv in (0.05, 0.1, 0.2):
        val = S(SectorPoint.from_complex(zv))
        oracle = math.exp(1.0 / zv) * exp1(1.0 / zv)
        worst = max(worst, abs(val - oracle) / oracle)
    assert worst < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("2 (Euler Borel-Laplace)", f"max rel err {worst:.2e}", t0)


def test_criterion_3_main_theorem_confluence(tmp_path):
    """cmd_confluence on q-Euler, grid {1.5,...,1.01}, z=0.1: strictly
    decreasing errors, final < 5e-2, for discrete AND continuous; < 30 s."""
    t0 = time.time()
    op = tmp_path / "qeuler.json"
    op.write_text(json.dumps(QEULER_DOC))
    finals = {}
    for mode in ("discrete", "continuous"):
        out = tmp_path / f"conf_{mode}.csv"
        rc = cli_main(["confluence", "--op", str(op), "--direction", "0",
                       "--z", "0.1,0", "--q-grid", "1.5,1.2,1.1,1.05,1.02,1.01",
                       "--mode", mode, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "verdict: monotone" in text
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        errs = [float(r.split(",")[-1]) for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 5e-2
        finals[mode] = errs[-1]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("3 (main-theorem confluence)",
            f"final errors {finals['discrete']:.2e}/{finals['continuous']:.2e}", t0)


def test_criterion_4_cross_summation_equivalence():
    """discrete vs theta q-Laplace summation of the slope-1 q-Euler problem:
    agreement to 1e-8 at 3 common points, q = 1.05; < 5 s."""
    t0 = time.time()
    q = 1.05
    op = make_q_euler(q)
    s = solve_series(op, 100)
    g = qs.q_borel(s, 1, q)
    h1 = qs.q_continuation(g, borel_plane_operator(op, 1), 0.0)
    f = qs.rz_borel(s, q)
    h2 = qs.q_continuation(f, rz_borel_operator(op), 0.0)
    worst = 0.0
    for zv in (0.1, 0.15, 0.2):
        z = SectorPoint.from_complex(zv)
        a = qs.discrete_q_laplace(h1, 1, 0.0, q, z)
        b = qs.theta_q_laplace(h2, 0.0, q, z)
        worst = max(worst, abs(a - b) / abs(a))
    assert worst < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("4 (cross-summation equivalence)", f"max rel diff {worst:.2e}", t0)


def test_criterion_5_special_function_identities():
    """theta series/product 1e-10; sigma_q Theta = z Theta 1e-10;
    e_q(z)e_p(-z)=1 1e-10; the two e_q inequalities on 100 samples; < 5 s."""
    t0 = time.time()
    q, z = 1.5, 0.7 + 0.2j
    a = qsp.theta(z, q)
    b = qsp._theta_product(z, q)
    assert abs(a - b) < 1e-10 * abs(a)
    assert abs(qsp.theta(q * z, q) - z * qsp.theta(z, q)) < 1e-10 * abs(z * a)
    w = 0.9 + 0.3j
    assert abs(qsp.eq_exp(w, 1.4) * qsp.eq_exp(-w, 1 / 1.4) - 1.0) < 1e-10
    for _ in range(100):
        aa = complex(rng.normal(), rng.normal())
        zz = complex(rng.normal(), rng.normal())
        k = int(rng.integers(1, 4))
        qq = 1.0 + 2.0 * rng.random() + 1e-3
        arg = aa * zz**k
        assert abs(qsp.eq_exp(arg, qq)) <= math.exp(abs(arg)) * (1 + 1e-12)
        assert qsp.eq_exp(abs(zz), qq * qq).real ** 2 <= qsp.eq_exp(
            (1 + qq) * abs(zz), qq).real * (1 + 1e-12)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("5 (special-function identities)", "all identities hold", t0)


def test_criterion_6_operator_identity_suite():
    """Borel/Laplace commutation identities on random degree-<=8 polynomials:
    formal sides exact to 1e-12, integral/Jackson sides to 1e-8; < 10 s."""
    t0 = time.time()
    q = 1.3
    p = 1.0 / q
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    f = PowerSeries(coeffs)
    # formal classical: B1(delta f) = delta B1(f); delta B1(z f) = zeta B1(f)
    df = f.termwise(lambda n: float(n))
    assert cl.formal_borel(df, 1).almost_equal(
        cl.formal_borel(f, 1).termwise(lambda n: float(n)), tol=1e-12)
    zf = PowerSeries(np.concatenate([[0.0], coeffs]))
    lhs = cl.formal_borel(zf, 1).termwise(lambda n: float(n))
    rhs = PowerSeries(np.concatenate([[0.0], cl.formal_borel(f, 1).coefficients]))
    assert lhs.almost_equal(rhs, tol=1e-12)
    # formal q: B_{q,1}(dq f) = dq B_{q,1}(f); dq B_{q,1}(z f) = zeta B_{q,1}(f)
    dq = lambda s: s.termwise(lambda n: (q**n - 1.0) / (q - 1.0))
    assert qs.q_borel(dq(f), 1, q).almost_equal(dq(qs.q_borel(f, 1, q)), tol=1e-12)
    lhs = dq(qs.q_borel(zf, 1, q))
    rhs = PowerSeries(np.concatenate([[0.0], qs.q_borel(f, 1, q).coefficients]))
    assert lhs.almost_equal(rhs, tol=1e-12)

    # integral sides on a polynomial handle
    gc = rng.normal(size=7)
    g = PowerSeries(gc)
    dgc = np.array([n * c for n, c in enumerate(gc)])
    handle = lambda s: cl.FunctionHandle(lambda zeta: s.eval(zeta), 0.0)
    z = SectorPoint.from_complex(0.19)
    zc = z.to_complex()
    # L1(delta g) = delta L1(g) via Richardson central differences in log z
    lhs = cl.laplace_along_ray(handle(PowerSeries(dgc)), 0.0, z)

    def Lg(w):
        return cl.laplace_along_ray(handle(g), 0.0, w)

    h = 1e-5

    def diff(step):
        up = Lg(SectorPoint(z.log_modulus + step, z.argument))
        dn = Lg(SectorPoint(z.log_modulus - step, z.argument))
        return (up - dn) / (2 * step)

    rhs = (4 * diff(h / 2) - diff(h)) / 3.0
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)
    # z L1(delta g) = L1(zeta g) - z L1(g)
    zgc = np.concatenate([[0.0], gc])
    lhs2 = zc * cl.laplace_along_ray(handle(PowerSeries(dgc)), 0.0, z)
    rhs2 = cl.laplace_along_ray(handle(PowerSeries(zgc)), 0.0, z) \
        - zc * cl.laplace_along_ray(handle(g), 0.0, z)
    assert abs(lhs2 - rhs2) < 1e-8 * max(abs(rhs2), 1.0)

    # Jackson sides: z L_{q,1}(dq g) = p L_{q,1}(zeta g) - p z L_{q,1}(g)
    dqg = PowerSeries([(q**n - 1.0) / (q - 1.0) * c for n, c in enumerate(gc)])
    lhs3 = zc * qs.discrete_q_laplace(handle(dqg), 1, 0.0, q, z)
    rhs3 = p * qs.discrete_q_laplace(handle(PowerSeries(zgc)), 1, 0.0, q, z) \
        - p * zc * qs.discrete_q_laplace(handle(g), 1, 0.0, q, z)
    assert abs(lhs3 - rhs3) < 1e-8 * max(abs(rhs3), 1.0)
    # sigma commutation: L_{q,1}(dq g) = dq L_{q,1}(g) via exact shifts
    Lq = lambda w: qs.discrete_q_laplace(handle(g), 1, 0.0, q, w)
    zq = SectorPoint(z.log_modulus + math.log(q), z.argument)
    rhs4 = (Lq(zq) - Lq(z)) / (q - 1.0)
    lhs4 = qs.discrete_q_laplace(handle(dqg), 1, 0.0, q, z)
    assert abs(lhs4 - rhs4) < 1e-8 * max(abs(rhs4), 1.0)
    # appendix (continuous kernel): both identities
    lhs5 = zc * qs.continuous_q_laplace(handle(dqg), 1, 0.0, q, z)
    rhs5 = p * qs.continuous_q_laplace(handle(PowerSeries(zgc)), 1, 0.0, q, z) \
        - p * zc * qs.continuous_q_laplace(handle(g), 1, 0.0, q, z)
    assert abs(lhs5 - rhs5) < 1e-8 * max(abs(rhs5), 1.0)
    Lc = lambda w: qs.continuous_q_laplace(handle(g), 1, 0.0, q, w)
    rhs6 = (Lc(zq) - Lc(z)) / (q - 1.0)
    lhs6 = qs.continuous_q_laplace(handle(dqg), 1, 0.0, q, z)
    assert abs(lhs6 - rhs6) < 1e-8 * max(abs(rhs6), 1.0)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("6 (operator identities)", "formal exact, kernels to 1e-8", t0)


def test_criterion_7_hypergeometric():
    """q-binomial 1e-10; connection formula 1e-8; closed form vs pipeline
    1e-6; theorem-limit grid decreasing with final < 5e-2; classical RHS vs
    multisum 1e-5; < 30 s."""
    t0 = time.time()
    par = hg.PhiParams((0.3,), (), 0.5)
    lhs = hg.rphi(par, 0.4, 80)
    rhs = qsp.pochhammer(0.12, 0.5, None) / qsp.pochhammer(0.4, 0.5, None)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    parc = hg.PhiParams((0.2, 0.7), (0.1,), 0.4)
    both = abs(hg.rphi(parc, 0.5, 400) - hg.connection_infinity(parc, 0.5))
    assert both < 1e-8 * abs(hg.rphi(parc, 0.5, 400))

    qb = 1.2
    par2 = hg.PhiParams((3.0, 5.0), (), 1.0 / qb)
    z = SectorPoint.from_complex(0.15)
    cf = hg.qsum_closed_form(par2, 0.0, z)
    ser = hg.rphi(par2, None, 80)
    f = qs.rz_borel(ser, qb)
    handle = qs.q_continuation(f, rz_borel_operator(hg.rphi_operator(par2)), 0.0)
    pipe = qs.theta_q_laplace(handle, 0.0, qb, z)
    assert abs(cf - pipe) < 1e-6 * abs(pipe)

    alphas = (0.3, 0.9)
    fp = hg.FParams(alphas, ())
    target = hg.classical_limit_rhs(fp, 0.0, 2.0)
    errs = []
    for pb in (0.7, 0.8, 0.9, 0.95, 0.99):
        parp = hg.PhiParams(tuple(pb**a for a in alphas), (), pb)
        x = 2.0 * (1.0 - pb) ** (-1)
        v = hg.qsum_closed_form(parp, 0.0, SectorPoint.from_complex(x))
        errs.append(abs(v - target))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 5e-2

    a1, a2 = alphas
    op = LinearOperator("differential", "delta",
                        (Polynomial([0, a1 * a2]), Polynomial([1.0, a1 + a2]),
                         Polynomial([0, 1.0])))
    S = cl.multisum(None, op, 0.0)
    val = S(SectorPoint.from_complex(2.0))
    assert abs(val - target) < 1e-5 * abs(target)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("7 (hypergeometric)",
            f"limit-grid final {errs[-1]:.2e}, multisum check {abs(val - target):.1e}", t0)


def test_criterion_8_stokes_probe(euler_op):
    """Euler classical jump across d = pi: |jump * e^(-1/z)| = 2 pi to 1e-6;
    normalized q-jump sigma_q-invariant to 1e-6 and approaching the classical
    constant monotonically; < 20 s."""
    t0 = time.time()
    offset = math.pi / 24.0
    plus = cl.multisum(None, euler_op, math.pi + offset)
    minus = cl.multisum(None, euler_op, math.pi - offset)
    z = SectorPoint.from_polar(0.2, math.pi)
    J = plus(z) - minus(z)
    norm = abs(J * cmath.exp(-1.0 / z.to_complex()))
    assert abs(norm - 2 * math.pi) < 1e-6
    # residue oracle, independently: the contour difference of the Borel
    # integrand e^(-zeta/z)/(1+zeta) across the pole at -1 is 2 pi i e^(1/z)
    residue = abs(2j * math.pi * cmath.exp(1.0 / z.to_complex()))
    assert abs(abs(J) - residue) < 1e-6 * residue
    # the jump divided by e^(1/z) is constant along the ray
    consts = []
    for r in (0.15, 0.2, 0.3):
        zz = SectorPoint.from_polar(r, math.pi)
        consts.append((plus(zz) - minus(zz)) * cmath.exp(-1.0 / zz.to_complex()))
    assert max(abs(c - consts[0]) for c in consts) < 1e-6 * abs(consts[0])

    gaps = []
    limit = cl.summation_chain(euler_op)
    for qv in (1.2, 1.1, 1.05):
        opq = make_q_euler(qv)
        y_h = qs.first_order_homogeneous_solution(opq)
        zq = SectorPoint(z.log_modulus + math.log(qv), z.argument)
        Jq, Jq2 = qs.q_stokes_jump(None, opq, math.pi, [z, zq], limit=limit)
        c = Jq / y_h(z)
        c2 = Jq2 / y_h(zq)
        assert abs(c2 / c - 1.0) < 1e-6
        gaps.append(abs(abs(c) - 2 * math.pi))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.time() - t0
    assert elapsed < 20.0
    _report("8 (Stokes probe)",
            f"classical err {abs(norm - 2 * math.pi):.1e}, q-gaps {gaps}", t0)


def test_criterion_9_limit_formulas():
    """Theta_q(p^g u)/Theta_q(u) -> u^(-g) and the Pochhammer/Gamma limit:
    decreasing errors over the p-grid, final < 1e-2; < 5 s."""
    t0 = time.time()
    g = 0.6
    u = 1.4 + 0.3j
    errs_t = []
    errs_p = []
    for p in (0.7, 0.8, 0.9, 0.95, 0.99):
        qv = 1.0 / p
        ratio = cmath.exp(qsp.theta_log(p**g * u, qv) - qsp.theta_log(u, qv))
        errs_t.append(abs(ratio - u ** (-g)))
        val = (qsp.pochhammer(p**g, p, None) * (1 - p) ** (g - 1)
               / qsp.pochhammer(p, p, None))
        errs_p.append(abs(val - 1.0 / math.gamma(g)))
    assert all(a > b for a, b in zip(errs_t, errs_t[1:]))
    assert all(a > b for a, b in zip(errs_p, errs_p[1:]))
    assert errs_t[-1] < 1e-2 and errs_p[-1] < 1e-2
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("9 (limit formulas)",
            f"final errors {errs_t[-1]:.2e}, {errs_p[-1]:.2e}", t0)


def test_criterion_10_error_taxonomy(tmp_path, euler_op, q_euler_op):
    """Every documented error case produces its named structured error,
    never a numeric value."""
    t0 = time.time()
    q = q_euler_op.q
    # pole spiral hit (discrete q-Laplace at z on (q-1)[d+pi])
    one = cl.FunctionHandle(lambda _: 1.0 + 0j, 0.0)
    with pytest.raises(PoleError):
        qs.discrete_q_laplace(one, 1, 0.0, 1.3,
                              SectorPoint.from_complex(-0.3, argument=math.pi))
    # forbidden direction (hypergeometric closed form)
    par = hg.PhiParams((3.0, 5.0), (), 1 / 1.2)
    with pytest.raises(DirectionError):
        hg.qsum_closed_form(par, 0.0 + math.pi, SectorPoint.from_complex(0.15))
    # singular direction (classical multisummation at d = pi)
    with pytest.raises(SingularDirectionError):
        cl.multisum(None, euler_op, math.pi)
    # resonance (inconsistent recurrence row)
    op = LinearOperator("differential", "delta",
                        (Polynomial([-1.0]), Polynomial([1.0])),
                        None, PowerSeries([0.0, 1.0]))
    with pytest.raises(ResonanceError):
        solve_series(op, 6, valuation=1)
    # schema violation (operator document)
    with pytest.raises(ParseError):
        parse_operator({"kind": "nonsense", "basis": "delta",
                        "coefficients": [[[1.0, 0.0]]]})
    # sector violation on the summed function
    S = cl.multisum(None, euler_op, 0.0)
    with pytest.raises(DomainError):
        S(SectorPoint.from_polar(0.1, 1.5))
    # pole-spiral guard on the q-summed function
    Sq = qs.q_multisum(None, q_euler_op, 0.0, mode="discrete")
    base = (q**3 - 1.0) ** (1.0 / 3.0)
    zpole = SectorPoint.from_polar(base, math.pi / 3)
    with pytest.raises(QBorelError):
        Sq(zpole)
    # CLI: malformed file -> exit 2 with a machine-parsable diagnostic
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli_main(["polygon", "--op", str(bad)]) == 2
    _report("10 (error taxonomy)", "all error cases raise typed errors", t0)
