"""Checks against 30-digit mpmath values, closed forms and scipy's DOP853
and QUADPACK, which share no code with qborel."""

import bisect
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from qborel import classical as cl
from qborel import qsummation as qs
from qborel.errors import RangeError
from qborel.operators import LinearOperator
from qborel.series import Polynomial, PowerSeries, SectorPoint, gamma

from conftest import make_q_euler, q_euler_borel

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


# acceptance criterion 7: z delta^2 y + (1 + (a1 + a2) z) delta y + a1 a2 z y = 0
A1, A2 = 0.3, 0.9
TWO_F_ZERO = LinearOperator("differential", "delta",
                            (Polynomial([0, A1 * A2]), Polynomial([1.0, A1 + A2]),
                             Polynomial([0, 1.0])))
EULER = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                       None, PowerSeries([0.0, 1.0]))


@pytest.fixture(scope="module")
def two_f_zero_sum():
    return A1, A2, cl.multisum(None, TWO_F_ZERO, 0.0)


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


@pytest.mark.parametrize("z", [1e-60, 1e-60 * cmath.exp(0.3j), 1e-80, 1e-90, 1e-93],
                         ids=["1e-60", "1e-60e^0.3i", "1e-80", "1e-90", "1e-93"])
def test_euler_sum_at_a_tiny_z_matches_its_asymptotic_series(z):
    # the sum is z - z^2 + 2 z^3 to within z^4: the reference rule of the
    # first-level check scales each panel by A S before it sums, so its
    # integrals (about |f| S, 1e-398 at z = 1e-60) do not underflow
    S = cl.summation_chain(EULER).sum(0.0)
    assert _rel(S(z), z - z * z + 2 * z**3) < 1e-14


@pytest.mark.parametrize("log10_z", [-93.5, -93.8, -94.0])
def test_euler_sum_refuses_a_z_whose_level_nodes_are_subnormal(log10_z, monkeypatch):
    # from about z = 1e-93.5 on, level values the window reads sit at nodes
    # below the smallest normal float, where no step passes the step-2h
    # check: the sum raises RangeError at its first step, without refining
    # (the range check of SummedFunction refuses z from 1e-94.15 on)
    steps, read = [], cl._LaplaceGrid.read
    monkeypatch.setattr(cl._LaplaceGrid, "read",
                        lambda self, *a: steps.append(self.h) or read(self, *a))
    S = cl.summation_chain(EULER).sum(0.0)
    with pytest.raises(RangeError, match="subnormal"):
        S(10.0 ** log10_z)
    assert len(steps) == 1


def _dop853_continuation(h, x_end: float):
    """f along the ray of an ODE handle from its anchor vector to x_end, by
    scipy's DOP853 at rtol 1e-13 (atol 1e-30) on the companion system of h.op: delta
    V_i = V_(i+1), b_m delta V_(m-1) = F - sum_(j<m) b_j V_j, delta = x d/dx
    on the ray.  Only the coefficient arrays of the operator are read."""
    op, m, phase = h.op, h.op.order, np.exp(1j * h.direction)
    b = [np.append(p.coeffs, 0.0) for p in op.coefficients]
    F = np.zeros(1) if op.rhs is None else op.rhs.coefficients
    polyval = np.polynomial.polynomial.polyval

    def rhs(x, y):
        V = y[:m] + 1j * y[m:]
        w = x * phase
        last = (polyval(w, F) - sum(polyval(w, b[j]) * V[j] for j in range(m))) / polyval(w, b[m])
        dV = np.append(V[1:], last) / x
        return np.concatenate([dV.real, dV.imag])

    V0 = np.asarray(h._V0)
    # atol far below every component: g_1 of the last 2F0 section falls to
    # 1e-7 of its anchor value over the range its grids read
    sol = solve_ivp(rhs, (h._x0, x_end), np.concatenate([V0.real, V0.imag]), method="DOP853",
                    rtol=1e-13, atol=1e-30, dense_output=True)
    assert sol.success
    return lambda xs: sol.sol(xs)[0] + 1j * sol.sol(xs)[m]


@pytest.mark.parametrize("op, d, zs", [
    (EULER, 0.0, [0.05, 0.2, 0.2 * np.exp(0.4j)]),
    (EULER, math.pi + math.pi / 24, [-0.2, -0.25]),
    (EULER, math.pi - math.pi / 24, [-0.2, -0.25]),
    (TWO_F_ZERO, 0.0, [2.0, 3 - 1j]),
], ids=["euler-0", "euler-pi+", "euler-pi-", "2F0"])
def test_every_continued_handle_matches_a_dop853_reference(op, d, zs):
    # the Taylor-stepped g_1 handle of each section, after the sum's values
    # at zs, against DOP853 at rtol 1e-13 from the same anchor vector, at 200
    # log-spaced points from its anchor to the end of its continued range
    S = cl.summation_chain(op).sum(d)
    for z in zs:     # each z at its argument nearest to d
        S(SectorPoint.from_polar(abs(z), d + np.angle(z * np.exp(-1j * d))))
    handles = [sec.cont for sec in S.sections]
    assert len(handles) == 3
    for h in handles:
        steps = h._steps
        x_end = steps.cs[-1] + 0.5 * steps.hs[-1]
        assert x_end > 10.0 * h._x0
        xs = np.geomspace(h._x0, x_end, 200)
        ref = _dop853_continuation(h, x_end)(xs)
        assert np.max(np.abs(h.eval_ray_many(xs) - ref) / np.abs(ref)) < 1e-12


_RAYS = [0.0, 0.4, math.pi + math.pi / 24, math.pi - math.pi / 24,
         math.pi + 0.02, math.pi - 0.02]


@pytest.mark.parametrize("d", _RAYS)
def test_laplace_along_ray_near_a_pole_matches_mpmath_and_quadpack(d):
    # f = 1/(1 + zeta): on d = pi +/- 0.02 the ray passes 0.02 from the pole
    # at zeta = -1; L f(w) = A int_0^inf e^(-s A)/(1 + s e^(id)) ds, A = e^(id)/w
    h = cl.FunctionHandle(lambda zeta: 1.0 / (1.0 + zeta), d)
    e = cmath.exp(1j * d)
    for r, off in ((0.1, 0.0), (0.5, 0.6), (2.0, -1.2)):
        got = cl.laplace_along_ray(h, d, SectorPoint.from_polar(r, d + off))
        with mp.workdps(30):
            A = mp.exp(mp.mpc(0, -off)) / r
            E = mp.exp(mp.mpc(0, d))
            ref = A * mp.quad(lambda s: mp.exp(-s * A) / (1 + s * E),
                              [0, 0.5, 1, 1.5, 4, mp.inf])
        assert _rel(got, ref) <= 1e-12
        a = complex(A)
        val, _ = quad(lambda s: cmath.exp(-s * a) / (1.0 + s * e), 0.0, 50.0 / a.real + 2.0,
                      points=[max(-math.cos(d), 0.5)], epsabs=1e-13 * abs(got / a),
                      epsrel=1e-12, limit=400, complex_func=True)
        assert abs(got - a * val) <= 1e-12 * abs(got)


def _ray_value(h, x: float) -> complex:
    """g_1 at one ray point x, for the scalar quadratures: the series inside
    0.8 of its radius, else a Horner on the row of the Taylor step that
    serves x (the same data eval_ray_many reads, one point at a time)."""
    if x <= h._series_limit:
        return h.series.eval(x * cmath.exp(1j * h.direction))
    steps = h.ensure(x)
    i = bisect.bisect_right(steps.los, x) - 1
    t = (x - steps.cs[i]) / steps.hs[i]
    acc = 0j
    for coef in steps.rows[i]:
        acc = acc * t + coef
    return acc


@pytest.mark.parametrize("op, d, r", [
    (EULER, 0.0, 0.2),
    (EULER, math.pi + math.pi / 24, 0.2),
    (EULER, math.pi - math.pi / 24, 0.2),
    (EULER, math.pi + 0.02, 0.2),
    (TWO_F_ZERO, 0.0, 2.0),
    (TWO_F_ZERO, 0.4, 2.0),
], ids=["euler-0", "euler-pi+", "euler-pi-", "euler-pi+0.02", "2F0-0", "2F0-0.4"])
def test_stage_table_checks_match_mpmath_and_quadpack(op, d, r, monkeypatch):
    # the reference values of each grid's first-level check, made when the
    # sum is first asked at z = r e^(id): L(g_1)(x) = (1/x) int_0^S g_1(s)
    # e^(-s/x) ds on the ray, against mpmath's tanh-sinh at 30 digits and
    # QUADPACK over the same [0, S].  On the Euler ray pi + 0.02 the ray of
    # g_1 passes 7e-4 from the singular point -1/27 of its Borel operator,
    # so tanh-sinh splits [0, S] where the ray comes nearest to each such
    # point
    checks, reference = [], cl._reference_laplace

    def recording(handle, dd, ws):
        got = reference(handle, dd, ws)
        checks.append((handle, dd, ws, got))
        return got

    monkeypatch.setattr(cl, "_reference_laplace", recording)
    cl.summation_chain(op).sum(d)(SectorPoint.from_polar(r, d))
    assert len(checks) == 9 and all(len(ws) == 1 for _, _, ws, _ in checks)
    for h, dd, ws, got_all in checks:
        nearest = [(rho * cmath.exp(-1j * dd)).real for rho in h._lead_roots]
        for w, got in zip(ws, got_all):
            x = w.modulus
            _, upper, _ = cl._laplace_truncation(h, dd, w)
            cuts = sorted(p for p in (*nearest, 0.5, 1.0, 1.5) if 0.0 < p < upper)
            g1 = lambda s: _ray_value(h, float(s))
            fn = lambda s: g1(s) * cmath.exp(-s / x)
            with mp.workdps(30):
                ref, err = mp.quad(lambda s: g1(s) * mp.exp(-s / x),
                                   [0, *cuts, upper], maxdegree=8, error=True)
            assert err <= 1e-14 * abs(ref)
            assert _rel(got, ref / x) <= 1e-12
            val, _ = quad(fn, 0.0, upper, points=cuts or None, epsabs=0.0, epsrel=1e-12,
                          limit=200, complex_func=True)
            assert abs(got - val / x) <= 1e-12 * abs(got)


@pytest.mark.parametrize("z", [0.1, 0.2 * cmath.exp(0.3j)], ids=["0.1", "0.2e^0.3i"])
@pytest.mark.parametrize("g, p", [(0.5, 1), (1.0, 1), (2.0, 1), (3.0, 1), (1.0, 2)])
def test_euler_family_sum_matches_variation_of_constants(g, p, z):
    # g z delta y + y = z^p is solved, for |arg z| < pi/2, by
    # y(z) = int_0^z exp(1/(g z) - 1/(g t)) t^(p-2)/g dt (variation of
    # constants), the Borel sum in direction 0: mpmath quad at 30 digits,
    # with the path split at z/4 and z/2
    op = LinearOperator("differential", "delta", (Polynomial([1.0]), Polynomial([0.0, g])),
                        None, PowerSeries([0.0] * p + [1.0]))
    with mp.workdps(30):
        zm = mp.mpc(z.real, z.imag)
        ref = mp.quad(lambda t: mp.exp(1 / (g * zm) - 1 / (g * t)) * t ** (p - 2) / g,
                      [0, zm / 4, zm / 2, zm])
    S = cl.summation_chain(op).sum(0.0)
    assert _rel(S(SectorPoint.from_complex(complex(z))), ref) <= 1e-10


def _jackson_q_laplace(g, q: float, z: float) -> float:
    """(q-1) sum_l xi_l g(xi_l) / (z e_q(q xi_l / z)) over xi_l = q^l with
    e^-20 <= xi_l <= 1000 z, where log e_q(x) = sum_n log1p((q-1) q^(-n-1) x):
    the terms left out are below 1e-15 of the sum for g(xi) ~ xi near 0."""
    xi = q ** np.arange(-math.ceil(20.0 / math.log(q)), math.log(1000.0 * z) / math.log(q))
    x = q * xi / z
    log_eq = np.zeros_like(x)
    for n in range(1, math.ceil(math.log(1e18 * x[-1]) / math.log(q)) + 1):
        log_eq += np.log1p((q - 1.0) * q**-n * x)
    kernel = np.exp(np.log((q - 1.0) * xi / z) - log_eq)
    return float(np.sum(kernel * g(xi).real))


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("q", [1.015, 1.01])
def test_q_euler_sum_near_q_one_is_the_jackson_sum_of_the_closed_form(q, mode):
    # the q-Euler solution's q-Borel transform has the closed form
    # q_euler_borel; both summation modes give its Jackson q-Laplace (the
    # kernel window once cut the e^-y decay short: 1.9e-6 off at q = 1.01)
    ref = _jackson_q_laplace(lambda xi: q_euler_borel(xi, q), q, 0.1)
    S = qs.q_multisum(None, make_q_euler(q), 0.0, mode=mode)
    assert _rel(S(SectorPoint.from_complex(0.1)), ref) <= 1e-13


@pytest.mark.parametrize("arg", [0.0, 2.0])
@pytest.mark.parametrize("M", [1, 8])
@pytest.mark.parametrize("Q", [1.01, 1.0303, 1.5])
def test_step_ratio_eq_kernel_matches_the_mpmath_product(Q, M, arg):
    # the kernel (Q-1)/M y / e_Q(Q y) is built from a few product factors at
    # the window's low end and one cumulative product per residue class above
    # it; 17 nodes spread over the whole window, the top included, are checked
    # against e_Q(x) = prod_n (1 + (Q-1) Q^(-n-1) x) at 30 digits, taken to the
    # first factor within 1e-32 of 1 (mp.qp does not converge this close to 1)
    a, b = qs._eq_window(Q, M, arg)
    y = np.exp(np.arange(a, b + 1) * (math.log(Q) / M)) * np.exp(1j * arg)
    kernel = qs._eq_kernel(y, Q, M)
    worst = 0.0
    with mp.workdps(30):
        Qm = mp.mpf(Q)
        t = [(Qm - 1) / Qm]                     # t_n = (Q-1) Q^(-n-1)
        for i in np.unique(np.linspace(0, len(y) - 1, 17).round().astype(int)):
            x = Qm * mp.mpc(y[i].real, y[i].imag)
            n = max(1, math.ceil(math.log(1e32 * (Q - 1.0) / Q * abs(Q * y[i])) / math.log(Q)))
            while len(t) < n:
                t.append(t[-1] / Qm)
            eq = mp.mpf(1)
            for tn in t[:n]:
                eq *= 1 + tn * x
            worst = max(worst, _rel(kernel[i], (Qm - 1) / M * x / Qm / eq))
    assert worst <= 5e-13


@pytest.fixture(scope="module")
def phi_sum():
    """(params, q-sum in direction 0) of 2phi0(3, 5; -; 1/q), built once per
    (q, mode, FFT threshold)."""
    from qborel import hypergeom as hg

    cache = {}

    def get(q, mode):
        key = (q, mode, cl._FFT_MIN_KERNEL)
        if key not in cache:
            par = hg.PhiParams((3.0, 5.0), (), 1.0 / q)
            cache[key] = par, qs.q_multisum(None, hg.rphi_operator(par), 0.0, mode=mode)
        return cache[key]

    return get


@pytest.mark.parametrize("fft_min_kernel", [None, 1], ids=["default", "fft-everywhere"])
@pytest.mark.parametrize("z", [0.15, 0.3, 0.1 * np.exp(0.5j)])
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("q", [1.3, 1.2, 1.15])
def test_two_phi_zero_q_sum_over_a_wide_dynamic_range(phi_sum, q, mode, z, fft_min_kernel,
                                                      monkeypatch):
    # the level arrays of these sums climb 20-60 decades after a flat
    # stretch; the tilted FFT blocks without their round-off check come out
    # up to 4e6 relative off here.  fft-everywhere sends every level, however
    # short its kernel, through the FFT blocks and their check
    from qborel import hypergeom as hg

    if fft_min_kernel is not None:
        monkeypatch.setattr(cl, "_FFT_MIN_KERNEL", fft_min_kernel)
    par, S = phi_sum(q, mode)
    zp = SectorPoint.from_complex(complex(z))
    assert _rel(S(zp), hg.qsum_closed_form(par, 0.0, zp)) <= 2e-10


@pytest.mark.parametrize("upper, lower, p, z", [
    ((0.3, 0.9), (0.5,), 0.5, 0.4),
    ((0.2,), (), 0.7, 0.3),
    ((0.3, 0.5), (0.6,), 0.8, -0.5),
    ((0.4, 0.7, 0.2), (0.5, 0.9), 0.6, 0.35 + 0.2j),
])
def test_rphi_matches_mpmath_qhyper(upper, lower, p, z):
    # rphi sums its truncated series with the scalar PowerSeries.eval
    from qborel import hypergeom as hg

    with mp.workdps(40):
        ref = mp.qhyper(list(upper), list(lower), p, z)
    assert _rel(hg.rphi(hg.PhiParams(upper, lower, p), z), ref) <= 1e-13


@pytest.mark.parametrize("a, p", [(0.12, 0.5), (0.4, 0.9), (-0.3, 0.7)])
@pytest.mark.parametrize("n", [None, 7])
def test_pochhammer_matches_mpmath_qp(a, p, n):
    from qborel.qspecial import pochhammer

    with mp.workdps(40):
        ref = mp.qp(a, p) if n is None else mp.qp(a, p, n)
    assert _rel(pochhammer(a, p, n), ref) <= 1e-14
