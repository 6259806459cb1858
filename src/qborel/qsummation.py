"""q-Borel / q-Laplace summation.

Level-k transforms are conjugates of the level-1 transforms in the variable
xi = zeta^k, which carries the rescaled parameter q^k (rho_k intertwines
sigma_q with sigma_{q^k}); the order-k q-Borel therefore divides coefficient
n by [n/k]_{q^k}!.  On the shared node grid {Q^(t/M) e^{i d}} every q-Laplace
level is a convolution against the kernel (Q-1)/M y / e_Q(Q y), which is how
the ladder stages are evaluated (M = 1 for the Jackson sum).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import qspecial
from .classical import (
    DirectionSet,
    RayHandle,
    SectionPipeline,
    SummationChain,
    SummationLadder,
    SummedFunction,
    _STRIP_EFOLDS,
    _LogGrid,
    _angdiff,
    _build_sections,
    _cauchy_hadamard,
    _check_series,
    _jumps,
    _refuse_sub_unit,
    _summation_ladder,
    _truncate_overflow,
    _window_sum,
)
from .errors import (
    ArgumentError,
    DomainError,
    PoleError,
    RangeError,
    SpiralCollisionError,
    UnsupportedError,
)
from .operators import LinearOperator, newton_polygon, rz_borel_operator, solve_series
from .series import (
    PowerSeries,
    SectorPoint,
    as_sector_point,
    q_factorial,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# q-Borel transforms


def q_borel(s: PowerSeries, k, q: float) -> PowerSeries:
    """Order-k q-Borel: divide the coefficient of z^e by [e/k]_{q^k}!.

    Requires e/k to be a nonnegative integer on the support (guaranteed on
    ladder sections after ramification).
    """
    k = Fraction(k)
    if k <= 0:
        raise ArgumentError("q-Borel order must be positive")
    Q = q ** float(k)
    nu = s.ram_index
    out = []
    for n, c in enumerate(s.coefficients):
        if c == 0:
            out.append(0.0)
            continue
        idx = Fraction(n, nu) / k
        if idx.denominator != 1:
            raise UnsupportedError(
                f"exponent {Fraction(n, nu)} is not a multiple of the q-Borel "
                f"order {k}; ramify first"
            )
        out.append(c / q_factorial(int(idx), Q))
    return PowerSeries(out, nu)


def rz_borel(s: PowerSeries, q: float) -> PowerSeries:
    """Theta-weight q-Borel: divide coefficient n by q^{n(n-1)/2}."""
    if s.ram_index != 1:
        raise ArgumentError("rz_borel requires an unramified series")
    return s.termwise(lambda n: q ** (-n * (n - 1) / 2.0))


# ---------------------------------------------------------------------------
# elementary vectorized kernels


def _window(log_ratio: Callable[[np.ndarray], np.ndarray], below: float,
            above: float) -> tuple[int, int, int]:
    """Support (j_lo, j_peak, j_hi) of a kernel K_j known by its exact step
    ratio, log|K_(j+1) / K_j| = log_ratio(j) for an integer array j: the
    cumulative log ratio falls `below` e-folds under the peak at j_lo and
    `above` e-folds at j_hi (each edge one node past its cut)."""
    lo, hi = -64, 64
    while True:
        logk = np.concatenate(([0.0], np.cumsum(log_ratio(np.arange(lo, hi)))))
        peak = int(np.argmax(logk))
        short_lo = not logk[0] < logk[peak] - below
        short_hi = not logk[-1] < logk[peak] - above
        if not (short_lo or short_hi):
            break
        if hi - lo > 1 << 22:
            raise RangeError("q-Laplace kernel does not decay on its node grid")
        lo, hi = (2 * lo if short_lo else lo), (2 * hi if short_hi else hi)
    first = int(np.argmax(logk >= logk[peak] - below))
    last = len(logk) - 1 - int(np.argmax(logk[::-1] >= logk[peak] - above))
    return lo + first - 1, lo + peak, lo + last + 1


def _eq_window(Q: float, M: int, arg_y: float) -> tuple[int, int]:
    """Offsets [a, b], in steps Q^(1/M), of the nodes y = Q^(t/M) e^{i arg_y}
    on which the e_Q kernel K(y) = y / e_Q(Q y) is kept: from its step ratio
    K(Q y) / K(y) = Q / (1 + (Q-1) Q y), the geometric lower tail is cut 42
    e-folds under the peak and the upper tail 92; one Q-step is added on each
    side for a node grid offset from y = 1."""
    lnQ = math.log(Q)
    c = (Q - 1.0) * Q * cmath.exp(1j * arg_y)
    j_lo, _, j_hi = _window(lambda j: lnQ - np.log(np.abs(1.0 + c * np.exp(j * lnQ))),
                            42.0, 92.0)
    return M * (j_lo - 1), M * (j_hi + 1)


def _eq_kernel(y: np.ndarray, Q: float, M: int) -> np.ndarray:
    """The e_Q kernel (Q-1)/M * y / e_Q(Q y) on a geometric grid with
    y[i + M] = Q y[i] whose M lowest nodes are tiny (|y| ~ 1e-18 at a window's
    low end): e_Q there is the product (a few factors), and every node above
    follows from the step ratio e_Q(Q x) = (1 + (Q-1) x) e_Q(x), one
    cumulative product per residue class."""
    x = Q * y
    eq = np.empty(len(x), dtype=complex)
    eq[:M] = [qspecial._eq_product(v, Q) for v in x[:M]]
    eq[M:] = 1.0 + (Q - 1.0) * x[:-M]
    for r in range(M):
        eq[r::M] = np.cumprod(eq[r::M])
    return (Q - 1.0) / M * y / eq


# No level kernel of a q section spans more nodes than this: only Q_w <
# 1.0004, at one node per step, reaches it.
_KERNEL_CAP = 120000


# ---------------------------------------------------------------------------
# Jackson integral (public op)


def jackson_integral(f: Callable[[complex], complex], d: float, q: float) -> complex:
    """(q-1) sum_l f(q^l e^{id}) q^l e^{id}, truncated two-sided once the
    tails fall below 1e-16 of the running sum, over |l| <= max(400,
    ceil(60/log q)) (nodes out to e^(+-60)); divergence raises RangeError."""
    if q <= 1.0:
        raise DomainError("Jackson integral requires q > 1")
    max_half, tol = max(400, math.ceil(60.0 / math.log(q))), 1e-16
    phase = cmath.exp(1j * d)
    total = 0.0 + 0.0j
    # upward: integrands may legitimately rise toward an interior peak, so
    # divergence is flagged only by overflow or by failing to decay in range
    for l in range(0, max_half + 1):
        node = q**l * phase
        term = (q - 1.0) * f(node) * node
        total += term
        if not abs(term) < 1e250:
            raise RangeError("Jackson integral diverges along the positive tail")
        if abs(term) < tol * max(abs(total), 1e-300) and l > 4:
            break
    else:
        raise RangeError(f"Jackson integral not converged within l <= {max_half}")
    for l in range(-1, -max_half - 1, -1):
        node = q**l * phase
        term = (q - 1.0) * f(node) * node
        total += term
        if abs(term) < tol * max(abs(total), 1e-300):
            break
    else:
        raise RangeError(f"Jackson integral not converged within l >= -{max_half}")
    return total


# ---------------------------------------------------------------------------
# continuation by the q-difference equation


@dataclass(frozen=True)
class PoleSpiral:
    """Discrete spiral base * ratio^Z (recorded pole locus)."""

    base: complex
    ratio: float

    def distance_rel(self, z: complex) -> float:
        """Relative angular-radial distance from z to the spiral."""
        if z == 0 or self.base == 0:
            return math.inf
        w = z / self.base
        t = round(math.log(abs(w)) / math.log(self.ratio))
        node = self.base * self.ratio**t
        return abs(z - node) / abs(node)

    def _refuse(self, z, what: str = "z"):
        """Raise PoleError if z (a SectorPoint or complex) lies within 1e-6
        of the spiral."""
        zc = z.to_complex() if isinstance(z, SectorPoint) else z
        if self.distance_rel(zc) < 1e-6:
            raise PoleError(
                f"{what} = {zc:.6g} lies within 1e-6 of the pole spiral "
                f"(base {self.base:.6g}, ratio {self.ratio:.6g})"
            )


class QContinuation:
    """Meromorphic continuation of a convergent series along a ray by
    iterating the first-order-system form of its q-difference equation.

    Inside the anchor disk, where the series tail is checked, the series is
    summed directly; outside, the value is pulled forward by exact sigma_q
    steps from the last m in-disk nodes of its q-grid.  Pole spirals of the
    system are recorded; a ray that meets one raises SpiralCollisionError.
    """

    def __init__(self, series: PowerSeries, op: LinearOperator, direction: float):
        if series.ram_index != 1 or (op.rhs is not None and op.rhs.ram_index != 1):
            raise ArgumentError("q-continuation works on unramified series")
        if op.kind != "q_difference":
            raise ArgumentError("q-continuation needs a q-difference operator")
        self.series = series
        self.op = op.to_sigma_basis()
        self.q = self.op.q
        self.direction = direction
        if not np.all(np.isfinite(np.abs(series.coefficients))):
            raise ArgumentError("series for continuation has non-finite coefficients")
        self.radius = _cauchy_hadamard(series.coefficients)
        if not (self.radius > 0.0):
            raise ArgumentError("series for continuation has zero radius estimate")
        self._m = self.op.order
        self._lead = self.op.coefficients[-1]
        self.pole_spirals = self._spirals()
        self._check_ray()
        # seeds must sit deep inside the disk: walks of order >= 2 amplify
        # seed error by the dominant/subdominant solution ratio, so the
        # series tail at the outermost seed point is checked explicitly
        # (in logs: the tail term overflows a float for a large radius)
        anchor = 0.45 * self.radius / self.q ** max(self._m - 1, 0)
        coeffs_abs = np.abs(series.coefficients)
        N = len(coeffs_abs)
        log_last = math.log(coeffs_abs[-1]) if coeffs_abs[-1] > 0 else -math.inf
        for _ in range(60):
            top = anchor * self.q ** max(self._m - 1, 0)
            scale = max(abs(self.series.eval(top)), coeffs_abs[0], 1e-300)
            if log_last + (N - 1) * math.log(top) <= math.log(1e-12 * scale):
                break
            anchor *= 0.7
        self._anchor_disk = anchor * self.q ** max(self._m - 1, 0)

    def _spirals(self) -> list[PoleSpiral]:
        out = []
        for rho in self._lead.nonzero_roots():
            # stepping divides by b_m at q^{t} rho-adjacent points; poles
            # propagate forward along q^(N*) rho
            out.append(PoleSpiral(complex(rho) * self.q, self.q))
        return out

    def _check_ray(self):
        d = self.direction
        for sp in self.pole_spirals:
            if abs(_angdiff(cmath.phase(sp.base), d)) < 1e-9:
                raise SpiralCollisionError(
                    f"continuation ray arg={d} meets the pole spiral through "
                    f"{sp.base} (ratio {sp.ratio})"
                )

    def eval_at(self, zeta) -> complex:
        """Value at an arbitrary nonzero point reached from the disk along
        its own q-spiral (finitely many sigma_q steps)."""
        return complex(self.grid_values(complex(zeta), 0, 0)[0])

    def grid_values(self, base: complex, t_lo: int, t_hi: int, M: int = 1,
                    below: Optional[np.ndarray] = None) -> np.ndarray:
        """Values on the grid base * q^(t/M) for t in [t_lo, t_hi].  Each of
        the M residue classes of t is a q-grid; the classes are seeded in the
        anchor disk and walked together.  below, the values at the nodes just
        under t_lo, resumes the walk from its last M m values when t_lo lies
        above the disk: only the new nodes are computed, as in a walk from
        the disk, bit for bit."""
        q, m = self.q, self._m
        mM, h = m * M, math.log(q) / M
        t_in = math.floor(math.log(self._anchor_disk / abs(base)) / h)   # last in-disk node
        resume = below is not None and len(below) >= mM > 0 and t_lo > t_in
        start = t_lo - mM if resume else min(t_lo, t_in - mM + 1)
        ts = np.arange(start, t_hi + 1)
        # node base q^(r/M) q^T for t = M T + r; scalar powers, as numpy's
        # array power can differ in the last bit
        steps = np.array([math.exp(h * r) for r in range(M)])
        powers = np.array([q ** float(T) for T in range(start // M, t_hi // M + 1)])
        x = base * steps[ts % M] * powers[ts // M - start // M]
        n_in = mM if resume else min(t_in - start + 1, len(x))
        vals = np.empty(len(x), dtype=complex)
        vals[:n_in] = below[-mM:] if resume else self.series.eval_many(x[:n_in])
        if n_in < len(x):
            if m == 0:
                raise UnsupportedError("cannot continue with an order-0 operator")
            # x[i + M] = q x[i]: a sigma_q step from the last m in-disk nodes
            s = n_in - mM
            vals[s:] = self._walk(x[s : len(x) - mM], vals[s:n_in], M)
        return vals[t_lo - start :]

    def _walk(self, bases: np.ndarray, seeds: np.ndarray, M: int) -> np.ndarray:
        """Step f by sigma_q from the M m seeds f(bases[r] q^j), j < m, r < M:
        step i solves b_m(w) f(w q^m) = rhs(w) - sum_j b_j(w) f(w q^j) at
        w = bases[i], where bases[i + M] = q bases[i].  Returns the seeds
        followed by the walked values."""
        m, n = self._m, len(bases)
        rows = np.empty((n, m + 1), dtype=complex)   # b_m, b_(m-1), ..., b_0
        for i, b in enumerate(self.op.coefficients[::-1]):
            rows[:, i] = 0.0 if b.is_zero else np.polynomial.polynomial.polyval(bases, b.coeffs)
        rhs = np.zeros(n, dtype=complex)
        if self.op.rhs is not None:
            rhs[:] = np.polynomial.polynomial.polyval(bases, self.op.rhs.coefficients)
        scale = np.polynomial.polynomial.polyval(np.abs(bases), np.abs(self._lead.coeffs))
        hit = np.flatnonzero(np.abs(rows[:, 0]) <= 1e-12 * np.maximum(scale, 1e-300))
        if len(hit):
            raise SpiralCollisionError(
                f"sigma_q step hit a zero of the leading coefficient near "
                f"{bases[hit[0]] * self.q**m}"
            )
        mM = m * M
        out = np.empty(mM + n, dtype=complex)
        out[:mM] = seeds
        for t in range(mM, mM + n):
            acc = rhs[t - mM]
            for i in range(1, m + 1):
                acc -= rows[t - mM, i] * out[t - i * M]
            out[t] = acc / rows[t - mM, 0]
        return out


def q_continuation(s: PowerSeries, q_op: LinearOperator, d: float) -> QContinuation:
    """Continuation handle for a convergent q-series along the ray arg = d."""
    return QContinuation(s, q_op, d)


# ---------------------------------------------------------------------------
# q-Laplace transforms (pointwise forms)


_STRIP_FLOOR = math.pi / 8
_HANDLE_NODES = 8          # nodes per step for a RayHandle, whose poles are unknown


def _nodes_per_step(k, d: float, q: float, spirals: Sequence[PoleSpiral]) -> int:
    """Nodes M per Q-step, Q = q^k, of an order-k continuous q-Laplace in
    direction d: the classical step rule 2 pi a M / log Q >= _STRIP_EFOLDS,
    a the half-width of the strip about the ray in log xi (k times the angle
    from d to the nearest pole spiral), kept between _STRIP_FLOOR and pi/2:
    more nodes do not resolve a nearer spiral."""
    lam = float(k)
    a = min([math.pi / 2] + [lam * abs(_angdiff(cmath.phase(sp.base), d)) for sp in spirals])
    return max(1, math.ceil(_STRIP_EFOLDS * lam * math.log(q) / (TWO_PI * max(a, _STRIP_FLOOR))))


def _level(k, d: float, q: float, z, M: int) -> tuple[int, int, np.ndarray]:
    """Node range [lo, hi] and kernel of an order-k q-Laplace in direction d
    at z, on the nodes q^(t/M) e^{id}: the kernel-window sum is
    (Q-1)/M sum_t xi_t F_t / (Z e_Q(Q xi_t / Z)) over xi_t = Q^(t/M) e^{i k d},
    Q = q^k and Z = z^k.  M = 1 is the Jackson sum, M = _nodes_per_step the
    log-trapezoid rule of the continuous q-Laplace.  Z within 1e-6 of the
    pole spiral (Q-1) Q^Z e^{i(kd+pi)} raises."""
    lam = float(Fraction(k))
    Q = q**lam
    Z = cmath.exp(lam * as_sector_point(z).complex_log())
    PoleSpiral((Q - 1.0) * cmath.exp(1j * (lam * d + math.pi)), Q)._refuse(Z, "z^k")
    lnQ = math.log(Q)
    u = M * math.log(abs(Z)) / lnQ
    a, b = _eq_window(Q, M, lam * d - cmath.phase(Z))
    lo, hi = math.floor(u) + a, math.ceil(u) + b
    xi = np.exp(np.arange(lo, hi + 1) * (lnQ / M)) * cmath.exp(1j * lam * d)
    return lo, hi, _eq_kernel(xi / Z, Q, M)


def _theta_window(d: float, q: float, z) -> tuple[int, int, np.ndarray]:
    """Node range [lo, hi] and kernel 1/Theta_q(x_n), x_n = q^(n+1) (q-1) e^{id} / z,
    of the theta-kernel q-Laplace in direction d at z, on the nodes
    q^n (q-1) e^{id}.  Theta_q(q x) = x Theta_q(x), so the kernel has the step
    ratio 1/x_n: it is kept 92 e-folds down on both sides of its peak and
    built from one theta value there.  z within 1e-6 of the pole spiral
    (q-1)[d+pi] raises."""
    zc = as_sector_point(z).to_complex()
    PoleSpiral((q - 1.0) * cmath.exp(1j * (d + math.pi)), q)._refuse(zc)
    x0 = q * (q - 1.0) * cmath.exp(1j * d) / zc
    lnq, ln_x0 = math.log(q), math.log(abs(x0))
    lo, peak, hi = _window(lambda n: -(ln_x0 + n * lnq), 92.0, 92.0)
    x = x0 * np.array([q ** float(n) for n in range(lo, hi + 1)])
    p = peak - lo
    kernel = np.empty(len(x), dtype=complex)
    kernel[p] = 1.0 / qspecial.theta(x[p], q)
    kernel[p + 1 :] = kernel[p] * np.cumprod(1.0 / x[p:-1])
    kernel[:p] = kernel[p] * np.cumprod(x[:p][::-1])[::-1]
    return lo, hi, kernel


def _ray_values(f, d: float, r0: float, q: float, lo: int, hi: int, M: int) -> np.ndarray:
    """f at the ray nodes r0 q^(t/M) e^{id}, t in [lo, hi]: one walk for a
    q-continuation of the transform's q, one eval_ray_many call for a
    RayHandle (which evaluates along its own direction)."""
    if isinstance(f, QContinuation) and f.q == q:
        return f.grid_values(r0 * cmath.exp(1j * d), lo, hi, M)
    if isinstance(f, RayHandle):
        return f.eval_ray_many(np.array([r0 * q ** (t / M) for t in range(lo, hi + 1)]))
    raise ArgumentError("q-Laplace transforms take a RayHandle or a q-continuation "
                        "of their own q")


def discrete_q_laplace(f, k, d: float, q: float, z) -> complex:
    """Jackson-sum q-Laplace of order k in direction d, evaluated at z.

    Nodes are q^l e^{id} in the plane of f, xi = (q^l e^{id})^k in the
    conjugate variable, where the kernel is built from e_{q^k}.  Poles of the
    result lie on the q-spiral (q^k - 1)[k d + pi] of z^k (checked before
    summing); growth that outruns the kernel raises RangeError at the
    window's edge.
    """
    lo, hi, kernel = _level(k, d, q, z, 1)
    return _window_sum(_ray_values(f, d, 1.0, q, lo, hi, 1), kernel)


def continuous_q_laplace(f, k, d: float, q: float, z) -> complex:
    """Continuous q-Laplace of order k:
    (q^k-1)/log(q^k) * int_0^{inf e^{ikd}} rho_{1/k}f(xi) / (Z e_{q^k}(q^k xi/Z)) dxi,
    by the trapezoid rule in log xi with _nodes_per_step nodes per q^k-step.
    """
    M = (_nodes_per_step(k, d, q, f.pole_spirals) if isinstance(f, QContinuation)
         else _HANDLE_NODES)
    lo, hi, kernel = _level(k, d, q, z, M)
    return _window_sum(_ray_values(f, d, 1.0, q, lo, hi, M), kernel)


def theta_q_laplace(f, d: float, q: float, z) -> complex:
    """Theta-kernel q-Laplace (order 1):
    sum_n f(q^n (q-1) e^{id}) / Theta_q(x_n), x_n = q^{n+1} (q-1) e^{id} / z."""
    lo, hi, kernel = _theta_window(d, q, z)
    return _window_sum(_ray_values(f, d, q - 1.0, q, lo, hi, 1), kernel)


# ---------------------------------------------------------------------------
# q-multisummation pipeline


class _QSection(_LogGrid):
    """Per-section stage data on the shared log-uniform node grid (_LogGrid).

    The grid is x_t = exp(h t) e^{i d_w} with h = log(Q_w)/M; every q-Laplace
    level but the last is a correlation with its node kernel, and the last
    is the kernel-window sum of value().  M = 1 gives the Jackson (discrete)
    summation exactly; M = _nodes_per_step the continuous one to rounding for
    |arg w - d_w| <= pi/2 (trapezoid rule in log coordinates).  A theta
    section (mode 'theta', one level, M = 1) has the
    grid (q-1) q^t e^{id} and sums it with the theta kernel.
    """

    def __init__(self, sec: SectionPipeline, Qw: float, d_w: float, mode: str):
        self.l = sec.l
        self.levels = sec.levels - 1      # the correlated levels, below the last
        self.Qw = Qw
        self.d_w = d_w
        self.mode = mode
        self.base = (Qw - 1.0 if mode == "theta" else 1.0) * cmath.exp(1j * d_w)
        self.cont = QContinuation(sec.g1, sec.op, d_w)
        self.M = _nodes_per_step(1, d_w, Qw, self.cont.pole_spirals) if mode == "continuous" else 1

    @functools.cached_property
    def _kernel(self) -> Optional[tuple[np.ndarray, int]]:
        """(K, L1) of the levels, built once: every level is order 1 in w
        (sub-unit ladders are refused), so one kernel serves them all:
        _level's at w = 1 along the real axis, whose tap j weighs node
        t + j - L1, L1 = -lo."""
        if not self.levels:
            return None
        k_lo, k_hi, K = _level(1, 0.0, self.Qw, 1.0, self.M)
        if k_hi - k_lo > _KERNEL_CAP:
            raise RangeError(f"kernel support {k_hi - k_lo} exceeds the node cap {_KERNEL_CAP}")
        return K, -k_lo

    def _ensure_grid_locked(self, lo: int, hi: int) -> tuple:
        """_LogGrid._grow from the walk."""
        return self._grow(lo, hi, lambda a, b, below: self.cont.grid_values(
                              self.base, a, b, self.M, below), self._kernel, self.levels)

    def value(self, w: SectorPoint) -> complex:
        if self.mode == "theta":
            lo, hi, kernel = _theta_window(self.d_w, self.Qw, w)
        else:
            lo, hi, kernel = _level(1, self.d_w, self.Qw, w, self.M)
        return _window_sum(self._nodes(lo, hi), kernel)


def _final_pole_spirals(ladder: SummationLadder, d: float, q: float) -> tuple:
    k_r = ladder.top_level
    Qh = q**k_r
    out = []
    for j in range(k_r):
        base_mod = (Qh - 1.0) ** (1.0 / k_r)
        ang = d + (math.pi + TWO_PI * j) / k_r
        out.append(PoleSpiral(base_mod * cmath.exp(1j * ang), q))
    return tuple(out)


@dataclass(frozen=True)
class QSummationChain(SummationChain):
    """The SummationChain of a q-difference operator in one mode."""

    mode: str = "discrete"

    def _at(self, d: float) -> SummedFunction:
        q, ladder = self.op.q, self.ladder
        if self.mode == "theta":
            spiral = PoleSpiral((q - 1.0) * cmath.exp(1j * (d + math.pi)), q)
            return SummedFunction(None, d, [_QSection(sec, q, d, "theta") for sec in self.sections],
                                  (spiral,))
        return SummedFunction(ladder, d, [_QSection(sec, q**ladder.beta, ladder.beta * d, self.mode)
                                          for sec in self.sections],
                              _final_pole_spirals(ladder, d, q),
                              math.pi / ladder.top_level + 1e-12)


def q_summation_chain(op: LinearOperator, mode: str = "discrete",
                      limit: Optional[SummationChain] = None, order: int = 240,
                      s: Optional[PowerSeries] = None) -> QSummationChain:
    """The QSummationChain of a q-difference operator, shared by its sums in
    every direction and its lateral pairs.  mode 'discrete' and 'continuous'
    run the q-factorial section chain on the Jackson and appendix kernels;
    'theta' is one section, the theta-weight q-Borel transform of s (else of
    the operator's own series) summed by the theta-kernel q-Laplace, for a
    sigma_q polygon whose only positive slope is 1.  limit, the
    summation_chain of a family's limit operator, gives the ladder its
    polygon and the chain its singular directions (none without it)."""
    if op.kind != "q_difference":
        raise ArgumentError("q_multisum needs a q-difference operator")
    if mode not in ("discrete", "continuous", "theta"):
        raise ArgumentError(f"unknown q-summation mode {mode!r}")
    _check_series(op, s)
    sop = op.to_sigma_basis()
    if newton_polygon(sop).is_convergent_only():
        return QSummationChain(op, None, (), DirectionSet((), ()), order, s, mode)
    ladder = _summation_ladder(op, None if limit is None else limit.op)
    if mode == "theta":
        if newton_polygon(sop).positive_slopes() != (Fraction(1),):
            raise UnsupportedError("theta-kernel summation applies to sigma_q polygons "
                                   "whose only positive slope is 1")
        if s is None:
            with np.errstate(over="ignore", invalid="ignore"):
                s = solve_series(op, order)
            s = PowerSeries(_truncate_overflow(s.coefficients, 0), 1)
        sections = (SectionPipeline(0, 1, rz_borel_operator(op), rz_borel(s, sop.q)),)
    else:
        _refuse_sub_unit(ladder)
        sections = tuple(_build_sections(sop, ladder, order, "qfact"))
    directions = DirectionSet((), ()) if limit is None else limit.directions
    return QSummationChain(op, ladder, sections, directions, order, mode=mode)


def q_multisum(
    s: Optional[PowerSeries],
    op: LinearOperator,
    d: float,
    mode: str = "discrete",
    limit: Optional[SummationChain] = None,
    order: int = 240,
) -> SummedFunction:
    """q-Borel/q-Laplace multisummation S_q^{[d]} of the formal solution, from
    q_summation_chain (arguments as there; a supplied s must satisfy op).  A
    singular d of limit raises, and so does evaluation within 1e-6 relative
    distance of a recorded pole spiral."""
    return q_summation_chain(op, mode, limit, order, s).sum(d)


# ---------------------------------------------------------------------------
# q-Stokes jump (scalar demonstration)


def first_order_homogeneous_solution(op: LinearOperator):
    """Nonvanishing solution of the order-1 homogeneous part b1 z dq y + b0 y = 0
    when b1 = c*z, b0 = c (the q-deformed Euler shape): y = 1/e_q(-q a / z)
    with a = b0/b1-coefficient ratio; used to normalize scalar q-Stokes jumps."""
    from .qspecial import eq_exp

    sop = op.to_delta_q_basis()
    if sop.order != 1:
        raise UnsupportedError("normalizer implemented for first-order operators")
    b1, b0 = sop.coefficients[1], sop.coefficients[0]
    if b1.degree != 1 or abs(b1.coeffs[0]) > 1e-14 or b0.degree != 0:
        raise UnsupportedError(
            "normalizer needs b1 = c*z and b0 = c' (q-Euler shape)"
        )
    a = complex(b0.coeffs[0] / b1.coeffs[1])
    q = sop.q

    def y_h(z) -> complex:
        zp = as_sector_point(z)
        return 1.0 / eq_exp(-q * a / zp.to_complex(), q)

    return y_h


def q_stokes_jump(
    s: Optional[PowerSeries],
    op: LinearOperator,
    d_singular: float,
    zs: Sequence,
    mode: str = "discrete",
    limit: Optional[SummationChain] = None,
    order: int = 240,
) -> list[complex]:
    """S_q^{[d+]}(h)(z) - S_q^{[d-]}(h)(z) across a singular direction d of
    the limit operator, one per point z of zs (ask for z and q z together);
    each solves the homogeneous q-equation, and its normalized form (divided
    by a nonvanishing homogeneous solution) is sigma_q-invariant.  One
    lateral pair of the q_summation_chain serves all points; the jumps are 0
    off the singular set of limit, and a divergent operator needs limit."""
    return _jumps(q_summation_chain(op, mode, limit, order, s).lateral_pair(d_singular), zs)


# ---------------------------------------------------------------------------
# (A1)-(A3) validation


@dataclass
class ConfluenceReport:
    """Runtime report of the standing assumptions over a q-grid."""

    q_grid: tuple[float, ...]
    a1_deviation: tuple[float, ...]
    a1_pass: bool
    a2_slopes_q: tuple
    a2_slopes_limit: tuple
    a2_pass: bool
    a3_c1: tuple[float, ...]
    a3_slope: float
    a3_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.a1_pass and self.a2_pass and self.a3_pass


def validate_confluence_family(
    op_of_q: Callable[[float], LinearOperator],
    limit: LinearOperator,
    q_grid: Sequence[float],
    z_samples: Optional[Sequence[complex]] = None,
) -> ConfluenceReport:
    """Measure the standing assumptions of the q -> 1 confluence on a q-grid:
    coefficientwise convergence of the family, slope matching of the q- and
    differential Newton polygons, and the (A3) stability constant
    c1 = sup |b_i(z,q) - b~_i(z)| / ((q-1)(|b~_i(z)|+1))."""
    q_grid = tuple(sorted(q_grid, reverse=True))
    if any(q <= 1.0 for q in q_grid):
        raise ArgumentError("q-grid entries must exceed 1")
    if len(set(q_grid)) < 2:
        # (A1) reads a trend and (A3) fits a slope: one q shows neither
        raise ArgumentError("validation needs at least 2 distinct q values")
    if z_samples is None:
        z_samples = [
            r * cmath.exp(1j * TWO_PI * k / 8)
            for r in (0.3, 1.0, 3.0)
            for k in range(8)
        ]
    limit_polygon = newton_polygon(limit)
    limit_coeffs = limit.coefficients
    a1 = []
    a3 = []
    slopes_q = None
    a2_ok = True
    for q in q_grid:
        opq = op_of_q(q).to_delta_q_basis()
        if opq.order != limit.order:
            raise ArgumentError("family and limit operator orders differ")
        dev = 0.0
        c1 = 0.0
        for i in range(limit.order + 1):
            bq = opq.coefficients[i]
            bl = limit_coeffs[i]
            n = max(len(bq.coeffs), len(bl.coeffs))
            da = np.zeros(n, dtype=complex)
            da[: len(bq.coeffs)] += bq.coeffs
            da[: len(bl.coeffs)] -= bl.coeffs
            dev = max(dev, float(np.max(np.abs(da))) if n else 0.0)
            for zs in z_samples:
                num = abs(bq(zs) - bl(zs))
                c1 = max(c1, num / ((q - 1.0) * (abs(bl(zs)) + 1.0)))
        a1.append(dev)
        a3.append(c1)
        pq = newton_polygon(opq.to_sigma_basis())
        pos = tuple(sl for sl, _ in pq.slopes if sl > 0)
        if slopes_q is None:
            slopes_q = pos
        elif pos != slopes_q:
            a2_ok = False
    limit_pos = tuple(sl for sl, _ in limit_polygon.slopes if sl > 0)
    a2_ok = a2_ok and (slopes_q == limit_pos)
    # A1: deviations must vanish with q (or be identically ~0)
    if a1[0] < 1e-12:
        a1_ok = all(v < 1e-12 for v in a1)
    else:
        a1_ok = a1[-1] < 0.2 * a1[0] + 1e-12
    # A3: c1 finite and stable as q -> 1 (log-log slope must not diverge)
    xs = np.log([q - 1.0 for q in q_grid])
    cs = np.log([max(c, 1e-300) for c in a3])
    if max(a3) < 1e-12:
        slope = 0.0
        a3_ok = True
    else:
        slope = float(np.polyfit(xs, cs, 1)[0])
        a3_ok = math.isfinite(max(a3)) and slope > -0.05
    return ConfluenceReport(
        q_grid, tuple(a1), a1_ok, slopes_q, limit_pos, a2_ok,
        tuple(a3), slope, a3_ok,
    )
