"""Classical Borel-Laplace multisummation.

The pipeline follows the ladder construction: the positive Newton-polygon
slopes k_1 < ... < k_{r-1} are completed by an integer top level k_r, the
intermediate orders kappa_i (1/kappa_i = 1/k_i - 1/k_{i+1}) are replaced by
alpha_i copies of alpha_i*kappa_i so that every level is >= d0, and the
series is split into beta-sections.  Each section is summed in the variable
w = z^beta, where the Borel orders kappa~_i/beta are reciprocals of integers
and the whole chain reduces to weight clearing at the recurrence level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    BracketingError,
    DomainError,
    GrowthError,
    SingularDirectionError,
    UnsupportedError,
    ValidationError,
)
from .operators import (
    LinearOperator,
    NewtonPolygon,
    Recurrence,
    newton_polygon,
    residual as op_residual,
    reweight_recurrence,
    section_recurrence,
    solve_series,
)
from .series import PowerSeries, SectorPoint, as_sector_point, gamma

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Ladder construction


@dataclass(frozen=True)
class SummationLadder:
    """Levels of the multisummation ladder (all entries exact rationals)."""

    positive_slopes: tuple[Fraction, ...]
    top_level: int
    kappa: tuple[Fraction, ...]
    kappa_tilde: tuple[Fraction, ...]
    beta: int
    d0: int

    def __post_init__(self):
        k = list(self.positive_slopes) + [Fraction(self.top_level)]
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise ArgumentError("ladder slopes must be strictly increasing")
        expect_kappa = []
        for i in range(len(k)):
            inv = Fraction(1, 1) / k[i] - (Fraction(1, 1) / k[i + 1] if i + 1 < len(k) else 0)
            expect_kappa.append(1 / inv)
        if tuple(expect_kappa) != self.kappa:
            raise ArgumentError("kappa levels inconsistent with slopes")
        if sum(Fraction(1, 1) / kt for kt in self.kappa_tilde) != Fraction(1, 1) / k[0]:
            raise ArgumentError("kappa~ reciprocals must sum to 1/k_1")
        if self.kappa_tilde[-1] != self.top_level:
            raise ArgumentError("last kappa~ must equal the top level")
        if any(kt < self.d0 for kt in self.kappa_tilde):
            raise ArgumentError("every kappa~ must be >= d0")
        for kt in self.kappa_tilde:
            if (Fraction(self.beta) / kt).denominator != 1:
                raise ArgumentError("beta must clear every kappa~")

    @property
    def levels(self) -> int:
        return len(self.kappa_tilde)

    def w_orders(self) -> tuple[Fraction, ...]:
        """Ladder orders in the section variable w = z^beta (each 1/integer)."""
        return tuple(kt / self.beta for kt in self.kappa_tilde)


def build_ladder(
    polygon: NewtonPolygon,
    coefficient_degrees: Sequence[int],
    k_r_choice: Optional[int] = None,
) -> SummationLadder:
    """Build the summation ladder from the polygon's positive slopes.

    d0 = max(2, degrees); the top level is the minimal integer exceeding both
    the largest slope and d0 unless a larger choice is supplied.
    """
    slopes = polygon.positive_slopes()
    if not slopes:
        raise ArgumentError("ladder construction needs at least one positive slope")
    d0 = max(2, max(int(d) for d in coefficient_degrees))
    minimal = max(slopes[-1], Fraction(d0))
    k_r_min = int(minimal) + 1
    if k_r_choice is None:
        k_r = k_r_min
    else:
        k_r = int(k_r_choice)
        if k_r <= max(slopes[-1], Fraction(d0)):
            raise ArgumentError(
                f"top level {k_r} must exceed both the largest slope and d0={d0}"
            )
    k = list(slopes) + [Fraction(k_r), None]
    kappa = []
    for i in range(len(k) - 1):
        nxt = k[i + 1]
        inv = Fraction(1, 1) / k[i] - (Fraction(1, 1) / nxt if nxt is not None else 0)
        kappa.append(1 / inv)
    kappa_tilde: list[Fraction] = []
    for ki in kappa:
        alpha = 1
        while alpha * ki < d0:
            alpha += 1
        kappa_tilde.extend([alpha * ki] * alpha)
    beta = 1
    while any((Fraction(beta) / kt).denominator != 1 for kt in kappa_tilde):
        beta += 1
    return SummationLadder(
        tuple(slopes), k_r, tuple(kappa), tuple(kappa_tilde), beta, d0
    )


def _summation_ladder(op: LinearOperator, ref: Optional[LinearOperator] = None,
                      k_r: Optional[int] = None) -> SummationLadder:
    """The ladder every sum of op is built on: the polygon and coefficient
    degrees of ref (the limit operator of a q-family) if given, else of op
    (delta_q basis for q-difference operators), plus the degree of op's
    right-hand side."""
    ref = op if ref is None else ref
    coeffs = ref.to_delta_q_basis().coefficients if ref.kind == "q_difference" else ref.coefficients
    degrees = [c.degree for c in coeffs if not c.is_zero]
    if op.rhs is not None:
        degrees.append(op.rhs.truncation_order - 1)
    return build_ladder(newton_polygon(ref), degrees, k_r)


def _refuse_sub_unit(ladder: SummationLadder):
    """Sums are evaluated only on ladders whose section orders are all 1."""
    if any(lam < 1 for lam in ladder.w_orders()):
        raise UnsupportedError(
            "multisummation evaluation currently covers ladders whose "
            "section-variable orders are all 1 (slope-1 problems of any "
            "coefficient degree); fractional slopes produce sub-unit orders "
            "whose stage sweeps are outside the supported envelope"
        )


# ---------------------------------------------------------------------------
# Formal Borel transform


def formal_borel(s: PowerSeries, k) -> PowerSeries:
    """Divide the coefficient of z^e by Gamma(1 + e/k) termwise."""
    k = Fraction(k)
    if k <= 0:
        raise ArgumentError("Borel order must be positive")
    nu = s.ram_index
    return s.termwise(lambda n: 1.0 / gamma(1.0 + n / (nu * float(k))))


# ---------------------------------------------------------------------------
# Continuation handles


class RayHandle:
    """Protocol: values of an analytic function along the ray arg = d.
    Subclasses define eval_ray(x) and growth(), the constants (J, L) of an
    order-1 bound |f| <= J exp(L x); a Laplace stage also sets the reach
    _x_dom of its own Laplace domain."""

    direction: float
    _x_dom = math.inf
    _quad_epsrel = 1e-11     # relative target of a quadrature of the handle

    @cached_property
    def fit(self) -> tuple[float, float]:
        """growth(), fitted once.  Each fit runs over a fixed range of the
        ray, so threads that fit at once find the same (J, L)."""
        return self.growth()

    def eval_ray_many(self, xs) -> np.ndarray:
        return np.array([self.eval_ray(float(x)) for x in xs], dtype=complex)


class FunctionHandle(RayHandle):
    """Wrap an explicit function of the ray coordinate (tests, polynomials)."""

    def __init__(self, fn: Callable[[complex], complex], direction: float,
                 growth: tuple[float, float] = (1.0, 0.0)):
        self.fn = fn
        self.direction = direction
        self._growth = growth

    def eval_ray(self, x: float) -> complex:
        return self.fn(x * cmath.exp(1j * self.direction))

    def growth(self) -> tuple[float, float]:
        return self._growth


# A Taylor step keeps the terms of each component of V until the last two
# bound its tail below 2^-56 of its largest term; a step that needs more
# than _TAYLOR_TERMS terms raises ValidationError.
_TAYLOR_TERMS = 160


def _shifted(coeffs: list, w: complex, s: complex) -> list:
    """Coefficients in t of the polynomial sum_k coeffs[k] u^k at u = w + s t."""
    a = list(coeffs)
    for i in range(len(a) - 1):          # Ruffini-Horner shift by w
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += w * a[k + 1]
    return [c * s**k for k, c in enumerate(a)]


class _TaylorSteps(NamedTuple):
    """The Taylor steps of an ODE handle.  Step i is centred at cs[i], has
    length hs[i] and serves [los[i], cs[i] + hs[i]/2], the points nearer to
    its centre than to the others', in t = (x - cs[i])/hs[i].  rows[i] and
    column i of C (zero-padded above) hold its coefficients of f in t,
    highest first; V is the vector at the end of the last step and grid
    holds los, cs and hs as an array."""

    los: tuple
    cs: tuple
    hs: tuple
    rows: tuple
    V: tuple
    grid: np.ndarray
    C: np.ndarray


_NO_STEPS = _TaylorSteps((), (), (), (), (), np.zeros((3, 0)), np.zeros((0, 0), complex))


class _OdeRayHandle(RayHandle):
    """A ray handle continued beyond its anchor x0 by the operator's ODE
    delta V = C(w) V + F(w) for V = (f, delta f, ..., delta^{m-1} f).

    Subclasses set op, direction, _m, _lead_roots, the anchor x0 with its
    vector _V0 and, if finite, the reach _reach of the continuation.  The
    ODE runs in Taylor steps: at a point c of the ray the operator gives a
    recurrence for the Taylor coefficients of V in t = (x - c)/h (van der
    Hoeven, "Fast evaluation of holonomic functions", TCS 1999), with h = R/3
    for the distance R from c e^{id} to the nearest singular point (0 or a
    root of the leading coefficient), and each step's end vector seeds the
    next.  The steps run from x0 and each depends only on its start, so a
    value never depends on the order the points were asked in.  _steps
    holds all steps as one _TaylorSteps, replaced whole; ensure() returns
    the steps that serve a request and readers evaluate on those.  Threads
    that extend at once compute the same steps, so whichever store is
    published last is right.
    """

    _reach = math.inf
    _steps = _NO_STEPS

    def _taylor_step(self, c: float, V: tuple) -> tuple[float, list]:
        """The step from c: its length h and the coefficients of V in
        t = (x - c)/h, from the coefficients b_j and the forcing F of the
        operator.  In t, delta = (c/h + t) d/dt, so for n >= 0
        (c/h)(n + 1) V_{i,n+1} = V_{i+1,n} - n V_{i,n} for i < m - 1, with
        U = delta V_{m-1} = (F - sum_{j<m} b_j V_j)/b_m in place of V_m."""
        m = self._m
        phase = cmath.exp(1j * self.direction)
        w = c * phase
        R = min([c] + [abs(w - rho) for rho in self._lead_roots])
        h = R / 3.0
        b = [_shifted(p.coeffs.tolist(), w, h * phase) for p in self.op.coefficients]
        F = [] if self.op.rhs is None else _shifted(self.op.rhs.coefficients.tolist(), w, h * phase)
        v = [[x] + [0j] * (_TAYLOR_TERMS - 1) for x in V]
        u = [0j] * _TAYLOR_TERMS
        top = [abs(x) for x in V]
        last = top[:]
        # the nonzero terms of sum_{j<m} b_j V_j + (b_m - b_m(0)) U: (power, coefficient, series)
        terms = [(k, a, vj) for bj, vj in zip(b, v) for k, a in enumerate(bj) if a]
        terms += [(k, a, u) for k, a in enumerate(b[m]) if k and a]
        for n in range(_TAYLOR_TERMS - 1):
            acc = F[n] if n < len(F) else 0j
            for k, a, series in terms:
                if k <= n:
                    acc -= a * series[n - k]
            u[n] = acc / b[m][0]
            den = c / h * (n + 1)
            done = True
            for i, vi in enumerate(v):
                vi[n + 1] = x = ((v[i + 1][n] if i + 1 < m else u[n]) - n * vi[n]) / den
                ax = abs(x)
                if ax > top[i]:
                    top[i] = ax
                if ax + last[i] / 3.0 > 2.0**-56 * top[i]:
                    done = False
                last[i] = ax
            if done:
                return h, [vi[:n + 2] for vi in v]
        raise ValidationError(
            f"Taylor step along arg={self.direction} at x={c:.6g} (distance "
            f"R = {R:.4g} to the nearest singular point) does not bound its "
            f"tail by 2^-56 of its largest term within {_TAYLOR_TERMS} terms"
        )

    def ensure(self, x_max: float) -> _TaylorSteps:
        """The published steps, first extended until they serve x_max."""
        if x_max >= self._reach:
            raise DomainError(
                f"continuation along arg={self.direction} asked at x={x_max:.4g}, "
                f"beyond its reach {self._reach:.4g}"
            )
        steps = self._steps
        if x_max < self._x0 or (steps.cs and x_max <= steps.cs[-1] + 0.5 * steps.hs[-1]):
            return steps   # the ODE runs forward from x0
        if self._m == 0:
            raise ArgumentError("an order-0 operator has no ODE to continue along")
        los, cs, hs, rows = (list(part) for part in steps[:4])
        c, V = (cs[-1] + hs[-1], steps.V) if cs else (self._x0, tuple(self._V0.tolist()))
        while not cs or cs[-1] + 0.5 * hs[-1] < x_max:
            h, v = self._taylor_step(c, V)
            ends = [sum(reversed(vi), 0j) for vi in v]     # the Horners at t = 1
            if not all(map(cmath.isfinite, ends)):
                raise GrowthError(f"ODE continuation along arg={self.direction} "
                                  f"overflows in the step from x={c:.6g}")
            # the step serves |t| <= r: forward to t = 1/2, back to the middle
            # of the previous step (at most 3/4, as R shrinks by at most the
            # previous step's length); keep the terms above 2^-58 of the
            # largest there, so the cut ones sum to less than 2^-56 of it
            back = 0.5 * hs[-1] if cs else 0.0
            r = max(0.5, back / h)
            terms = [abs(coef) * r**n for n, coef in enumerate(v[0])]
            cut = 2.0**-58 * max(terms)
            keep = 1 + max(n for n, term in enumerate(terms) if term >= cut)
            los.append(c - back)
            cs.append(c)
            hs.append(h)
            rows.append(tuple(reversed(v[0][:keep])))
            c, V = c + h, tuple(ends)
        C = np.zeros((max(map(len, rows)), len(rows)), dtype=complex)
        for i, row in enumerate(rows):
            C[len(C) - len(row):, i] = row
        steps = _TaylorSteps(tuple(los), tuple(cs), tuple(hs), tuple(rows), V,
                             np.array([los, cs, hs]), C)
        self._steps = steps
        return steps

    def _stepped_value(self, x: float) -> complex:
        """f at the ray point x >= x0 by a Horner on the step that serves it."""
        import bisect
        steps = self.ensure(x)
        i = bisect.bisect_right(steps.los, x) - 1
        if i < 0:
            raise ArgumentError(f"point {x} outside the continued range")
        t = (x - steps.cs[i]) / steps.hs[i]
        acc = 0j
        for coef in steps.rows[i]:
            acc = acc * t + coef
        return acc

    def _segment_values(self, pts: np.ndarray) -> np.ndarray:
        """f at the ray points pts >= x0, all at once: _stepped_value's
        Horner as array operations, bit for bit."""
        steps = self.ensure(float(np.max(pts)))
        los, cs, hs = steps.grid
        i = np.searchsorted(los, pts, side="right") - 1
        # complex t multiplies as Python's complex * float does
        t = ((pts - cs[i]) / hs[i]).astype(complex)
        y = steps.C[0][i]
        for row in steps.C[1:]:
            y *= t
            y += row[i]
        return y


class ContinuationHandle(_OdeRayHandle):
    """Analytic continuation of a convergent series along a ray: direct series
    inside 0.8x the empirical radius, Taylor steps of the defining ODE
    beyond, initialized from the series at 0.5x the radius."""

    def __init__(self, series: PowerSeries, op: LinearOperator, direction: float,
                 rtol: float = 1e-12):
        if series.ram_index != 1:
            raise ArgumentError("continuation works on unramified series")
        self.series = series
        self.op = op
        self.direction = direction
        self._quad_epsrel = max(1e-11, rtol)
        self.radius = _cauchy_hadamard(series.coefficients)
        self._lead_roots = op.coefficients[-1].nonzero_roots().tolist()
        self._check_ray_clear()
        self._x0 = 0.5 * self.radius
        self._series_limit = 0.8 * self.radius
        self._m = op.order

    @property
    def _V0(self) -> np.ndarray:
        """(f, delta f, ..., delta^{m-1} f) at the anchor from the series:
        delta^i f has the coefficients n^i c_n."""
        zeta = self._x0 * cmath.exp(1j * self.direction)
        c = self.series.coefficients
        n = np.arange(len(c))
        return np.array([PowerSeries(c * n**i).eval(zeta) for i in range(self._m)])

    def _check_ray_clear(self):
        d = self.direction
        for rho in self._lead_roots:
            ang = _angdiff(cmath.phase(rho), d)
            dist = abs(rho) * abs(math.sin(ang)) if abs(ang) < math.pi / 2 else abs(rho)
            if abs(ang) < 1e-9 or dist < 1e-12 * max(abs(rho), 1.0):
                raise SingularDirectionError(
                    f"continuation ray arg={d} hits a singularity of the "
                    f"Borel-plane operator at {rho}"
                )

    def eval_ray(self, x: float) -> complex:
        if x <= self._series_limit:
            zeta = x * cmath.exp(1j * self.direction)
            return self.series.eval(zeta)
        return self._stepped_value(x)

    def eval_ray_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return np.zeros(0, dtype=complex)
        out = np.empty(len(xs), dtype=complex)
        inner = xs <= self._series_limit
        if np.any(inner):
            out[inner] = self.series.eval_many(xs[inner] * cmath.exp(1j * self.direction))
        if not np.all(inner):
            out[~inner] = self._segment_values(xs[~inner])
        return out

    def growth(self) -> tuple[float, float]:
        # double x from x0 until it reaches max(16 r, 8), far enough for the
        # tail log-slope to settle; stop early at a point whose value escapes
        # the safe float range (the fit then ends there)
        target = max(16.0 * max(self.radius, 1e-3), 8.0)
        x = self._x0
        while x < target:
            x *= 2.0
            if abs(self.eval_ray(x)) > 1e200:
                break
        return _fit_growth(self.eval_ray, 0.3 * self.radius, x)


def _cauchy_hadamard(coeffs: np.ndarray, tail: int = 20) -> float:
    nz = [(n, abs(c)) for n, c in enumerate(coeffs) if abs(c) > 0]
    if len(nz) < 3:
        return 1e6  # polynomial-like: effectively entire
    pick = nz[-tail:]
    est = max(math.log(a) / n for n, a in pick if n > 0)
    return math.exp(-est)


def _angdiff(a: float, b: float) -> float:
    return (a - b + math.pi) % TWO_PI - math.pi


def _fit_growth(eval_ray, x_lo: float, x_hi: float,
                samples: int = 48) -> tuple[float, float]:
    """Constants (J, L) with |f(x e^{id})| <= J exp(L x) on the sampled ray.

    Least squares on log|f| ~ c0 + alpha*log x + L*x separates algebraic
    from exponential growth, so power-law stage functions get L ~ 0
    instead of a spurious finite-range slope.
    """
    xs = np.geomspace(max(x_lo, 1e-9), x_hi, samples)
    vals = np.array([abs(eval_ray(x)) for x in xs])
    vals = np.maximum(vals, 1e-300)
    logs = np.log(vals)
    # fit the tail half only: transients (and near-misses of off-ray
    # singularities) at small x must not inflate L
    half = len(xs) // 2
    M = np.column_stack([np.ones_like(xs), np.log(xs), xs])
    sol, *_ = np.linalg.lstsq(M[half:], logs[half:], rcond=None)
    L = max(float(sol[2]), 0.0)
    resid = logs - M @ sol
    # escape check: a persistent, growing tail misfit means the growth order
    # exceeds 1 and no (J, L) bound of this class exists
    q = len(xs) // 4
    if q >= 2:
        tail_r = resid[-q:]
        if np.all(np.diff(tail_r) > 0) and tail_r[-1] > 3.0:
            raise GrowthError(
                "growth fit failed: order-1 exponential bound does not stabilize"
            )
    if L > 0:
        L *= 1.05
    J = float(np.max(vals * np.exp(-L * xs))) * 1.2
    return max(J, 1e-300), L


# ---------------------------------------------------------------------------
# Laplace transform along a ray


def _laplace_truncation(handle: RayHandle, d: float, w: SectorPoint,
                        t_max: int) -> tuple[complex, float, Callable[[float], complex], float]:
    """A = e^{id}/w on the surface of the logarithm and the truncation point
    S of I_t = int_0^S f(s e^{id}) s^t exp(-s A) ds, t <= t_max, with the
    t_max integrand and its coarse peak modulus on (0, S]."""
    A = cmath.exp(1j * d - w.complex_log())
    J, L = handle.fit
    margin = 1.05
    if A.real <= 0:
        raise DomainError(
            f"evaluation point arg={w.argument} outside the Laplace sector "
            f"around d={d}"
        )
    if A.real <= L * margin:
        raise DomainError(
            f"Laplace integrability violated: Re(e^(i d)/w) = {A.real:.3e} "
            f"must exceed the fitted growth rate L = {L:.3e}"
        )
    decay = A.real - L
    S = (42.0 + max(0.0, math.log(J))) / decay

    def fn0(s):
        if s <= 0.0:
            return 0.0j
        return handle.eval_ray(s) * s**t_max * cmath.exp(-s * A)

    # authoritative truncation: extend until the integrand has fallen below
    # 1e-16 of its peak (the fitted L only seeds the first guess); never
    # extend past the reach of the handle's own Laplace domain.  The loop
    # ends by itself: past s Re A ~ 745, e^(-s A) underflows to 0, and fn0
    # is 0 or nan
    reach = handle._x_dom * 0.96
    S = min(S, reach)
    peaks = np.linspace(0.0, S, 13)[1:]
    scale0 = max(float(np.max(np.abs(handle.eval_ray_many(peaks) * peaks**t_max
                                      * np.exp(-peaks * A)))), 1e-300)
    grow_checks = 0
    while abs(fn0(S)) * S > 1e-16 * scale0:
        nxt = 1.5 * S
        if nxt > reach:
            if abs(fn0(S)) * S > 1e-9 * scale0:
                raise DomainError(
                    f"Laplace tail beyond the previous stage's reach carries "
                    f"too much mass (fitted growth L = {L:.3e})"
                )
            break
        if abs(fn0(nxt)) > abs(fn0(S)):
            grow_checks += 1
            if grow_checks >= 3:
                raise DomainError(
                    f"Laplace integrand does not decay along the ray "
                    f"(fitted growth L = {L:.3e}, Re A = {A.real:.3e})"
                )
        S = nxt
    return A, S, fn0, scale0


def laplace_along_ray(handle: RayHandle, k, d: float, z) -> complex:
    """Laplace transform of the continued function, evaluated at z, by the
    reference rule that checks the stage tables (``_reference_laplace``):
    adaptive G7/K15 Gauss-Kronrod panels in linear s on [0, S], S the
    truncation point, to max(1e-14 peak S, _quad_epsrel |value|).  It
    shares no rule with the batched G10/K21-in-log-s tabulation, and raises
    ValidationError past 256 panels or at a non-finite sample.  Every ladder
    level is order 1 in its section variable, so k = 1 is the only order
    taken.

    Requires arg z within pi/2 of d and |z| below 1/L for the handle's
    fitted growth constants (J, L).
    """
    if Fraction(k) != 1:
        raise UnsupportedError(f"Laplace transforms along a ray are of order 1, not {k}")
    w = as_sector_point(z)
    if abs(w.argument - d) >= math.pi / 2:
        raise DomainError(
            f"arg z = {w.argument:.6f} outside (d - pi/2, d + pi/2) for d = {d:.6f}"
        )
    return complex(_reference_laplace(handle, d, [w])[0])


# Gauss-Kronrod G7/K15 pair (QUADPACK qk15; Piessens et al., 1983) of the
# reference rule: the nonnegative Kronrod abscissae, largest first; the
# odd-indexed ones are the Gauss abscissae.  The rule is mirrored about 0.
_GK15_X = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_GK15_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GK15_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_REF_X = np.concatenate([_GK15_X, np.negative(_GK15_X[-2::-1])])
_REF_WK = np.concatenate([_GK15_WK, _GK15_WK[-2::-1]])
_REF_WG = np.zeros(15)
_REF_WG[1::2] = np.concatenate([_GK15_WG, _GK15_WG[-2::-1]])
_REF_PANELS = 8          # starting panels in u = s/S_i
_REF_MAX_PANELS = 256    # 32 times the starting panels


def _reference_laplace(handle: RayHandle, d: float, ws: Sequence[SectorPoint]) -> np.ndarray:
    """L(handle)(w_i) = A_i int_0^{S_i} f(s e^{id}) exp(-s A_i) ds for every
    sector point w_i at once, A_i and S_i from _laplace_truncation.

    The integrals run in linear s, on panels of u = s/S_i in [0, 1] that all
    points share, with the G7/K15 pair: each round samples every new node
    of every point by one eval_ray_many, and bisects every panel on which
    some point's |K - G| exceeds its share (1/panels) of that point's target
    max(1e-14 peak_i S_i, _quad_epsrel |I_i|), peak_i being the truncation's
    peak modulus.  Past _REF_MAX_PANELS panels, or at a non-finite integrand
    value or sum, it raises ValidationError.
    """
    A, S, _, peak = zip(*(_laplace_truncation(handle, d, w, 0) for w in ws))
    A, S = np.array(A)[:, None, None], np.array(S)
    floor = 1e-14 * np.array(peak) * S
    epsrel = handle._quad_epsrel

    def panels(lo: np.ndarray, hi: np.ndarray):
        """Kronrod sums and Kronrod-Gauss differences (points x panels)."""
        half = 0.5 * (hi - lo)
        s = S[:, None, None] * ((0.5 * (lo + hi))[:, None] + half[:, None] * _REF_X)
        fv = handle.eval_ray_many(s.ravel()).reshape(s.shape) * np.exp(-s * A)
        fv *= S[:, None, None] * half[:, None]
        K = fv @ _REF_WK
        return K, np.abs(K - fv @ _REF_WG)

    edges = np.linspace(0.0, 1.0, _REF_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    K, err = panels(lo, hi)
    while True:
        I = K.sum(axis=1)
        if not np.all(np.isfinite(I)):     # a non-finite sample lands here too
            raise ValidationError(
                f"reference Laplace quadrature (direction = {d}) sampled a "
                f"non-finite integrand value or sum"
            )
        tol = (np.maximum(floor, epsrel * np.abs(I)) / len(lo))[:, None]
        bad = np.any(err > tol, axis=0)
        if not np.any(bad):
            return A[:, 0, 0] * I
        if len(lo) + int(np.count_nonzero(bad)) > _REF_MAX_PANELS:
            raise ValidationError(
                f"reference Laplace quadrature (direction = {d}) did not reach "
                f"its error target within {_REF_MAX_PANELS} panels (largest "
                f"panel error {float(np.max(err / tol)):.2e} times its share)"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        K_new, err_new = panels(new_lo, new_hi)
        keep = ~bad
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        K = np.concatenate([K[:, keep], K_new], axis=1)
        err = np.concatenate([err[:, keep], err_new], axis=1)


def _moment_values(handle, d, w, count) -> np.ndarray:
    """N_t(w) = A e^{i d t} I_t for t = 0..count-1, all from one batched
    rule: each moment's error target is max(epsrel |I_t|, 1e-14 peak_t S),
    with peak_t the largest |integrand| sampled."""
    A, S, _, _ = _laplace_truncation(handle, d, w, count - 1)
    ts = np.arange(count)
    peak = np.zeros(count)

    def sample(s):
        powers = s[None] ** ts.reshape((-1,) + (1,) * s.ndim)
        F = handle.eval_ray_many(s.ravel()).reshape(s.shape) * powers
        np.maximum(peak, np.abs(F * np.exp(-s * A)).reshape(count, -1).max(axis=1), out=peak)
        return F

    epsrel = handle._quad_epsrel
    I = _gk_laplace(sample, A, S * 1e-12, S,
                    lambda vals: np.maximum(epsrel * np.abs(vals), 1e-14 * S * peak),
                    f"Laplace moments (direction = {d}, arg w = {w.argument:.6g})")
    return A * np.exp(1j * d * ts) * I


def _delta_derivatives_from_moments(handle, d, w: SectorPoint, m: int) -> np.ndarray:
    """(f, delta f, ..., delta^{m-1} f)(w) for f = L(handle).

    Uses delta_W N_t = W^{-1} N_{t+1} - N_t exactly; no finite differences.
    """
    N = _moment_values(handle, d, w, m)
    # delta^i f = sum_t c[i][t] * w^{-t} * N_t(w)
    coeffs: list[dict[int, complex]] = [{0: 1.0 + 0j}]
    for i in range(1, m):
        prev = coeffs[-1]
        nxt: dict[int, complex] = {}
        for t, c in prev.items():
            nxt[t + 1] = nxt.get(t + 1, 0.0) + c
            nxt[t] = nxt.get(t, 0.0) - c * (t + 1)
        coeffs.append(nxt)
    wpow = lambda t: cmath.exp(-t * w.complex_log())
    out = np.zeros(m, dtype=complex)
    for i, table in enumerate(coeffs):
        out[i] = sum(c * wpow(t) * N[t] for t, c in table.items())
    return out


class _ChebLogInterpolant:
    """Barycentric Chebyshev interpolant in log x on [a, b] (analytic data)
    of the values at the n + 1 points ``log_nodes(a, b, n)``."""

    @staticmethod
    def log_nodes(a: float, b: float, n: int) -> np.ndarray:
        ta, tb = math.log(a), math.log(b)
        return 0.5 * (ta + tb) + 0.5 * (tb - ta) * np.cos(np.arange(n + 1) * math.pi / n)

    def __init__(self, a: float, b: float, values):
        self.a, self.b = a, b
        self.vals = np.asarray(values, dtype=complex)
        n = len(self.vals) - 1
        self.t = self.log_nodes(a, b, n)
        w = np.ones(n + 1)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self.w = w

    def __call__(self, x: float) -> complex:
        return complex(self.eval_many(np.array([x]))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        # chunks of 256 rows bound the (points x nodes) work matrices and
        # keep them in cache (256 and 512 rows tie as fastest of 64..4096
        # rows for 65 and 129 nodes; 4096 rows take twice as long)
        xs = np.asarray(xs, dtype=float)
        if len(xs) > 256:
            return np.concatenate([self.eval_many(xs[i:i + 256])
                                   for i in range(0, len(xs), 256)])
        diff = np.log(xs)[:, None] - self.t
        small = np.abs(diff) < 1e-300
        exact_rows = small.any(axis=1)
        hit = exact_rows.any()
        if hit:
            diff[small] = 1.0
        C = self.w / diff
        vals = (C @ self.vals) / C.sum(axis=1)
        if hit:
            vals[exact_rows] = self.vals[small[exact_rows].argmax(axis=1)]
        return vals


# Gauss-Kronrod G10/K21 pair (QUADPACK qk21; Piessens et al., 1983): the
# nonnegative Kronrod abscissae, largest first; the odd-indexed ones are the
# Gauss abscissae.  The rule is mirrored about 0 below.
_GK21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK21_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_X = np.concatenate([_GK21_X, np.negative(_GK21_X[-2::-1])])
_GK_WK = np.concatenate([_GK21_WK, _GK21_WK[-2::-1]])
_GK_WG = np.zeros(21)
_GK_WG[1::2] = np.concatenate([_GK21_WG, _GK21_WG[::-1]])
_GK_TOL = 1e-10          # global error target, relative to max_i |I_i|
_GK_MAX_PANELS = 448     # 32 times the 14 starting panels


def _gk_laplace(sample: Callable[[np.ndarray], np.ndarray], A: complex,
                s_lo: float, s_hi: float,
                target: Callable[[np.ndarray], np.ndarray], what: str) -> np.ndarray:
    """int_0^s_hi F(s) exp(-s A) ds for a vector F of integrands, all on one
    set of panels: sample(s) maps an array s to F(s), of shape (n,) + s.shape.

    The integral runs in v = log s with G10/K21 panels on [s_lo, s_hi], plus
    F(s_lo/2) s_lo for (0, s_lo).  Each round bisects every panel on which
    some entry's Kronrod-Gauss difference exceeds its share (1/panels) of
    that entry's target(current integrals), and samples the new panels in
    one call; past _GK_MAX_PANELS panels it raises ValidationError.
    """
    def panels(lo: np.ndarray, hi: np.ndarray):
        """Kronrod sums and Kronrod-Gauss differences (entries x panels)."""
        half = 0.5 * (hi - lo)
        s = np.exp((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X[None, :])
        fv = sample(s)
        jac = half[:, None] * s * np.exp(-s * A)
        K = np.einsum("npk,pk->np", fv, jac * _GK_WK)
        G = np.einsum("npk,pk->np", fv, jac * _GK_WG)
        return K, np.abs(K - G)

    edges = np.linspace(math.log(s_lo), math.log(s_hi), 15)
    lo, hi = edges[:-1], edges[1:]
    K, err = panels(lo, hi)
    while True:
        tol = (target(K.sum(axis=1)) / len(lo))[:, None]
        bad = np.any(err > tol, axis=0)
        if not np.any(bad):
            break
        if len(lo) + int(np.count_nonzero(bad)) > _GK_MAX_PANELS:
            raise ValidationError(
                f"{what} did not reach its error target within {_GK_MAX_PANELS} "
                f"panels (largest panel error {float(np.max(err / tol)):.2e} "
                f"times its share of the target)"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        K_new, err_new = panels(new_lo, new_hi)
        keep = ~bad
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        K = np.concatenate([K[:, keep], K_new], axis=1)
        err = np.concatenate([err[:, keep], err_new], axis=1)
    # left-end correction: the integrand tends to F(0+) like a constant
    return K.sum(axis=1) + sample(np.asarray(0.5 * s_lo)) * s_lo


def _batched_ray_laplace(handle: RayHandle, d: float, xs: np.ndarray) -> np.ndarray:
    """L(handle) at the on-ray points x_i e^{id}, all at once.

    On the ray A_i = 1/x_i is real, so substituting s = u x_i gives
    value_i = int_0^U f(x_i u) e^-u du with a shared u-grid: one vectorized
    evaluation of the previous stage covers every node.  The error target
    is _GK_TOL max_i |value_i| for every node.
    """
    xs = np.asarray(xs, dtype=float)
    J, L = handle.fit
    x_top = float(np.max(xs))
    margin = 1.0 - L * x_top
    if margin <= 0.05:
        raise DomainError(
            f"batched Laplace tabulation reaches the growth-domain edge "
            f"(L = {L:.3e}, max x = {x_top:.4g})"
        )
    U = (45.0 + max(0.0, math.log(J))) / margin

    def sample(u):
        pts = np.multiply.outer(xs, u)
        return handle.eval_ray_many(pts.ravel()).reshape(pts.shape)

    return _gk_laplace(sample, 1.0, U * 1e-12, U,
                       lambda I: np.full(len(I), _GK_TOL * float(np.max(np.abs(I)))),
                       f"batched Laplace tabulation (direction = {d})")


# A stage table is tabulated on nested Chebyshev grids of _CHEB_MIN_N,
# 2 _CHEB_MIN_N, ... _CHEB_MAX_N intervals and kept at the first whose last
# max(4, n/8) coefficients are all <= _CHEB_CHOP of the largest (Aurentz &
# Trefethen, "Chopping a Chebyshev series", ACM TOMS 2017).
_CHEB_MIN_N = 32
_CHEB_MAX_N = 512
_CHEB_CHOP = 1e-13


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the values at the n + 1 points cos(k pi/n),
    k = 0..n, by one FFT of their mirror image (a DCT-I)."""
    n = len(values) - 1
    c = np.fft.fft(np.concatenate([values, values[-2:0:-1]]))[: n + 1] / n
    c[0] /= 2.0
    c[n] /= 2.0
    return c


class LaplaceStageHandle(_OdeRayHandle):
    """f = L(prev) along the shared ray.

    Three regimes: the truncated (Gevrey-)asymptotic expansion at tiny x, a
    Chebyshev-in-log interpolant of batched quadratures below the ODE
    anchor, and the stage ODE (moment-initialized, no finite differences)
    beyond.  The table reaches into the asymptotic range when the seeds give
    one; without one, a read below the table raises DomainError.
    """

    def __init__(self, prev: RayHandle, direction: float, op: LinearOperator,
                 asym_seeds: Optional[np.ndarray] = None, rtol: float = 1e-12):
        self.prev = prev
        self.direction = direction
        self.op = op
        self._quad_epsrel = max(1e-11, rtol)
        self._m = op.order
        J, L = prev.fit
        x_dom = 1.0 / L if L > 0 else 1e8
        self._x_dom = x_dom
        # the anchor's moment quadratures sample the previous stage out to
        # e-folds / x0; budget the fitted J and stay within the previous
        # stage's own Laplace-domain reach
        budget = 50.0 + max(0.0, math.log(J))
        self._x0 = min(0.15 * x_dom, 0.9 * prev._x_dom / budget, 1.0)
        self._reach = 0.98 * x_dom
        self._lead_roots = op.coefficients[-1].nonzero_roots().tolist()
        self._check_ray_clear()
        # asymptotic regime from the formal coefficients c_i, leading zeros
        # included: with m the first nonzero index, keep the terms below the
        # first nonzero c_n with n >= max(5, m + 4); the cutoff is where that
        # dropped (Gevrey-divergent) term falls below 1e-14 of the function
        # scale sum_{i <= max(m, 1)} |c_i| x^i (c0 + c1 x unless the seeds
        # start with zeros), not of the coefficient scale.  Seeds with no such
        # c_n give no regime, and the table then starts at 1e-8 x0
        self._asym: Optional[PowerSeries] = None
        self._x_asym = 0.0
        c = np.abs(asym_seeds) if asym_seeds is not None else np.zeros(0)
        nz = np.flatnonzero(c)
        dropped = nz[nz >= max(5, nz[0] + 4)] if len(nz) else nz
        if len(dropped):
            n_use, lead = int(dropped[0]), c[:max(int(nz[0]), 1) + 1].tolist()
            lo, hi = 1e-280, 0.5 * self._x0
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                scale = sum(ci * mid**i for i, ci in enumerate(lead))
                if 3.0 * c[n_use] * mid**n_use <= 1e-14 * scale:
                    lo = mid
                else:
                    hi = mid
            self._asym = PowerSeries(asym_seeds[:n_use])
            self._x_asym = lo
        w0 = SectorPoint.from_polar(self._x0, direction)
        self._V0 = _delta_derivatives_from_moments(prev, direction, w0, self._m)

    def _check_ray_clear(self):
        d = self.direction
        for rho in self._lead_roots:
            ang = _angdiff(cmath.phase(rho), d)
            if abs(ang) < 1e-9:
                raise SingularDirectionError(
                    f"stage ray arg={d} hits a singularity at {rho}"
                )

    def _direct(self, xs: np.ndarray) -> np.ndarray:
        """L(prev) at the on-ray points xs by the reference rule."""
        return _reference_laplace(self.prev, self.direction,
                                  [SectorPoint.from_polar(x, self.direction) for x in xs])

    @cached_property
    def _interp(self) -> _ChebLogInterpolant:
        """The sub-anchor table, built on the first read that needs it over
        its full span and checked against the reference rule.  Threads that
        build it at once build the same table."""
        hi = self._x0
        lo = 0.8 * self._x_asym if self._asym is not None else 1e-8 * hi
        # nested Chebyshev grids: each doubling tabulates only the new
        # odd-index nodes; stop at the first grid whose series chops
        n = _CHEB_MIN_N
        values = _batched_ray_laplace(self.prev, self.direction,
                                      np.exp(_ChebLogInterpolant.log_nodes(lo, hi, n)))
        while True:
            coeffs = np.abs(_cheb_coeffs(values))
            tail = float(np.max(coeffs[-max(4, n // 8):])) / float(np.max(coeffs))
            if tail <= _CHEB_CHOP:
                break
            if n == _CHEB_MAX_N:
                raise ValidationError(
                    f"stage tabulation (direction = {self.direction}) does not "
                    f"chop at n = {n}: its last {n // 8} Chebyshev coefficients "
                    f"reach {tail:.2e} of the largest > {_CHEB_CHOP:.0e}"
                )
            odd = np.exp(_ChebLogInterpolant.log_nodes(lo, hi, 2 * n)[1::2])
            merged = np.empty(2 * n + 1, dtype=complex)
            merged[0::2] = values
            merged[1::2] = _batched_ray_laplace(self.prev, self.direction, odd)
            values, n = merged, 2 * n
        interp = _ChebLogInterpolant(lo, hi, values)
        # check the batched tabulation against the reference rule; a
        # non-finite reference fails the check
        xs = lo * (hi / lo) ** np.array([0.23, 0.52, 0.81])
        for x, got, ref in zip(xs, interp.eval_many(xs), self._direct(xs)):
            rel = abs(got - ref) / max(abs(ref), 1e-300)
            if not rel <= 1e-8:
                raise ValidationError(
                    f"stage tabulation (direction = {self.direction}) disagrees "
                    f"with its reference quadrature at x = {x:.6g}: relative error "
                    f"{rel:.2e} > 1e-8"
                )
        return interp

    def _table(self, x_min: float) -> _ChebLogInterpolant:
        """The table, for reads at x_min and above; a read below it (only a
        stage with no asymptotic range has one) raises DomainError."""
        interp = self._interp
        if x_min < interp.a:
            raise DomainError(
                f"stage along arg={self.direction} read at x = {x_min:.4g}, "
                f"below its table [{interp.a:.4g}, {interp.b:.4g}]; its seeds "
                f"give it no asymptotic range"
            )
        return interp

    def eval_ray(self, x: float) -> complex:
        if x >= self._x0:
            return self._stepped_value(x)
        if self._asym is not None and x <= self._x_asym:
            return self._asym.eval(x * cmath.exp(1j * self.direction))
        return self._table(x)(x)

    def eval_ray_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs), dtype=complex)
        top = xs >= self._x0
        asym = ~top & (xs <= self._x_asym) if self._asym is not None else np.zeros_like(top)
        table = ~(top | asym)
        if np.any(top):
            out[top] = self._segment_values(xs[top])
        if np.any(asym):
            out[asym] = self._asym.eval_many(xs[asym] * cmath.exp(1j * self.direction))
        if np.any(table):
            out[table] = self._table(float(xs[table].min())).eval_many(xs[table])
        return out

    def growth(self) -> tuple[float, float]:
        return _fit_growth(self.eval_ray, self._x0, min(12.0 * self._x0, 0.9 * self._x_dom))


# ---------------------------------------------------------------------------
# Section pipelines


@dataclass
class SectionPipeline:
    """One beta-section of the ladder, free of any direction: its chain of
    stage operators (stage_ops[j-1] annihilates g_j), their seeds and g_1,
    shared by every classical or q sum built from it."""

    l: int
    orders_w: tuple[Fraction, ...]       # lambda_j = kappa~_j / beta, each 1/integer
    stage_ops: list
    g1: PowerSeries
    stage_seeds: list


class _LaplaceSection:
    """The classical stage handles of one section along the ray d_w, which
    evaluate S^d(h^(l)) at w = z^beta."""

    def __init__(self, sec: SectionPipeline, d_w: float, rtol: float):
        self.l = sec.l
        self.d_w = d_w
        handles: list[RayHandle] = [ContinuationHandle(sec.g1, sec.stage_ops[0], d_w, rtol=rtol)]
        for j in range(1, len(sec.orders_w)):
            handles.append(LaplaceStageHandle(handles[-1], d_w, sec.stage_ops[j],
                                              asym_seeds=sec.stage_seeds[j], rtol=rtol))
        self.handles = handles

    def value(self, w: SectorPoint) -> complex:
        # SummedFunction.domain_check keeps w inside the final level's sector
        return complex(_moment_values(self.handles[-1], self.d_w, w, 1)[0])


def _stage_seeds(phases: np.ndarray, logmags: np.ndarray,
                 log_weight: Callable[[int], float]) -> np.ndarray:
    """First coefficients s_n / W(n) of a partial Borel chain of a section,
    in ordinary floats, from s_n = phases[n] * exp(logmags[n]) and
    log W(n) = log_weight(n)."""
    out = np.zeros(len(phases), dtype=complex)
    for n in range(len(phases)):
        if logmags[n] == -np.inf:
            continue
        out[n] = phases[n] * math.exp(logmags[n] - log_weight(n))
    return out


def _ln_qfact(n: int, Q: float) -> float:
    """log [n]_Q!"""
    total = 0.0
    for t in range(1, n + 1):
        total += math.log((Q**t - 1.0) / (Q - 1.0))
    return total


def _attach_stage_rhs(rec: Recurrence, seeds: np.ndarray):
    """Record the low-order inhomogeneous rows the section chain dropped:
    rhs_n := sum_i A_i(x_n) g_{n-i} for n below the validity window."""
    span = rec.span
    upto = min(rec.n_min + span, len(seeds) - 1)
    rhs: dict[int, complex] = {}
    for n in range(0, upto + 1):
        row = rec.coeff_row(n)
        acc = 0.0 + 0.0j
        scale = 0.0
        for i in range(span + 1):
            if n - i >= 0:
                term = row[i] * seeds[n - i]
                acc += term
                scale = max(scale, abs(term))
        if abs(acc) > 1e-9 * max(scale, 1e-300):
            rhs[n] = acc
    rec.rhs = rhs


def _truncate_overflow(coeffs: np.ndarray, n_seed: int) -> np.ndarray:
    """Cut a coefficient array where magnitudes leave the safe float range
    (non-finite or above 1e280).  At least n_seed + 8 entries are kept, unless
    one of those is itself non-finite; then the cut falls before it."""
    mags = np.abs(coeffs)
    bad = np.where(~np.isfinite(mags) | (mags > 1e280))[0]
    if len(bad):
        keep = max(int(bad[0]), n_seed + 8)
        coeffs = coeffs[:keep]
        if not np.all(np.isfinite(coeffs)):
            coeffs = coeffs[: int(bad[0])]
    return coeffs


def _build_sections(
    op: LinearOperator, ladder: SummationLadder, order: int = 240,
    weight: str = "gamma",
) -> list[SectionPipeline]:
    """The beta section pipelines of the ladder.  The weight of each Borel
    level is "gamma", Gamma(1 + n/k) (Borel-Laplace), or "qfact",
    [n/k]_{q^k}! (q-Borel-Laplace on a q-difference operator)."""
    if weight == "gamma" and op.kind != "differential":
        raise ArgumentError("classical multisummation applies to delta-operators")
    beta = ladder.beta
    orders_w = ladder.w_orders()
    m_list = [int(1 / lam) for lam in orders_w]
    if weight == "gamma":
        def log_weight(n: int, j: int) -> float:
            return sum(math.lgamma(1.0 + n * m) for m in m_list[j:])
    else:
        bases = [op.q ** float(kt) for kt in ladder.kappa_tilde]

        def log_weight(n: int, j: int) -> float:
            return sum(_ln_qfact(n * m, Q) for m, Q in zip(m_list[j:], bases[j:]))
    rec = Recurrence.from_operator(op)
    if rec.span != 1:
        raise UnsupportedError(
            "multisummation currently derives section operators only for "
            "operators whose coefficient recurrence has span 1 "
            "(polynomial coefficients of z-degree <= 1)"
        )
    sec_recs = [section_recurrence(rec, beta, l) for l in range(beta)]
    n_seeds = [max(sec_rec.n_min + sec_rec.span + 2, 8) for sec_rec in sec_recs]
    # section coefficients s_n = a_{l + n beta}, n < n_seed, in log form, all
    # sliced from one master solve (each a_n depends on earlier ones only)
    phases, logmags = rec.solve_logspace(
        max(l + beta * (n_seed - 1) + 1 for l, n_seed in enumerate(n_seeds)))
    sections = []
    for l, (sec_rec, n_seed) in enumerate(zip(sec_recs, n_seeds)):
        # chain of stage recurrences: stage j annihilates
        # g_j = B_{lam_j} ... B_{lam_s} (section); build from the top down,
        # then restore the inhomogeneous rows each stage's solution satisfies
        recs = [None] * len(orders_w)
        cur = sec_rec
        for j in range(len(orders_w) - 1, -1, -1):
            cur = reweight_recurrence(cur, orders_w[j], weight)
            cur.rhs = {}
            recs[j] = cur
        stop = l + beta * (n_seed - 1) + 1
        all_seeds = []
        for j, rec_j in enumerate(recs):
            seeds_j = _stage_seeds(phases[l:stop:beta], logmags[l:stop:beta],
                                   lambda n: log_weight(n, j))
            _attach_stage_rhs(rec_j, seeds_j)
            all_seeds.append(seeds_j)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs, _meta = recs[0].solve(order, seed=all_seeds[0])
        g1 = PowerSeries(_truncate_overflow(coeffs, n_seed), 1)
        ops_chain = [r.to_operator() for r in recs]
        sections.append(SectionPipeline(l, orders_w, ops_chain, g1, all_seeds))
    return sections


# ---------------------------------------------------------------------------
# Singular directions


@dataclass(frozen=True)
class DirectionSet:
    """Finite set of excluded ray arguments mod 2*pi with provenance tags."""

    singular_directions: tuple[float, ...]
    provenance: tuple[str, ...]

    def entries(self):
        return list(zip(self.singular_directions, self.provenance))

    def min_distance(self, d: float) -> float:
        if not self.singular_directions:
            return math.pi
        return min(abs(_angdiff(d, s)) for s in self.singular_directions)


def singular_directions(op: LinearOperator) -> DirectionSet:
    """Excluded directions: arguments (in the z-plane) of the leading-root
    singularities of every successive Borel-plane operator, united with the
    arguments of the nonzero roots of the operator's leading coefficient.

    May be a strict superset of the true singular support (beta-sections see
    the rotated copies of each Borel singularity); extra entries only shrink
    the verified domain.
    """
    try:
        return summation_chain(op, order=60).directions
    except UnsupportedError:
        # section operators unavailable (span > 1): report the
        # leading-coefficient rays only; summation itself will refuse
        return _chain_directions(op, 1, [])


def _chain_directions(op: LinearOperator, beta: int,
                      sections: list[SectionPipeline]) -> DirectionSet:
    """singular_directions read off a built section chain (its stage
    operators do not depend on the truncation order)."""
    found: dict[float, tuple[float, str]] = {}
    for stage_op in (o for sec in sections for o in sec.stage_ops):
        for rho in stage_op.coefficients[-1].nonzero_roots():
            base = cmath.phase(rho)  # direction in the w-plane
            for t in range(beta):
                d = ((base + TWO_PI * t) / beta) % TWO_PI
                found.setdefault(round(d, 9), (d, "borel-pole"))
    for rho in op.coefficients[-1].nonzero_roots():
        d = cmath.phase(rho) % TWO_PI
        found.setdefault(round(d, 9), (d, "leading-root"))
    entries = sorted(found.values())
    return DirectionSet(tuple(e[0] for e in entries), tuple(e[1] for e in entries))


def _bracket_offset(dirs: DirectionSet, d: float, ladder: SummationLadder) -> Optional[float]:
    """Half-width of the bracket d +/- offset of a Stokes jump: pi/(8 k_r),
    or half the gap to the nearest other singular direction if smaller;
    None when d is not in dirs."""
    if dirs.min_distance(d) > 1e-9:
        return None
    gap = min((abs(_angdiff(x, d)) for x in dirs.singular_directions
               if abs(_angdiff(x, d)) > 1e-9), default=math.pi)
    offset = min(math.pi / (8.0 * ladder.top_level), gap / 2.0)
    if offset < 1e-8:
        raise BracketingError(f"no singularity-free bracket around d = {d}")
    return offset


# ---------------------------------------------------------------------------
# Multisummation


@dataclass(frozen=True)
class _LeadingRay:
    """The ray through a root of the leading coefficient, from 0.99 of the
    root outwards."""

    root: complex

    def _refuse(self, z: SectorPoint):
        if (abs(_angdiff(z.argument, cmath.phase(self.root))) < 1e-9
                and z.modulus >= 0.99 * abs(self.root)):
            raise DomainError(
                f"z lies on the excluded ray through the leading-coefficient "
                f"root {self.root}"
            )


@dataclass
class SummedFunction:
    """Evaluable handle for a sum S^d(h) of either pipeline: the ladder (None
    for a convergent series and for the theta-kernel sum), the direction, one
    evaluator per section (its l and its value at w = z^beta), the excluded
    loci (leading-root rays of the classical sum, pole spirals of the q sum)
    and the half-opening of the sector about d.  Evaluation outside the
    domain raises, never extrapolates."""

    ladder: Optional[SummationLadder]
    direction: float
    sections: list
    exclusions: tuple = ()
    half_opening: float = math.inf
    convergent_series: Optional[PowerSeries] = None
    radius: float = 0.0

    def domain_check(self, z: SectorPoint):
        if self.convergent_series is not None:
            if z.modulus >= self.radius:
                raise DomainError(
                    f"|z| = {z.modulus:.4g} outside the convergence disk "
                    f"(radius ~ {self.radius:.4g})"
                )
            return
        for excluded in self.exclusions:
            excluded._refuse(z)
        if abs(z.argument - self.direction) >= self.half_opening:
            raise DomainError(
                f"arg z = {z.argument:.6f} outside the sector "
                f"{self.direction:.6f} +/- {self.half_opening:.6f}"
            )

    def __call__(self, z) -> complex:
        z = as_sector_point(z)
        self.domain_check(z)
        if self.convergent_series is not None:
            return self.convergent_series.eval(z)
        w = z.power(1 if self.ladder is None else self.ladder.beta)
        total = 0.0 + 0.0j
        for sec in self.sections:
            total += cmath.exp(sec.l * z.complex_log()) * sec.value(w)
        return total

    def residual(self, op: LinearOperator, z, step: float = 1e-4) -> float:
        """Relative residual of op at z: exact sigma_q shifts for a
        q-difference operator, Richardson-extrapolated central differences
        in log z for delta."""
        z = as_sector_point(z)
        zc = z.to_complex()
        terms = []
        if op.kind == "q_difference":
            op = op.to_sigma_basis()
            lnq = math.log(op.q)
            for j, b in enumerate(op.coefficients):
                terms.append(b(zc) * self(SectorPoint(z.log_modulus + j * lnq, z.argument)))
        else:
            logz = z.complex_log()
            vals: dict[float, complex] = {}

            def delta_pow(j: int, h: float) -> complex:
                # iterated central differences in log z, spacing h
                def rec(jj: int, t: float) -> complex:
                    if jj == 0:
                        if t not in vals:
                            shifted = logz + t
                            vals[t] = self(SectorPoint(shifted.real, shifted.imag))
                        return vals[t]
                    return (rec(jj - 1, t + h / 2) - rec(jj - 1, t - h / 2)) / h

                return rec(j, 0.0)

            for j, b in enumerate(op.coefficients):
                coef = b(zc)
                d1 = delta_pow(j, step)
                d2 = delta_pow(j, step / 2)
                terms.append(coef * ((4.0 * d2 - d1) / 3.0))  # Richardson
        total = 0.0 + 0.0j
        scale = 0.0
        for term in terms:
            total += term
            scale = max(scale, abs(term))
        if op.rhs is not None:
            rv = op.rhs.eval(z)
            total -= rv
            scale = max(scale, abs(rv))
        return abs(total) / max(scale, 1e-300)


def _check_series(op: LinearOperator, s: Optional[PowerSeries]):
    """Raise ArgumentError if a supplied series s does not satisfy op."""
    if s is not None:
        res = op_residual(op, s)
        scale = max(np.max(np.abs(s.coefficients)), 1.0)
        head = res.coefficients[: max(1, len(res.coefficients) - op.order - 1)]
        if np.max(np.abs(head)) > 1e-8 * scale:
            raise ArgumentError("supplied series does not satisfy the operator")


@dataclass(frozen=True)
class SummationChain:
    """What every sum of one operator shares, whatever its direction: its
    ladder, section chain and singular set (a convergent operator has none
    of them and sums series, a checked supplied series, else its own).
    sum(d) and lateral_pair(d) check a supplied series, refuse or bracket
    the singular directions and add only the evaluators of their directions
    from _at: stage handles here, q-Laplace sections in a QSummationChain.
    A q-family passes the chain of its limit operator as ``limit``."""

    op: LinearOperator
    ladder: Optional[SummationLadder]
    sections: tuple[SectionPipeline, ...]
    directions: DirectionSet
    order: int
    series: Optional[PowerSeries] = None

    def sum(self, d: float, s: Optional[PowerSeries] = None,
            rtol: float = 1e-11) -> SummedFunction:
        """S^d(h); a singular d raises SingularDirectionError, a supplied
        series s that does not satisfy the operator ArgumentError."""
        self._check(s)
        if not self.sections:
            # a convergent series is its own sum, on 0.999 of its estimated disk
            series = s or self.series or solve_series(self.op, self.order)
            return SummedFunction(None, d, [], convergent_series=series,
                                  radius=0.999 * _cauchy_hadamard(series.coefficients))
        if self.directions.min_distance(d) < 1e-9:
            raise SingularDirectionError(
                f"direction d = {d} is singular (singular set mod 2pi: "
                f"{[round(x, 6) for x in self.directions.singular_directions]})"
            )
        return self._at(d, rtol)

    def lateral_pair(self, d: float, s: Optional[PowerSeries] = None,
                     rtol: float = 1e-10) -> Optional[tuple[SummedFunction, SummedFunction]]:
        """(S^{d+o}, S^{d-o}) about a singular direction d, o from
        _bracket_offset; None off the singular set, where they agree.  A
        divergent q chain built without limit raises ArgumentError."""
        self._check(s)
        if self.sections and not self.directions.singular_directions:
            raise ArgumentError("lateral sums bracket a singular direction and this "
                                "chain has none: a q chain takes them from its limit")
        offset = _bracket_offset(self.directions, d, self.ladder)
        if offset is None:
            return None
        return self._at(d + offset, rtol), self._at(d - offset, rtol)

    def _check(self, s: Optional[PowerSeries]):
        """Refuse a supplied series s that does not satisfy the operator,
        and sections that hold the zero series: for a homogeneous operator
        they mean that valuation 0 is not an admissible leading index, and
        solve_series raises its ArgumentError."""
        _check_series(self.op, s)
        if (self.sections and self.op.rhs is None
                and not any(sec.g1.coefficients.any() for sec in self.sections)):
            solve_series(self.op, 1)

    def _at(self, d: float, rtol: float) -> SummedFunction:
        """The sum along d, which is not singular: one _LaplaceSection per
        section, the leading-root rays excluded."""
        ladder = self.ladder
        _refuse_sub_unit(ladder)
        rays = tuple(_LeadingRay(a) for a in self.op.coefficients[-1].nonzero_roots().tolist())
        return SummedFunction(ladder, d, [_LaplaceSection(sec, ladder.beta * d, rtol)
                                          for sec in self.sections],
                              rays, math.pi / (2.0 * ladder.top_level))


def summation_chain(op: LinearOperator, k_r_choice: Optional[int] = None,
                    order: int = 240) -> SummationChain:
    """The SummationChain of a differential operator (top level k_r_choice
    if given, g_1 truncated at order), shared by all its sums and jumps."""
    if newton_polygon(op).is_convergent_only():
        return SummationChain(op, None, (), DirectionSet((), ()), order)
    ladder = _summation_ladder(op, k_r=k_r_choice)
    sections = tuple(_build_sections(op, ladder, order=order))
    return SummationChain(op, ladder, sections,
                          _chain_directions(op, ladder.beta, sections), order)


def _jumps(pair: Optional[tuple], zs) -> list[complex]:
    """plus(z) - minus(z) of a lateral pair at each z of zs; 0 without one."""
    if pair is None:
        return [0.0 + 0.0j for _ in zs]
    plus, minus = pair
    return [plus(z) - minus(z) for z in zs]


def multisum(s: Optional[PowerSeries], op: LinearOperator, d: float,
             k_r_choice: Optional[int] = None, order: int = 240,
             rtol: float = 1e-11) -> SummedFunction:
    """Multisummation S^d of the formal solution of op along direction d.

    The series argument is optional (it is pinned by the operator and its
    right-hand side / valuation data); when supplied it is checked against
    the operator, and one that does not satisfy it raises.  Sums of one
    operator in several directions should share one summation_chain(op).
    """
    return summation_chain(op, k_r_choice, order).sum(d, s, rtol)


def stokes_jump(s: Optional[PowerSeries], op: LinearOperator, d_singular: float,
                zs: Sequence, order: int = 240, rtol: float = 1e-10) -> list[complex]:
    """Lateral-sum jumps S^{d+}(h)(z) - S^{d-}(h)(z) across a singular
    direction d, one per point z of zs (0 off the singular set); each is a
    solution of the homogeneous equation.  One lateral pair serves all."""
    return _jumps(summation_chain(op, order=order).lateral_pair(d_singular, s, rtol), zs)
