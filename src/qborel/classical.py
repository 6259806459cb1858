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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    BracketingError,
    DomainError,
    GrowthError,
    RangeError,
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
    """Protocol: values of an analytic function along the ray arg = d at an
    array of ray coordinates x >= 0, eval_ray_many(xs)."""

    direction: float


class FunctionHandle(RayHandle):
    """Wrap a scalar function fn(zeta) of the ray point, called once per coordinate."""

    def __init__(self, fn: Callable[[complex], complex], direction: float):
        self.fn = fn
        self.direction = direction

    def eval_ray_many(self, xs) -> np.ndarray:
        phase = cmath.exp(1j * self.direction)
        return np.array([self.fn(float(x) * phase) for x in xs], dtype=complex)


# A Taylor step keeps the terms of each component of V until the last two
# bound its tail below 2^-56 of its largest term; a step that needs more
# than _TAYLOR_TERMS terms raises ValidationError.  The steps of an
# extension run their recurrence together, first to _FIRST_TERMS terms.
_TAYLOR_TERMS = 160
_FIRST_TERMS = 48


def _shifted(coeffs: list, w: np.ndarray, s: np.ndarray) -> list:
    """Coefficients in t of the polynomial sum_k coeffs[k] u^k at u = w + s t,
    one array over the entries of w and s per power of t."""
    a = [np.full(len(w), c, dtype=complex) for c in coeffs]
    for i in range(len(a) - 1):          # Ruffini-Horner shift by w
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += w * a[k + 1]
    return [c * s**k for k, c in enumerate(a)]


def _transfer_terms(b: list, F: list, ratio: np.ndarray, m: int, terms: int) -> np.ndarray:
    """The Taylor coefficients T[step, column, n, i], n < terms, of V in t
    in each step from each start column: column j < m from the unit vector
    e_j, column m (there if F is) from 0 with the forcing.  b[j][k] and
    F[k] are the coefficients of b_j and F in t, ratio = c/h.  In t,
    delta = (c/h + t) d/dt, so for n >= 0
    (c/h)(n + 1) V_{i,n+1} = V_{i+1,n} - n V_{i,n} for i < m - 1, with
    U = delta V_{m-1} = (F - sum_{j<m} b_j V_j)/b_m in place of V_m.
    Every operation is elementwise over the steps, in a fixed order, so a
    step's coefficients do not depend on the steps beside it."""
    depth, lead = max(map(len, b)), b[m][0]
    # U_n b_m(0) + F_n = -sum of b_j[k] times term n - k of V_j (U at j = m, k > 0),
    # summed from the highest k and the highest j down
    kj = [(k, j) for k in range(depth - 1, -1, -1) for j in range(m, -1, -1)
          if k < len(b[j]) and (k or j < m)]
    a, (k, j) = np.array([-b[j][k] / lead for k, j in kj])[:, None], np.reshape(kj, (-1, 2)).T
    # VU[depth - 1 + n] holds (V_0, ..., V_{m-1}, U) at term n, zero before
    VU = np.zeros((depth + terms, m + bool(F), m + 1, len(ratio)), dtype=complex)
    VU[depth - 1, range(m), range(m)] = 1.0
    for r, n in enumerate(range(terms), depth - 1):
        if kj:   # in the order of kj: add.accumulate never pairs terms
            VU[r, :, m] = np.add.accumulate(a * VU[r - k, :, j], axis=0)[-1]
        if n < len(F):
            VU[r, m, m] += F[n] / lead
        np.divide(VU[r, :, 1:] - n * VU[r, :, :m], ratio * (n + 1), out=VU[r + 1, :, :m])
    return VU[depth - 1:-1, :, :m].transpose(3, 1, 0, 2)


class _TaylorSteps(NamedTuple):
    """The Taylor steps of a continuation.  Step i is centred at cs[i], has
    length hs[i] and serves [los[i], cs[i] + hs[i]/2], the points nearer to
    its centre than to the others', in t = (x - cs[i])/hs[i].  rows[i] and
    column i of C (zero-padded above) hold its coefficients of f in t,
    highest first, and terms[i] the number of terms its recurrence ran to; V
    is the vector at the end of the last step and grid holds los, cs and hs
    as an array."""

    los: tuple
    cs: tuple
    hs: tuple
    rows: tuple
    terms: tuple
    V: tuple
    grid: np.ndarray
    C: np.ndarray


_NO_STEPS = _TaylorSteps((), (), (), (), (), (), np.zeros((3, 0)), np.zeros((0, 0), complex))


class ContinuationHandle(RayHandle):
    """Analytic continuation of a convergent series along a ray: the series
    inside 0.8x its empirical radius, and beyond x0 = 0.5x the radius the
    operator's ODE delta V = C(w) V + F(w), V = (f, ..., delta^{m-1} f),
    from the vector _V0 the series gives at x0, in Taylor steps: at a point
    c of the ray the operator gives a recurrence for the Taylor coefficients
    of V in t = (x - c)/h (van der Hoeven, TCS 1999), h = R/3 for the
    distance R from c e^{id} to the nearest singular point (0 or a root of
    the leading coefficient), and each step's end vector seeds the next.
    The centres depend on c alone, so an extension runs the recurrence of
    all its steps at once from unit start vectors (_transfer_terms) and
    chains their start vectors step by step.  Each step depends only on its
    start, so a value never depends on the order the points were asked in.
    _steps holds all steps as one _TaylorSteps, replaced whole, so threads
    that extend at once need no lock; ensure() returns the steps that serve
    a request."""

    _steps = _NO_STEPS

    def __init__(self, series: PowerSeries, op: LinearOperator, direction: float):
        if series.ram_index != 1:
            raise ArgumentError("continuation works on unramified series")
        self.series = series
        self.op = op
        self.direction = direction
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

    def _taylor_steps(self, c: float, V: tuple, back: float, x_max: float) -> tuple:
        """The steps from c with start vector V until one serves x_max: their
        los, cs, hs, rows and terms, and the end vector of the last.  back is
        the first step's reach back to the middle of the step before it."""
        phase = cmath.exp(1j * self.direction)
        cs, hs = [], []
        while not cs or cs[-1] + 0.5 * hs[-1] < x_max:
            cs.append(c)
            hs.append(min([c] + [abs(c * phase - rho) for rho in self._lead_roots]) / 3.0)
            c += hs[-1]
        h, w = np.array(hs), np.array(cs) * phase
        b = [_shifted(p.coeffs.tolist(), w, h * phase) for p in self.op.coefficients]
        F = [] if self.op.rhs is None else _shifted(self.op.rhs.coefficients.tolist(), w, h * phase)
        ratio, backs, rows, counts, i = np.divide(cs, h), [back], [], [], 0
        backs += [0.5 * hi for hi in hs[:-1]]
        T = _transfer_terms(b, F, ratio, self._m, min(_FIRST_TERMS, _TAYLOR_TERMS))
        with np.errstate(over="ignore", invalid="ignore"):
            while i < len(cs):
                # the step's coefficients A[n, j] of V_j: (V, 1) times its columns
                S, Ti = V + (1.0,), T[i]
                A = S[0] * Ti[0]
                for Sj, Tj in zip(S[1:], Ti[1:]):
                    A += Sj * Tj
                # its count: up to the first n + 1 at which, for every j,
                # |A_n| + |A_{n-1}|/3 is at most 2^-56 of the largest |A_k|, k <= n
                mag = np.abs(A)
                tail = (mag[1:] + mag[:-1] / 3.0 > 2.0**-56 * np.maximum.accumulate(mag)[1:]).any(1)
                first = int(tail.argmin())
                if tail[first]:
                    if T.shape[2] == _TAYLOR_TERMS:
                        raise ValidationError(
                            f"Taylor step along arg={self.direction} at x={cs[i]:.6g} (distance "
                            f"R = {3.0 * hs[i]:.4g} to the nearest singular point) does not bound "
                            f"its tail by 2^-56 of its largest term within {_TAYLOR_TERMS} terms")
                    T = _transfer_terms(b, F, ratio, self._m, min(2 * T.shape[2], _TAYLOR_TERMS))
                    continue
                counts.append(first + 2)
                # summed from the highest term down, as the Horner at t = 1
                V = tuple(np.add.accumulate(A[first + 1::-1], axis=0)[-1].tolist())
                if not all(map(cmath.isfinite, V)):
                    raise GrowthError(f"ODE continuation along arg={self.direction} "
                                      f"overflows in the step from x={cs[i]:.6g}")
                # the step serves |t| <= r: forward to t = 1/2, back to the middle
                # of the previous step (at most 3/4, as R shrinks by at most the
                # previous step's length); keep the terms above 2^-58 of the
                # largest there, so the cut ones sum to less than 2^-56 of it
                mag = np.abs(A[:first + 2, 0]) * max(0.5, backs[i] / hs[i]) ** np.arange(first + 2)
                keep = 1 + np.flatnonzero(mag >= 2.0**-58 * mag.max())[-1]
                rows.append(tuple(A[keep - 1::-1, 0].tolist()))
                i += 1
        return [c - bk for c, bk in zip(cs, backs)], cs, hs, rows, counts, V

    def ensure(self, x_max: float) -> _TaylorSteps:
        """The published steps, first extended until they serve x_max."""
        steps = self._steps
        if x_max < self._x0 or (steps.cs and x_max <= steps.cs[-1] + 0.5 * steps.hs[-1]):
            return steps   # the ODE runs forward from x0
        if self._m == 0:
            raise ArgumentError("an order-0 operator has no ODE to continue along")
        start = ((steps.cs[-1] + steps.hs[-1], steps.V, 0.5 * steps.hs[-1]) if steps.cs
                 else (self._x0, tuple(self._V0.tolist()), 0.0))
        *new, V = self._taylor_steps(*start, x_max)
        los, cs, hs, rows, terms = (old + tuple(part) for old, part in zip(steps, new))
        C = np.zeros((max(map(len, rows)), len(rows)), dtype=complex)
        for i, row in enumerate(rows):
            C[len(C) - len(row):, i] = row
        steps = self._steps = _TaylorSteps(los, cs, hs, rows, terms, V, np.array([los, cs, hs]), C)
        return steps

    def _segment_values(self, pts: np.ndarray) -> np.ndarray:
        """f at the ray points pts >= x0, each by a Horner in t on the row of
        the step that serves it, all steps at once."""
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

    def eval_ray_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs), dtype=complex)
        inner = xs <= self._series_limit
        if np.any(inner):
            out[inner] = self.series.eval_many(xs[inner] * cmath.exp(1j * self.direction))
        if not np.all(inner):
            out[~inner] = self._segment_values(xs[~inner])
        return out


def _cauchy_hadamard(coeffs: np.ndarray) -> float:
    nz = [(n, abs(c)) for n, c in enumerate(coeffs) if abs(c) > 0]
    if len(nz) < 3:
        return 1e6  # polynomial-like: effectively entire
    pick = nz[-20:]
    est = max(math.log(a) / n for n, a in pick if n > 0)
    return math.exp(-est)


def _angdiff(a: float, b: float) -> float:
    return (a - b + math.pi) % TWO_PI - math.pi


# ---------------------------------------------------------------------------
# Laplace transform along a ray


def _laplace_truncation(handle: RayHandle, d: float, w: SectorPoint) -> tuple:
    """A = e^{id}/w on the surface of the logarithm, the truncation point S
    of int_0^S f(s e^{id}) exp(-s A) ds and the integrand's coarse peak
    modulus on (0, S]: a 12-node scan of (0, 42/Re A], then one probe at
    each 1.5x extension.  Re A > 0: the callers keep arg w within pi/2 of d."""
    A = cmath.exp(1j * d - w.complex_log())
    peaks = np.linspace(0.0, 42.0 / A.real, 13)[1:]
    scan = np.abs(handle.eval_ray_many(peaks) * np.exp(-peaks * A))
    S, at_S, peak = float(peaks[-1]), float(scan[-1]), max(float(np.max(scan)), 1e-300)
    # extend until the integrand has fallen below 1e-16 of its peak.  The
    # loop ends by itself: past s Re A ~ 745, e^(-s A) underflows to 0, and
    # the integrand is 0 or nan
    grows = 0
    while at_S * S > 1e-16 * peak and grows < 3:
        S *= 1.5
        at_next = abs(complex(handle.eval_ray_many([S])[0]) * cmath.exp(-S * A))
        grows += at_next > at_S
        at_S = at_next
    if grows >= 3:
        raise DomainError(f"Laplace integrand does not decay along the ray (Re A = {A.real:.3e})")
    return A, S, peak


def laplace_along_ray(handle: RayHandle, d: float, z) -> complex:
    """Order-1 Laplace transform of the continued function at z, arg z
    within pi/2 of d (every ladder level is order 1 in its section
    variable), by the reference rule that checks the first level of every
    classical sum (_reference_laplace, adaptive G7/K15 panels in linear s to
    _REF_EPSREL, sharing no rule with the log grids' trapezoid sums).  It raises
    DomainError for z outside that sector or an integrand that does not
    decay, and ValidationError past 256 panels or at a non-finite sample."""
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
# The starting panels in u = s/S_i are graded toward u = 0, where e^(-s A)
# falls fastest: [0, 2^-16], then the octaves [2^-k, 2^(1-k)] up to [1/2, 1].
_REF_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-16, 1)])
_REF_MAX_PANELS = 256


def _reference_laplace(handle: RayHandle, d: float, ws: Sequence[SectorPoint]) -> np.ndarray:
    """L(handle)(w_i) = A_i int_0^{S_i} f(s e^{id}) exp(-s A_i) ds for every
    sector point w_i at once, A_i and S_i from _laplace_truncation.

    The integrals run in linear s, on panels of u = s/S_i in [0, 1] that all
    points share, from _REF_EDGES, with the G7/K15 pair: each round samples
    every new node of every point by one eval_ray_many, and bisects every
    panel on which some point's |K - G| exceeds its share (1/panels) of that
    point's target max(1e-14 peak_i S_i |A_i|, _REF_EPSREL |I_i|), peak_i
    being the truncation's peak modulus (A_i S_i scales every panel, so no
    integral underflows at a tiny |w_i|).  Past _REF_MAX_PANELS panels, or at
    a non-finite integrand value or sum, it raises ValidationError.
    """
    A, S, peak = zip(*(_laplace_truncation(handle, d, w) for w in ws))
    A, S = np.array(A)[:, None, None], np.array(S)
    floor = 1e-14 * np.array(peak) * S * np.abs(A[:, 0, 0])

    def panels(lo: np.ndarray, hi: np.ndarray):
        """Kronrod sums and Kronrod-Gauss differences (points x panels)."""
        half = 0.5 * (hi - lo)
        s = S[:, None, None] * ((0.5 * (lo + hi))[:, None] + half[:, None] * _REF_X)
        fv = handle.eval_ray_many(s.ravel()).reshape(s.shape) * np.exp(-s * A)
        fv *= A * S[:, None, None] * half[:, None]
        K = fv @ _REF_WK
        return K, np.abs(K - fv @ _REF_WG)

    lo, hi = _REF_EDGES[:-1], _REF_EDGES[1:]
    K, err = panels(lo, hi)
    while True:
        I = K.sum(axis=1)
        if not np.all(np.isfinite(I)):     # a non-finite sample lands here too
            raise ValidationError(
                f"reference Laplace quadrature (direction = {d}) sampled a "
                f"non-finite integrand value or sum"
            )
        tol = (np.maximum(floor, _REF_EPSREL * np.abs(I)) / len(lo))[:, None]
        bad = np.any(err > tol, axis=0)
        if not np.any(bad):
            return I
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


# ---------------------------------------------------------------------------
# Log-uniform node grids, shared by the classical and the q pipeline


# Kernels shorter than this are correlated by direct dots only: below it an
# FFT block costs more than the dots it replaces.
_FFT_MIN_KERNEL = 2048
# An FFT output is kept when its round-off estimate is below this share of its
# modulus; the others are recomputed by the direct dot.
_FFT_RTOL = 1e-13
# No grid holds more nodes than this.
_GRID_CAP = 400000


def _block_size(n_kernel: int) -> int:
    """Outputs per FFT block of a level correlation with an n_kernel-node
    kernel, about n_kernel/4 (the FFT length B + n_kernel - 1 is a fast
    length); 1 for a kernel correlated by direct dots.  Short blocks follow a
    changing climb more closely and waste fewer nodes in the round-out."""
    if n_kernel < _FFT_MIN_KERNEL:
        return 1
    from scipy import fft as sp_fft
    return sp_fft.next_fast_len(n_kernel + n_kernel // 4) - n_kernel + 1


def _direct_dots(a: np.ndarray, kernel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """b_i = sum_k kernel_k a_(i+k) for the sorted output rows i, one dot per
    row, taken by np.correlate over each run of consecutive rows (the same
    dot product as np.dot(kernel, a[i:i + len(kernel)]), bit for bit)."""
    n = len(kernel)
    conj = np.conj(kernel)          # np.correlate conjugates its second argument
    cuts = np.flatnonzero(np.diff(rows) != 1) + 1
    out = np.empty(len(rows), dtype=complex)
    for start, stop in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [len(rows)]))):
        i0, i1 = rows[start], rows[stop - 1] + 1
        out[start:stop] = np.correlate(a[i0 : i1 + n - 1], conj, "valid")
    return out


def _correlate(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The level correlation b_i = sum_k kernel_k a_(i+k) over the 'valid'
    range, in blocks of _block_size outputs (copies of the last input fill
    up the last block, whose extra outputs are dropped).

    Each block of B outputs is one FFT of its own N = B + len(kernel) - 1
    inputs, so an output depends only on the block it lies in, never on how
    far the arrays reach.  The block is tilted first, a(s) e^(-g s) and
    K(k) e^(g k), with g the least-squares slope of log|a| over the block
    (quantized so that g s is exact; powers of 2 scale both to unit size),
    which flattens a geometric climb.  The FFT round-off of the block's
    outputs is estimated as 40 sqrt(log2 N) eps |a'|_2 |K'|_2 / sqrt(N), a'
    and K' the tilted block and kernel (about 4 times their rms error);
    every output whose estimate exceeds _FFT_RTOL of its modulus, or that is
    not finite, is recomputed by the direct dot, and so is every output of a
    block holding a non-finite input.  Kernels shorter than _FFT_MIN_KERNEL
    take the direct dot for every output."""
    n = len(kernel)
    n_out = len(a) - n + 1
    B = _block_size(n)
    if B == 1:
        return _direct_dots(a, kernel, np.arange(n_out))
    from scipy import fft as sp_fft
    if n_out % B:
        a = np.concatenate([a, np.repeat(a[-1:], -n_out % B)])
    N = B + n - 1
    s = np.arange(N)
    s_mid = 0.5 * (N - 1)
    g_cap = 300.0 / N               # keeps e^(+-g s) within e^300 over a block
    rms4 = 40.0 * math.sqrt(math.log2(N)) * np.finfo(float).eps / math.sqrt(N)
    out = np.empty(len(a) - n + 1, dtype=complex)
    for j in range(0, n_out, B):
        seg = a[j : j + N]
        mag = np.log(np.maximum(np.abs(seg), 1e-300))
        mean = float(np.mean(mag))
        bad = np.arange(B)
        if math.isfinite(mean):
            g = float(np.dot(s - s_mid, mag)) / (N * (N * N - 1.0) / 12.0)
            g = round(max(-g_cap, min(g_cap, g)) * 65536.0) / 65536.0
            e_a = round((mean - g * s_mid) / math.log(2.0))
            a_t = seg * np.ldexp(np.exp(-g * s), -e_a)
            k_t = kernel * np.exp(g * s[:n])
            e_k = round(math.log2(float(np.max(np.abs(k_t)))))
            k_t *= 2.0 ** -e_k
            c = sp_fft.ifft(sp_fft.fft(a_t) * sp_fft.fft(k_t[::-1], N))[n - 1 :]
            err = rms4 * float(np.linalg.norm(a_t)) * float(np.linalg.norm(k_t))
            out[j : j + B] = c * np.ldexp(np.exp(g * s[:B]), e_a + e_k)
            bad = np.flatnonzero(~(err <= _FFT_RTOL * np.abs(c)) | ~np.isfinite(out[j : j + B]))
        if len(bad):
            out[j + bad] = _direct_dots(a, kernel, j + bad)
    return out[:n_out]


def _window_sum(values: np.ndarray, kernel: np.ndarray) -> complex:
    """sum values * kernel over a kernel window; an edge term above 1e-12 of
    the total means the window is too narrow for the values' growth."""
    terms = values * kernel
    total = complex(np.sum(terms))
    edge = max(abs(terms[0]), abs(terms[-1]))
    if not edge <= 1e-12 * max(abs(total), 1e-300):
        raise RangeError(
            "Laplace node window too narrow (edge terms not negligible)"
        )
    return total


class _LogGrid:
    """The last level of a section's ladder at the nodes t = lo..hi of a
    log-uniform grid x_t = e^{ht} x_0, for both pipelines, each with its own
    node source, step and kernel (a q section has one grid, a classical
    section one per step).  Every level below the last is a correlation
    (_correlate) with one kernel (K, L1), K[j] weighing node t + j - L1 in
    level value t.  Each level's range is rounded out to whole blocks of its
    correlation, aligned to the absolute index t, so a value never depends
    on the range the grid was grown to.  The grid (lo, hi, values, notes,
    levels) keeps every level as (first index, values), level 0 the node
    samples, and a growth computes only its new nodes and outputs.  It is
    published whole and no lock is held: threads that grow it at once
    publish agreeing grids.  A subclass grows it in _ensure_grid_locked, by
    _grow with its node source, kernel, number of levels and, optionally, a
    check whose notes on each level are kept with the grid."""

    _grid: Optional[tuple] = None

    def _covering(self, lo: int, hi: int) -> tuple:
        grid = self._grid
        if grid is None or grid[0] > lo or grid[1] < hi:
            grid = self._ensure_grid_locked(lo, hi)
        return grid

    def _nodes(self, lo: int, hi: int) -> np.ndarray:
        grid = self._covering(lo, hi)
        return grid[2][lo - grid[0] : hi - grid[0] + 1]

    def _grow(self, lo: int, hi: int, samples: Callable[[int, int, np.ndarray], np.ndarray],
              kernel: Optional[tuple[np.ndarray, int]], levels: int,
              check: Optional[Callable] = None) -> tuple:
        """Grow the grid to cover [lo, hi] and its old range, publish it and
        return it.  Only the new stretches a..b of each level are computed:
        the nodes as samples(a, b, below), below being the grid's node values
        under a, and every level above as the correlation of its new outputs
        alone, whole blocks that equal a fresh build's.  A level's note is
        check(level, t0, inputs, outputs, note) for each new stretch of
        outputs from t = t0, note being the level's note so far (None on the
        first build)."""
        old = self._grid
        if old is not None:
            lo, hi = min(lo, old[0]), max(hi, old[1])
        spans = []       # (lo, hi) of each level, top level first
        if levels:
            K, L1 = kernel
            n, B = len(K), _block_size(len(K))
            for _ in range(levels):
                lo, hi = lo - lo % B, hi - hi % B + B - 1
                spans.append((lo, hi))
                lo, hi = lo - L1, hi + n - 1 - L1
        if hi - lo > _GRID_CAP:
            raise RangeError("Laplace node grid exceeded the size cap")
        spans.append((lo, hi))
        stack, notes = [], list(old[3]) if old else [None] * levels
        for level, (a, b) in enumerate(reversed(spans)):
            o_lo, o = old[4][level] if old else (a, np.zeros(0, dtype=complex))
            new = []
            for c, d in ((a, o_lo - 1), (o_lo + len(o), b)):
                if c > d:
                    new.append(o[:0])
                elif level == 0:
                    new.append(samples(c, d, o[: max(c - o_lo, 0)]))
                else:
                    i = c - L1 - stack[-1][0]
                    inputs = stack[-1][1][i : i + d - c + n]
                    new.append(_correlate(inputs, K))
                    if check is not None:
                        notes[level - 1] = check(level - 1, c, inputs, new[-1], notes[level - 1])
            stack.append((a, np.concatenate([new[0], o, new[1]])))
        lo, values = stack[-1]
        self._grid = grid = (lo, lo + len(values) - 1, values, notes, stack)
        return grid


# ---------------------------------------------------------------------------
# Classical ladder levels on the log grid

# A classical level L(f)(x) = int f(x e^v) e^v exp(-e^v) dv, by the trapezoid
# rule with step h, is a correlation on the nodes x_t = e^{ht} with the kernel
# K_k = h y e^-y, y = e^{hk}, the q -> 1 limit of the continuous q-Laplace
# kernel.  hk runs over [_V_LO, _V_HI], both multiples of 2h: above, y e^-y <
# 1e-27 leaves room for growth; below, where f(x y) and e^-y are constant to
# O(y), the first tap carries the terms sum_(k' < k) h y' of the whole tail.
# The error falls like exp(-2 pi a/h), a the half-width of the strip about
# the real v-axis in which the integrand is analytic and decays (Trefethen &
# Weideman, SIAM Review 56, 2014): a point takes the largest h = 2^-k/4 with
# 2 pi a/h >= 37, and halves it, up to _REFINEMENTS times, while a sum it
# reads disagrees with its step-2h sum (a growing g_r narrows the strip).
_V_LO, _V_HI = -38.0, 4.25
_H0 = 0.25
_STRIP_EFOLDS = 37.0
_REFINEMENTS = 2
_REFINE_GAIN = 10.0
_REF_RTOL = 1e-9         # first level against the reference rule, at 3 nodes
_REF_EPSREL = 1e-11      # the reference rule's own relative target
_REF_EFOLDS = 4          # the reference nodes are x = e^(4j)
_TWO_H_RTOL = 1e-9       # every level against its sum with step 2h
# The final window's step-2h sum has e^(pi a/h) >= e^18.5 times the error of
# its step-h sum, so agreeing to 1e-5 bounds that error by 1e-13.
_WINDOW_2H_RTOL = 1e-5
_GRID_SLACK = 5.0        # e-folds a build reaches beyond the window it serves
# A final window spans about e^-45 |w| to e^12 |w| in both pipelines: sums
# refuse |w| beyond e^(+-650), where it would leave the normal floats.
_LOG_REACH = 650.0


def _ray_nodes(h: float, lo: int, hi: int) -> np.ndarray:
    """e^{ht} for t = lo..hi as e^{256 h q} e^{h r}, t = 256 q + r, two
    correctly rounded exponentials, so that a node does not depend on the
    range it was computed in."""
    q, r = np.divmod(np.arange(lo, hi + 1), 256)
    coarse = np.array([math.exp(256 * h * j) for j in range(int(q[0]), int(q[-1]) + 1)])
    return coarse[q - q[0]] * np.array([math.exp(h * j) for j in range(256)])[r]


def _laplace_kernel(h: float) -> tuple[np.ndarray, int]:
    """(K, L1): the level kernel h y e^-y, y = e^{hk}, hk in [_V_LO, _V_HI],
    with K[j] at k = j - L1, its first tap raised by the tail below it."""
    k = np.arange(round(_V_LO / h), round(_V_HI / h) + 1)
    y = np.exp(h * k)
    K = h * y * np.exp(-y)
    K[0] += h * y[0] / math.expm1(h)
    return K, -int(k[0])


def _level_faults(h: float, K: np.ndarray, t0: int, inputs: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nodes t >= t0 at which classical level values (inputs correlated
    with K) fail a check, by kind: not finite; last kernel term above 1e-12
    of the value; off the step-2h sum, taken at the even t from the inputs
    t + k with k even (L1 is even), by more than _TWO_H_RTOL, with those
    relative differences."""
    t = t0 + np.arange(len(values))
    edge = ~(np.abs(K[-1] * inputs[len(K) - 1:]) <= 1e-12 * np.abs(values))
    i0 = t0 % 2
    fine = values[i0::2]
    coarse = _correlate(inputs[i0::2], _laplace_kernel(2.0 * h)[0]) if len(fine) else fine
    diff = np.abs(fine - coarse)
    step = ~(diff <= _TWO_H_RTOL * np.abs(fine))
    with np.errstate(divide="ignore", invalid="ignore"):
        return t[~np.isfinite(values)], t[edge], t[i0::2][step], diff[step] / np.abs(fine[step])


class _LevelNote(NamedTuple):
    """What the checks of one classical level found over its outputs at
    t = lo..hi: the faults of _level_faults, and, on the first level, its
    values at the reference nodes x = e^(4j) from j = lattice[0] on."""
    lo: int
    hi: int
    faults: tuple[np.ndarray, ...]
    lattice: Optional[tuple[int, np.ndarray]]


class _LaplaceGrid(_LogGrid):
    """The last classical level of a section at one step h on the ray d_w,
    from g_1 (its ContinuationHandle) sampled once per node; a growth
    reaches _GRID_SLACK e-folds beyond the window it serves, for the points
    near it, and samples, correlates and checks (_level_faults) only its new
    nodes and level values, keeping the faults and the first level's
    reference lattice with the grid; a point's read raises at those among the
    values its window depends on, and checks the first level against the
    reference rule at three nodes x = e^(4j), the highest at most e^2 |w|
    (near the peak of the window's integrand), each once per grid.
    Whether a point passes thus depends on the point alone, not on the
    points asked before it or on the grid's range."""

    def __init__(self, cont: ContinuationHandle, h: float, levels: int):
        self.cont, self.h, self.levels = cont, h, levels
        self._kernel = _laplace_kernel(h)
        self._refs: dict[int, Optional[str]] = {}   # node e^(4j) -> reference failure

    def _ensure_grid_locked(self, lo: int, hi: int) -> tuple:
        slack = round(_GRID_SLACK / self.h)
        return self._grow(lo - slack, hi + slack, lambda a, b, below: self._samples(a, b),
                          self._kernel, self.levels, self._check)

    def _samples(self, lo: int, hi: int) -> np.ndarray:
        return self.cont.eval_ray_many(_ray_nodes(self.h, lo, hi))

    def _check(self, level: int, t0: int, inputs: np.ndarray, values: np.ndarray,
               note: Optional[_LevelNote]) -> _LevelNote:
        """The level's note so far (None on the first build) joined with the
        note of its new values from t = t0 on, which adjoin it below or above."""
        P = round(_REF_EFOLDS / self.h)
        j0 = -(-t0 // P)
        new = _LevelNote(t0, t0 + len(values) - 1,
                         _level_faults(self.h, self._kernel[0], t0, inputs, values),
                         (j0, values[j0 * P - t0 :: P].copy()) if level == 0 else None)
        if note is None:
            return new
        a, b = (new, note) if t0 < note.lo else (note, new)
        return _LevelNote(a.lo, b.hi, tuple(map(np.concatenate, zip(a.faults, b.faults))),
                          a.lattice and (a.lattice[0], np.concatenate([a.lattice[1], b.lattice[1]])))

    def read(self, lo: int, hi: int,
             w: SectorPoint) -> tuple[Optional[np.ndarray], Optional[tuple[int, float, str]]]:
        """The last level at the window lo..hi of the point w, and the first
        step-2h disagreement among the level values the window depends on
        (None if there is none), lowest level and smallest t first, as
        (level, relative difference over _TWO_H_RTOL, message).  Such a
        value that is not finite raises ValidationError, one whose kernel
        window is too narrow RangeError, and any fault at a node below the
        smallest normal float RangeError; so does, with ValidationError, a
        reference check that fails."""
        g_lo, _, values, notes, _ = self._covering(lo, hi)
        (K, L1), h, d = self._kernel, self.h, self.cont.direction
        needs = [(lo, hi)]          # the values the window depends on, top level first
        for _ in range(1, self.levels):
            needs.append((needs[-1][0] - L1, needs[-1][1] + len(K) - 1 - L1))
        for level, (note, (a, b)) in enumerate(zip(notes, reversed(needs))):
            *kinds, rel = note.faults
            for kind, ts in enumerate(kinds):
                hits = np.flatnonzero((ts >= a) & (ts <= b)) if len(ts) else ()
                if not len(hits):
                    continue
                i = hits[np.argmin(ts[hits])]
                name = f"classical level {level + 2} along arg = {d:.6g} (h = 2^{math.log2(h):.0f})"
                x = math.exp(h * int(ts[i]))
                at = f"x = {x:.6g}"
                if x < np.finfo(float).tiny:   # no finer step helps a subnormal node
                    raise RangeError(f"{name} fails its checks at {at}, where the node "
                                     f"grid underflows to subnormal floats")
                if kind == 0:
                    raise ValidationError(f"{name} is not finite at {at}")
                if kind == 1:
                    raise RangeError(f"{name}: kernel window too narrow at {at} "
                                     f"(edge term not negligible)")
                return None, (level + 2, rel[i] / _TWO_H_RTOL,
                              f"{name} disagrees with its step-2h sum at {at}: "
                              f"relative difference {rel[i]:.2e} > {_TWO_H_RTOL:.0e}")
        top = math.floor((w.log_modulus + 2.0) / _REF_EFOLDS)
        for j in (top - 2, top - 1, top) if self.levels else ():
            if j not in self._refs:
                self._refs[j] = self._reference(j, notes[0].lattice)
            if self._refs[j] is not None:
                raise ValidationError(self._refs[j])
        return values[lo - g_lo : hi - g_lo + 1], None

    def _reference(self, j: int, lattice: tuple[int, np.ndarray]) -> Optional[str]:
        """What is wrong with the first level at x = e^(4j), if it is off
        the reference rule by more than _REF_RTOL; None if it is not."""
        h, d, t = self.h, self.cont.direction, j * round(_REF_EFOLDS / self.h)
        x = float(_ray_nodes(h, t, t)[0])
        want = _reference_laplace(self.cont, d, [SectorPoint.from_polar(x, d)])[0]
        rel = abs(lattice[1][j - lattice[0]] - want) / max(abs(want), 1e-300)
        return None if rel <= _REF_RTOL else (
            f"classical level 2 along arg = {d:.6g} (h = 2^{math.log2(h):.0f}) disagrees with "
            f"its reference quadrature at x = {x:.6g}: relative error {rel:.2e} > {_REF_RTOL:.0e}")


class _LaplaceSection:
    """The classical levels of one section along the ray d_w, which evaluate
    S^d(h^(l)) at w = z^beta: one _LaplaceGrid per step h, and the final
    level as the window sum of h g(x_t) x_t A e^{-x_t A}, A = e^{i d_w}/w,
    over |x_t A| in [e^_V_LO, e^_V_HI/cos(arg A)], checked like a level
    against its step-2h sum.  The step comes from the smaller of the strip
    half-widths pi/2 - |arg A| and half the angle from d_w to the nearest
    singular direction of the section operator (half, so that the levels'
    step-2h sums keep the bound), capped at pi/16: the first grid serves the
    inner 7/8 of the sector, and only points nearer its edge pay for a finer
    one.  A step-2h disagreement of the window or of a level it reads halves
    the step, up to _REFINEMENTS times, and raises ValidationError after, or
    once a halving cuts a level's disagreement less than _REFINE_GAIN-fold."""

    def __init__(self, sec: "SectionPipeline", d_w: float):
        self.l = sec.l
        self.d_w = d_w
        self.cont = ContinuationHandle(sec.g1, sec.op, d_w)
        self.levels = sec.levels - 1
        self._a_w = 0.5 * min((abs(_angdiff(cmath.phase(rho), d_w))
                               for rho in sec.op.coefficients[-1].nonzero_roots()), default=math.pi)
        self._grids: dict[float, _LaplaceGrid] = {}

    def value(self, w: SectorPoint) -> complex:
        # Re A > 0: SummedFunction.domain_check keeps arg w within pi/2 of d_w
        A = cmath.exp(1j * self.d_w - w.complex_log())
        a, h = min(self._a_w, math.pi / 2 - abs(cmath.phase(A)), math.pi / 16), _H0
        while TWO_PI * a / h < _STRIP_EFOLDS:
            h /= 2
        fault = None
        for _ in range(_REFINEMENTS + 1):
            lo = math.floor((_V_LO + w.log_modulus) / h)
            hi = math.ceil((_V_HI - math.log(A.real / abs(A)) + w.log_modulus) / h)
            if hi - lo + self.levels * (_V_HI - _V_LO) / h > _GRID_CAP:
                if fault:
                    break
                raise RangeError(f"the Laplace node grid of arg w = {w.argument:.6g} (step "
                                 f"{h:.3g}) would exceed the size cap")
            grid = self._grids.get(h) or self._grids.setdefault(
                h, _LaplaceGrid(self.cont, h, self.levels))
            nodes, found = grid.read(lo, hi, w)
            if found is None:
                xA = _ray_nodes(h, lo, hi) * A
                terms = nodes * (h * xA * np.exp(-xA))
                total, coarse = _window_sum(terms, 1.0), 2.0 * complex(np.sum(terms[::2]))
                if abs(total - coarse) <= _WINDOW_2H_RTOL * abs(total):
                    return total
                rel = abs(total - coarse) / abs(total)
                found = (self.levels + 2, rel / _WINDOW_2H_RTOL,
                         f"final window of arg w = {w.argument:.6g} along arg = {self.d_w:.6g} "
                         f"(h = 2^{math.log2(h):.0f}) disagrees with its step-2h sum: relative "
                         f"difference {rel:.2e} > {_WINDOW_2H_RTOL:.0e}")
            if fault and fault[0] == found[0] and found[1] * _REFINE_GAIN > fault[1]:
                raise ValidationError(f"{found[2]}; halving cut it under {_REFINE_GAIN:g}-fold")
            fault, h = found, h / 2
        raise ValidationError(fault[2])


# ---------------------------------------------------------------------------
# Section pipelines


@dataclass
class SectionPipeline:
    """One beta-section of the ladder, free of any direction: the number of
    its Borel levels, g_1 and the operator op that annihilates g_1 (the
    roots of its leading coefficient give the section's singular
    directions), shared by every classical or q sum built from it."""

    l: int
    levels: int
    op: LinearOperator
    g1: PowerSeries


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
        def log_weight(n: int) -> float:
            return sum(math.lgamma(1.0 + n * m) for m in m_list)
    else:
        bases = [op.q ** float(kt) for kt in ladder.kappa_tilde]

        def log_weight(n: int) -> float:
            return sum(_ln_qfact(n * m, Q) for m, Q in zip(m_list, bases))
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
        # g_1 = B_{lam_1} ... B_{lam_s} (section) solves this recurrence from
        # its seeds, with the inhomogeneous rows they satisfy restored.  The
        # stages above g_1 are not kept: their leading coefficients are c z^k
        # (for span 1, only the last reweighting balances A_0 and A_1)
        rec_g1 = sec_rec
        for lam in reversed(orders_w):
            rec_g1 = reweight_recurrence(rec_g1, lam, weight)
        stop = l + beta * (n_seed - 1) + 1
        # g_1's seeds s_n / W(n), from s_n = a_(l + n beta) in log form
        seeds = np.array([0j if mag == -np.inf else ph * math.exp(mag - log_weight(n))
                          for n, (ph, mag) in enumerate(zip(phases[l:stop:beta],
                                                            logmags[l:stop:beta]))])
        _attach_stage_rhs(rec_g1, seeds)
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = rec_g1.solve(order, seed=seeds)
        g1 = PowerSeries(_truncate_overflow(coeffs, n_seed), 1)
        sections.append(SectionPipeline(l, len(orders_w), rec_g1.to_operator(), g1))
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
    singularities of each section's g_1 operator (the stages above have
    none), united with those of the roots of op's leading coefficient.

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
    """singular_directions read off a built section chain (its section
    operators do not depend on the truncation order)."""
    found: dict[float, tuple[float, str]] = {}
    for sec in sections:
        for rho in sec.op.coefficients[-1].nonzero_roots():
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


@dataclass
class SummedFunction:
    """Evaluable handle for a sum S^d(h) of either pipeline: the ladder (None
    for a convergent series and for the theta-kernel sum), the direction, one
    log-grid section per beta-section (its l and its value at w = z^beta:
    a _LaplaceSection or a _QSection), the excluded loci (pole spirals of a
    q sum) and the half-opening of the sector about d.  Evaluation outside
    the domain raises, never extrapolates: a convergent series with 3 or more
    nonzero terms also refuses z where its last two terms exceed 1e-12 of
    max(|value|, |c_0|), the anchor-disk rule of QContinuation."""

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
            series = self.convergent_series
            value, c = series.eval(z), np.abs(series.coefficients)
            with np.errstate(divide="ignore"):
                tail = np.log(c[-2:]) + np.arange(len(c))[-2:] / series.ram_index * z.log_modulus
            if np.count_nonzero(c) >= 3 and not np.max(tail) <= math.log(
                    1e-12 * max(abs(value), c[0], 1e-300)):
                raise DomainError(f"|z| = {z.modulus:.4g} is beyond the reach of the {len(c)}-term"
                                  f" series: its last terms exceed 1e-12 of its value")
            return value
        w = z.power(1 if self.ladder is None else self.ladder.beta)
        if not abs(w.log_modulus) < _LOG_REACH:
            raise RangeError(f"|z^beta| = e^{w.log_modulus:.6g} is beyond e^(+-{_LOG_REACH:g})")
        total = 0.0 + 0.0j
        for sec in self.sections:
            total += cmath.exp(sec.l * z.complex_log()) * sec.value(w)
        return total

    def residual(self, op: LinearOperator, z) -> float:
        """Relative residual of op at z: exact sigma_q shifts for a
        q-difference operator, Richardson-extrapolated central differences
        in log z, with spacings 1e-4 and 5e-5, for delta."""
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
                d1 = delta_pow(j, 1e-4)
                d2 = delta_pow(j, 5e-5)
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
    from _at: Laplace sections here, q-Laplace sections in a QSummationChain,
    both on log grids.
    A q-family passes the chain of its limit operator as ``limit``."""

    op: LinearOperator
    ladder: Optional[SummationLadder]
    sections: tuple[SectionPipeline, ...]
    directions: DirectionSet
    order: int
    series: Optional[PowerSeries] = None

    def sum(self, d: float, s: Optional[PowerSeries] = None) -> SummedFunction:
        """S^d(h); a singular d raises SingularDirectionError, a non-finite d
        or a series s that does not satisfy the operator ArgumentError."""
        self._check(d, s)
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
        return self._at(d)

    def lateral_pair(self, d: float, s: Optional[PowerSeries] = None
                     ) -> Optional[tuple[SummedFunction, SummedFunction]]:
        """(S^{d+o}, S^{d-o}) about a singular direction d, o from
        _bracket_offset; None off the singular set, where they agree.  A
        divergent q chain built without limit raises ArgumentError."""
        self._check(d, s)
        if self.sections and not self.directions.singular_directions:
            raise ArgumentError("lateral sums bracket a singular direction and this "
                                "chain has none: a q chain takes them from its limit")
        offset = _bracket_offset(self.directions, d, self.ladder)
        if offset is None:
            return None
        return self._at(d + offset), self._at(d - offset)

    def _check(self, d: float, s: Optional[PowerSeries]):
        """Refuse a non-finite d, a series s that does not satisfy the
        operator, and sections that hold the zero series: for a homogeneous
        operator they mean that valuation 0 is not an admissible leading
        index, and solve_series raises its ArgumentError."""
        if not math.isfinite(d):
            raise ArgumentError(f"direction d = {d} is not finite")
        _check_series(self.op, s)
        if (self.sections and self.op.rhs is None
                and not any(sec.g1.coefficients.any() for sec in self.sections)):
            solve_series(self.op, 1)

    def _at(self, d: float) -> SummedFunction:
        """The sum along d, which is not singular: one _LaplaceSection per
        section, each with its g_1 continued along the ray beta d and its
        levels summed on log grids.  No ray is excluded: with span 1 and a
        positive slope, the operator's leading coefficient is c z."""
        ladder = self.ladder
        _refuse_sub_unit(ladder)
        return SummedFunction(ladder, d, [_LaplaceSection(sec, ladder.beta * d)
                                          for sec in self.sections],
                              half_opening=math.pi / (2.0 * ladder.top_level))


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
             k_r_choice: Optional[int] = None, order: int = 240) -> SummedFunction:
    """Multisummation S^d of the formal solution of op along direction d.

    The series argument is optional (it is pinned by the operator and its
    right-hand side / valuation data); when supplied it is checked against
    the operator, and one that does not satisfy it raises.  Sums of one
    operator in several directions should share one summation_chain(op).
    """
    return summation_chain(op, k_r_choice, order).sum(d, s)


def stokes_jump(s: Optional[PowerSeries], op: LinearOperator, d_singular: float,
                zs: Sequence, order: int = 240) -> list[complex]:
    """Lateral-sum jumps S^{d+}(h)(z) - S^{d-}(h)(z) across a singular
    direction d, one per point z of zs (0 off the singular set); each is a
    solution of the homogeneous equation.  One lateral pair serves all."""
    return _jumps(summation_chain(op, order=order).lateral_pair(d_singular, s), zs)
