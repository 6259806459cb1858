"""Linear delta- and q-difference operators with polynomial coefficients.

Provides the operator <-> coefficient-recurrence correspondence that drives
everything downstream: Newton polygons and characteristic polynomials, series
solving, and the derivation of the operator annihilating a Borel transform
(Gamma / q-factorial / theta-weight clearing at the recurrence level).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    ParseError,
    ResonanceError,
    UnsupportedError,
    ValidationError,
)
from .series import Polynomial, PowerSeries, gamma, q_factorial

Kind = Literal["differential", "q_difference"]
Basis = Literal["delta", "delta_q", "sigma_q"]

_LEAD_TOL = 1e-12


# ---------------------------------------------------------------------------
# Operator


@dataclass(frozen=True)
class LinearOperator:
    """sum_j coefficients[j] * D^j where D is delta, delta_q or sigma_q.

    An optional right-hand-side series makes the annihilated object the
    solution of an inhomogeneous equation (the intro Euler examples).
    """

    kind: Kind
    basis: Basis
    coefficients: tuple[Polynomial, ...]
    q: Optional[float] = None
    rhs: Optional[PowerSeries] = None

    def __post_init__(self):
        coeffs = tuple(
            c if isinstance(c, Polynomial) else Polynomial(c) for c in self.coefficients
        )
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) == 0:
            raise ValidationError("operator needs at least one coefficient")
        if coeffs[-1].is_zero:
            raise ValidationError("leading operator coefficient must be nonzero")
        if self.kind == "differential":
            if self.basis != "delta":
                raise ValidationError("differential operators use the delta basis")
            if self.q is not None:
                raise ValidationError("differential operators carry no q")
        elif self.kind == "q_difference":
            if self.basis not in ("delta_q", "sigma_q"):
                raise ValidationError("q-difference operators use delta_q or sigma_q")
            if self.q is None or not self.q > 1.0:
                raise ValidationError("q-difference operators require q > 1")
        else:
            raise ValidationError(f"unknown operator kind {self.kind!r}")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def max_coeff_degree(self) -> int:
        return max(c.degree for c in self.coefficients if not c.is_zero)

    def to_sigma_basis(self) -> "LinearOperator":
        """Rewrite a delta_q operator over sigma_q via delta_q = (sigma_q-1)/(q-1)."""
        if self.kind != "q_difference":
            raise ArgumentError("to_sigma_basis applies to q-difference operators")
        if self.basis == "sigma_q":
            return self
        q = self.q
        m = self.order
        new = [Polynomial([]) for _ in range(m + 1)]
        for j, b in enumerate(self.coefficients):
            if b.is_zero:
                continue
            scale = (q - 1.0) ** (-j)
            for k in range(j + 1):
                binom = math.comb(j, k) * ((-1.0) ** (j - k)) * scale
                new[k] = new[k] + b * binom
        return LinearOperator("q_difference", "sigma_q", tuple(new), q, self.rhs)

    def to_delta_q_basis(self) -> "LinearOperator":
        if self.kind != "q_difference":
            raise ArgumentError("to_delta_q_basis applies to q-difference operators")
        if self.basis == "delta_q":
            return self
        q = self.q
        m = self.order
        new = [Polynomial([]) for _ in range(m + 1)]
        for j, b in enumerate(self.coefficients):
            if b.is_zero:
                continue
            # sigma^j = (1 + (q-1) delta_q)^j
            for k in range(j + 1):
                new[k] = new[k] + b * (math.comb(j, k) * (q - 1.0) ** k)
        return LinearOperator("q_difference", "delta_q", tuple(new), q, self.rhs)


# ---------------------------------------------------------------------------
# Document format (External Interfaces)


def _poly_to_doc(p: Polynomial) -> list:
    return [[c.real, c.imag] for c in p.coeffs]


def _series_to_doc(s: PowerSeries) -> list:
    return [[c.real, c.imag] for c in s.coefficients]


def serialize_operator(op: LinearOperator) -> str:
    doc = {
        "kind": op.kind,
        "basis": op.basis,
        "coefficients": [_poly_to_doc(p) for p in op.coefficients],
    }
    if op.q is not None:
        doc["q"] = op.q
    if op.rhs is not None:
        doc["rhs"] = _series_to_doc(op.rhs)
    return json.dumps(doc, sort_keys=True)


def _parse_pair(entry, path: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) for v in entry)
    ):
        raise ParseError("expected [re, im] number pair", path)
    return complex(entry[0], entry[1])


def parse_operator(text: str | dict) -> LinearOperator:
    """Parse an operator document (JSON text or an already-decoded dict).

    Round-trips through :func:`serialize_operator` bit-exactly.
    """
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", "$") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ParseError("operator document must be an object", "$")
    kind = doc.get("kind")
    if kind not in ("differential", "q_difference"):
        raise ParseError(f"bad kind {kind!r}", "kind")
    basis = doc.get("basis")
    if basis not in ("delta", "delta_q", "sigma_q"):
        raise ParseError(f"bad basis {basis!r}", "basis")
    q = doc.get("q")
    if kind == "q_difference":
        if not isinstance(q, (int, float)):
            raise ParseError("q_difference operator requires numeric q", "q")
    elif q is not None:
        raise ParseError("differential operator must not carry q", "q")
    raw = doc.get("coefficients")
    if not isinstance(raw, list) or not raw:
        raise ParseError("coefficients must be a nonempty list", "coefficients")
    polys = []
    for j, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise ParseError("polynomial must be a list of pairs", f"coefficients[{j}]")
        polys.append(
            Polynomial(
                [_parse_pair(pair, f"coefficients[{j}][{i}]") for i, pair in enumerate(entry)]
            )
        )
    rhs = None
    if "rhs" in doc and doc["rhs"] is not None:
        if not isinstance(doc["rhs"], list) or not doc["rhs"]:
            raise ParseError("rhs must be a nonempty list of pairs", "rhs")
        rhs = PowerSeries(
            [_parse_pair(pair, f"rhs[{i}]") for i, pair in enumerate(doc["rhs"])]
        )
    return LinearOperator(kind, basis, tuple(polys), q, rhs)


# ---------------------------------------------------------------------------
# Newton polygon


@dataclass(frozen=True)
class NewtonPolygon:
    """Minimal vertex set of the coefficient-valuation hull and its slopes.

    slopes is the list of (slope, multiplicity) for consecutive hull edges,
    strictly increasing in slope.
    """

    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[tuple[Fraction, int], ...]

    def positive_slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.slopes if s > 0)

    def is_convergent_only(self) -> bool:
        return len(self.positive_slopes()) == 0


def _lower_hull(points: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    pts = sorted(points)
    hull: list[tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] unless it turns strictly left (keep convex, minimal)
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon(op: LinearOperator) -> NewtonPolygon:
    """Newton polygon of the operator.

    Differential case: the hull is taken over the columns i = 0..m above the
    staircase min_{k >= i} v0(b_k), so the slope list is nonnegative and a
    horizontal edge records the regular-singular part.  q-difference case
    (sigma_q form): full hull of the columns (i, v0(b_i)); slopes of either
    sign may occur.
    """
    if op.kind == "q_difference":
        op = op.to_sigma_basis()
        points = []
        for i, b in enumerate(op.coefficients):
            v = b.valuation()
            if v is not None:
                points.append((i, Fraction(v)))
        hull = _lower_hull(points)
    else:
        vals: dict[int, int] = {}
        for i, b in enumerate(op.coefficients):
            v = b.valuation()
            if v is not None:
                vals[i] = v
        m = max(vals)
        staircase = []
        for i in range(0, m + 1):
            tail = [v for k, v in vals.items() if k >= i]
            staircase.append((i, Fraction(min(tail))))
        hull = _lower_hull(staircase)
    slopes = []
    for (d1, n1), (d2, n2) in zip(hull, hull[1:]):
        slopes.append((Fraction(n2 - n1, d2 - d1), d2 - d1))
    return NewtonPolygon(tuple(hull), tuple(slopes))


# ---------------------------------------------------------------------------
# Characteristic polynomial (q-difference, integer slope)


@dataclass(frozen=True)
class CharPolynomial:
    slope: Fraction
    coefficients: tuple[complex, ...]  # ascending powers of X
    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]


def characteristic_polynomial(op: LinearOperator, slope) -> CharPolynomial:
    """Characteristic polynomial attached to an integer slope of the polygon
    of a q-difference operator (sigma_q normal form)."""
    if op.kind != "q_difference":
        raise ArgumentError("characteristic polynomials are defined for q-operators")
    op = op.to_sigma_basis()
    slope = Fraction(slope)
    if slope.denominator != 1:
        raise UnsupportedError(
            f"characteristic polynomial needs an integer slope, got {slope}"
        )
    polygon = newton_polygon(op)
    edge = None
    for (d1, n1), (d2, n2) in zip(polygon.vertices, polygon.vertices[1:]):
        if Fraction(n2 - n1, d2 - d1) == slope:
            edge = ((d1, n1), (d2, n2))
            break
    if edge is None:
        raise ArgumentError(f"slope {slope} is not a slope of the polygon")
    (d1, n1), (d2, _) = edge
    mu = int(slope)
    q = op.q
    coeffs = []
    for j in range(d1, d2 + 1):
        exponent = int(n1 + mu * (j - d1))
        b = op.coefficients[j] if j < len(op.coefficients) else Polynomial([])
        a_j = b.coeffs[exponent] if 0 <= exponent < len(b.coeffs) else 0.0
        coeffs.append(complex(a_j) * q ** (mu * j * (j - 1) / 2.0))
    if coeffs[-1] == 0:
        raise ValidationError("degenerate characteristic polynomial (zero leading term)")
    roots = np.roots(np.array(coeffs[::-1], dtype=complex) / coeffs[-1])
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        for cluster in clusters:
            if abs(r - cluster[0]) < 1e-7 * max(1.0, abs(cluster[0])):
                cluster.append(r)
                break
        else:
            clusters.append([r])
    reps = tuple(complex(np.mean(c)) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    return CharPolynomial(slope, tuple(coeffs), reps, mults)


# ---------------------------------------------------------------------------
# Operator action on truncated series


def apply_operator(op: LinearOperator, s: PowerSeries) -> PowerSeries:
    """Exact truncated action of the operator (rhs, if any, is not subtracted)."""
    nu = s.ram_index
    N = len(s.coefficients)
    n_over_nu = np.arange(N) / float(nu)
    if op.kind == "differential":
        weight_pow = lambda j: n_over_nu**j
    else:
        q = op.q
        qs = q**n_over_nu
        if op.basis == "sigma_q":
            weight_pow = lambda j: qs**j
        else:
            br = (qs - 1.0) / (q - 1.0)
            weight_pow = lambda j: br**j
    out = np.zeros(N, dtype=complex)
    for j, b in enumerate(op.coefficients):
        if b.is_zero:
            continue
        base = s.coefficients * weight_pow(j)
        for i, c in enumerate(b.coeffs):
            if c == 0:
                continue
            shift = i * nu
            if shift < N:
                out[shift:] += c * base[: N - shift]
    return PowerSeries(out, nu)


def residual(op: LinearOperator, s: PowerSeries) -> PowerSeries:
    """apply_operator(op, s) minus the operator's rhs (zero series if none);
    the rhs is zero-padded so the residual keeps the full truncation range."""
    res = apply_operator(op, s)
    if op.rhs is not None:
        arr = res.coefficients.copy()
        rhs = op.rhs._reramify(res.ram_index) if op.rhs.ram_index != res.ram_index else op.rhs
        n = min(len(arr), len(rhs.coefficients))
        arr[:n] -= rhs.coefficients[:n]
        res = PowerSeries(arr, res.ram_index)
    return res


# ---------------------------------------------------------------------------
# Coefficient recurrences


@dataclass
class Recurrence:
    """Relation  sum_i A_i(x_n) a_{n-i} = rhs_n  for the coefficient sequence.

    var 'n':  x_n = n                       (differential operators)
    var 'qn': x_n = qstep**n                (q-difference, sigma form)

    Only indices n >= n_min are guaranteed to satisfy the relation (section
    recurrences become valid above the inhomogeneous window).
    """

    A: list[Polynomial]
    var: Literal["n", "qn"]
    qstep: Optional[float] = None
    rhs: dict[int, complex] = field(default_factory=dict)
    n_min: int = 0

    @property
    def span(self) -> int:
        return len(self.A) - 1

    @property
    def degree(self) -> int:
        """D, the largest degree of the A_i in x (the operator's order)."""
        return max((Ai.degree for Ai in self.A if not Ai.is_zero), default=0)

    def coeff_row(self, n: int) -> np.ndarray:
        x = float(n) if self.var == "n" else self.qstep**n
        return np.array([Ai(x) for Ai in self.A], dtype=complex)

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, list, list]:
        """Rows n = start..stop-1 of the relation, all evaluated at once with
        D = self.degree: (rows, log_scales, scales).  rows[n - start, i] is
        A_i(x_n)/x_n^D and log_scales holds D log x_n; in n, D is taken as 0,
        as those rows stay finite unscaled.  scales holds the resonance
        scale sum_j |c_j| x_n^(j-D) of A_0 = sum_j c_j x^j, at least 1e-300:
        both solvers call row n resonant when |A_0(x_n)|/x_n^D is at most
        _LEAD_TOL of it."""
        ns = range(start, stop)
        A0 = self.A[0].coeffs
        # the powers in the scale are Python's: numpy's vectorized power may
        # differ from them in the last bit
        if self.var == "n":
            t = np.arange(start, stop, dtype=float)
            horner = [Ai.coeffs[::-1] for Ai in self.A]
            log_scales = [0.0] * len(ns)
            powers = [np.array([float(n) ** j for n in ns]) for j in range(len(A0))]
        else:
            # Horner in t = 1/x_n over c_0..c_D: sum_j c_j x_n^(j - D)
            D = self.degree
            log_x = [n * math.log(self.qstep) for n in ns]
            xinv = [math.exp(-min(v, 700.0)) if v > 0 else 1.0 for v in log_x]
            t = np.array(xinv)
            horner = [[Ai.coeffs[j] if j <= Ai.degree else 0.0 for j in range(D + 1)]
                      for Ai in self.A]
            log_scales = [D * v for v in log_x]
            powers = [np.array([v ** (D - j) for v in xinv]) for j in range(len(A0))]
        rows = np.zeros((len(ns), len(self.A)), dtype=complex)
        for i, coeffs in enumerate(horner):
            for c in coeffs:
                rows[:, i] = rows[:, i] * t + c
        scale = np.zeros(len(ns))
        for c, p in zip(A0, powers):
            scale = scale + abs(c) * p
        return rows, log_scales, np.maximum(scale, 1e-300).tolist()

    @classmethod
    def from_operator(cls, op: LinearOperator) -> "Recurrence":
        if op.kind == "q_difference":
            op = op.to_sigma_basis()
        m = op.order
        I = op.max_coeff_degree()
        A = [Polynomial([]) for _ in range(I + 1)]
        for j, b in enumerate(op.coefficients):
            for i, c in enumerate(b.coeffs):
                if c == 0:
                    continue
                if op.kind == "differential":
                    # z^i delta^j contributes c*(x - i)^j at shift i
                    term = Polynomial([-i, 1])
                    poly = Polynomial([1])
                    for _ in range(j):
                        poly = poly * term
                    A[i] = A[i] + poly * c
                else:
                    # z^i sigma^j contributes c * q^{-j i} x^j at shift i
                    mono = [0.0] * j + [c * op.q ** (-j * i)]
                    A[i] = A[i] + Polynomial(mono)
        rhs: dict[int, complex] = {}
        if op.rhs is not None:
            if op.rhs.ram_index != 1:
                raise UnsupportedError("recurrence rhs must be unramified")
            for n, c in enumerate(op.rhs.coefficients):
                if c != 0:
                    rhs[n] = complex(c)
        var = "n" if op.kind == "differential" else "qn"
        return cls(A, var, op.q if op.kind == "q_difference" else None, rhs)

    def to_operator(self) -> LinearOperator:
        """Convert back to operator form (delta basis / sigma_q basis)."""
        coeffs = [Polynomial([]) for _ in range(self.degree + 1)]
        for i, Ai in enumerate(self.A):
            if Ai.is_zero:
                continue
            # A_i(delta + i), or A_i(q^i sigma)
            moved = Ai.shift_argument(i) if self.var == "n" else Ai.scale_argument(self.qstep**i)
            for j, c in enumerate(moved.coeffs):
                if c != 0:
                    coeffs[j] = coeffs[j] + Polynomial([0.0] * i + [c])
        if self.var == "n":
            return LinearOperator("differential", "delta", tuple(coeffs), None, self._rhs_series())
        return LinearOperator("q_difference", "sigma_q", tuple(coeffs), self.qstep,
                              self._rhs_series())

    def _rhs_series(self) -> Optional[PowerSeries]:
        if not self.rhs:
            return None
        n_max = max(self.rhs)
        arr = np.zeros(n_max + 1, dtype=complex)
        for n, c in self.rhs.items():
            arr[n] = c
        return PowerSeries(arr, 1)

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        order: int,
        valuation: int = 0,
        leading: complex = 1.0,
        seed: Optional[Sequence[complex]] = None,
    ) -> np.ndarray:
        """Solve forward for coefficients a_0..a_{order-1}.  At a resonant
        index with consistent data the free coefficient is `leading` at the
        valuation and 0 elsewhere; an inconsistent right side raises
        :class:`ResonanceError`.
        """
        I = self.span
        out = np.zeros(order, dtype=complex)
        start = 0
        if seed is not None:
            ns = min(len(seed), order)
            out[:ns] = np.asarray(seed, dtype=complex)[:ns]
            start = ns
        rows, log_scales, scales = self._rows(start, order)
        for n in range(start, order):
            row, log_scale, scale = rows[n - start], log_scales[n - start], scales[n - start]
            r = complex(self.rhs.get(n, 0.0))
            if r != 0.0 and log_scale != 0.0:
                r *= math.exp(-log_scale)
            acc = r
            for i in range(1, I + 1):
                if n - i >= 0:
                    acc -= row[i] * out[n - i]
            lead = row[0]
            if abs(lead) <= _LEAD_TOL * scale:
                residual_scale = max(
                    (abs(row[i]) * abs(out[n - i]) for i in range(1, I + 1) if n - i >= 0),
                    default=0.0,
                )
                if abs(acc) <= 1e-10 * max(residual_scale, 1.0):
                    out[n] = leading if n == valuation else 0.0
                else:
                    raise ResonanceError(
                        f"recurrence leading factor vanishes at n={n} with "
                        f"inconsistent right side",
                        n=n,
                    )
            else:
                out[n] = acc / lead
        return out

    def solve_logspace(
        self,
        order: int,
        valuation: int = 0,
        leading: complex = 1.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve forward in (phase, log-magnitude) form; immune to overflow.

        Returns (phases, logmags) with a_n = phases[n] * exp(logmags[n]).
        Mirrors :meth:`solve`: at a resonant index with consistent data the
        free coefficient is `leading` at the valuation and 0 elsewhere, and
        an inconsistent right side raises :class:`ResonanceError`.
        """
        I = self.span
        phases = np.zeros(order, dtype=complex)
        logmags = np.full(order, -np.inf)
        rows, log_scales, scales = self._rows(0, order)
        for n in range(order):
            row, log_scale = rows[n], log_scales[n]
            terms_phase = []
            terms_log = []
            r = self.rhs.get(n, 0.0)
            if r != 0.0:
                terms_phase.append(r / abs(r))
                terms_log.append(math.log(abs(r)) - log_scale)
            for i in range(1, I + 1):
                if n - i >= 0 and logmags[n - i] > -np.inf and row[i] != 0:
                    c = -row[i] * phases[n - i]
                    terms_phase.append(c / abs(c))
                    terms_log.append(math.log(abs(c)) + logmags[n - i])
            lead = row[0]
            resonant = abs(lead) <= _LEAD_TOL * scales[n]
            acc, m_star = 0.0, -math.inf
            if terms_log:
                m_star = max(terms_log)
                acc = sum(p * math.exp(lg - m_star) for p, lg in zip(terms_phase, terms_log))
            if resonant:
                # as in solve: the data are consistent when |acc| is at most
                # 1e-10 max(1, largest a-term), in the row's scaled units
                a_log = max(terms_log[1:] if r != 0.0 else terms_log, default=0.0)
                if acc != 0 and math.log(abs(acc)) + m_star > math.log(1e-10) + max(a_log, 0.0):
                    raise ResonanceError(f"recurrence leading factor vanishes at n={n} "
                                         f"with inconsistent right side", n=n)
                if n == valuation and leading != 0:
                    phases[n] = leading / abs(leading)
                    logmags[n] = math.log(abs(leading))
                continue
            val = acc / lead
            if val == 0:
                continue
            phases[n] = val / abs(val)
            logmags[n] = m_star + math.log(abs(val))
        return phases, logmags


def solve_series(
    op: LinearOperator,
    order: int,
    valuation: int = 0,
    leading: complex = 1.0,
) -> PowerSeries:
    """Power-series solution of op(y) = rhs by the coefficient recurrence.

    For homogeneous equations the valuation must be an indicial root and the
    leading coefficient is free; an inhomogeneous right side determines the
    series on its own.
    """
    rec = Recurrence.from_operator(op)
    out = PowerSeries(rec.solve(order, valuation=valuation, leading=leading), 1)
    if op.rhs is None and abs(out.coefficients[valuation] - leading) > 1e-9 * max(
        1.0, abs(leading)
    ):
        raise ArgumentError(
            f"valuation {valuation} is not an admissible leading index "
            f"for this homogeneous operator"
        )
    return out


# ---------------------------------------------------------------------------
# Weight clearing: Borel-plane operators


def _ratio_polynomial_gamma(k: Fraction, j_count: int, offset: Fraction) -> Polynomial:
    """prod_{j=1..j_count} ((x + offset)/k + j) as a polynomial in x."""
    poly = Polynomial([1])
    invk = 1.0 / float(k)
    for j in range(1, j_count + 1):
        poly = poly * Polynomial([float(offset) * invk + j, invk])
    return poly


def _ratio_polynomial_qfact(
    k: Fraction, j_count: int, offset: Fraction, q: float
) -> Polynomial:
    """prod_{j=1..j_count} [ (n + offset)/k + j ]_{q^k} as polynomial in x=q^n."""
    Q = q ** float(k)
    poly = Polynomial([1])
    for j in range(1, j_count + 1):
        # [ (n+offset)/k + j ]_{Q} = (q^{n+offset} Q^j - 1)/(Q - 1)
        a = (q ** float(offset)) * Q**j / (Q - 1.0)
        poly = poly * Polynomial([-1.0 / (Q - 1.0), a])
    return poly


def reweight_recurrence(
    rec: Recurrence,
    k: Fraction,
    weight: Literal["gamma", "qfact", "rz"],
) -> Recurrence:
    """Recurrence for b_n = a_n / W(n) given one for a_n.

    W(n) = Gamma(1 + n/k), [n/k]_{q^k}! or q^{n(n-1)/2}, q the recurrence's
    qstep; the cleared weight ratios are polynomial in the recurrence
    variable provided every shift is a multiple of k.
    """
    k = Fraction(k)
    I = rec.span
    q = rec.qstep
    shifts = [i for i, Ai in enumerate(rec.A) if not Ai.is_zero]
    if weight != "rz":
        for i in shifts:
            if (Fraction(i) / k).denominator != 1:
                raise UnsupportedError(
                    f"shift {i} is not a multiple of the Borel order {k}; "
                    f"ramify the operator first"
                )
    newA = []
    for i, Ai in enumerate(rec.A):
        if Ai.is_zero:
            newA.append(Ai)
            continue
        if weight == "rz":
            # W(n) = q^{n(n-1)/2}: ratio is a monomial in x = q^n
            expo_x, expo_c = I - i, Fraction(i * i + i - I * I - I, 2)
            mono = [0.0] * expo_x + [q ** float(expo_c)]
            newA.append(Ai * Polynomial(mono))
            continue
        j_count = int(Fraction(I - i) / k)
        if weight == "gamma":
            ratio = _ratio_polynomial_gamma(k, j_count, Fraction(-I))
        else:
            ratio = _ratio_polynomial_qfact(k, j_count, Fraction(-I), q)
        newA.append(Ai * ratio)
    new_rhs: dict[int, complex] = {}
    for n, c in rec.rhs.items():
        if weight == "gamma":
            arg = 1.0 + float(Fraction(n - I) / k)
            if arg <= 0 and arg == round(arg):
                # cleared row is weakened to 0 = 0 below the span; the
                # Borel coefficients still satisfy it
                new_rhs[n] = 0.0
            else:
                new_rhs[n] = c / complex(gamma(arg))
        elif weight == "qfact":
            m = Fraction(n - I) / k
            if m < 0:
                new_rhs[n] = 0.0
            elif m.denominator != 1:
                raise UnsupportedError(f"q-factorial index {m} is not an integer")
            else:
                new_rhs[n] = c / q_factorial(int(m), q ** float(k))
        else:
            new_rhs[n] = c / q ** ((n - I) * (n - I - 1) / 2.0)
    return Recurrence(newA, rec.var, rec.qstep, new_rhs, rec.n_min)


def borel_plane_operator(op: LinearOperator, k) -> LinearOperator:
    """Operator annihilating the order-k Borel transform of every series the
    input annihilates.

    Differential: the transform divides coefficient n by Gamma(1 + n/k).
    q-difference: division by [n/k]_{q^k}!  (the level-k plane carries the
    rescaled parameter q^k; see the ladder construction).
    """
    weight = "gamma" if op.kind == "differential" else "qfact"
    return reweight_recurrence(Recurrence.from_operator(op), Fraction(k), weight).to_operator()


def rz_borel_operator(op: LinearOperator) -> LinearOperator:
    """Operator annihilating the theta-weight q-Borel transform
    (division of coefficient n by q^{n(n-1)/2})."""
    if op.kind != "q_difference":
        raise ArgumentError("rz_borel_operator applies to q-difference operators")
    return reweight_recurrence(Recurrence.from_operator(op), Fraction(1), "rz").to_operator()


# ---------------------------------------------------------------------------
# Section recurrences (coefficient subsequences a_{l + n*beta})


def section_recurrence(rec: Recurrence, beta: int, l: int) -> Recurrence:
    """Recurrence satisfied by s_n = a_{l + n*beta} for a first-order master
    recurrence (span 1); valid above the inhomogeneous window.  Spans >= 2
    raise UnsupportedError.
    """
    if rec.span != 1:
        raise UnsupportedError(
            f"closed-form section extraction needs a span-1 recurrence, got span {rec.span}"
        )
    A0, A1 = rec.A
    if rec.var == "n":
        P0 = Polynomial([1])
        P1 = Polynomial([1])
        for t in range(beta):
            # master index m = l + beta*n - t
            P0 = P0 * _compose_affine(A0, beta, l - t)
            P1 = P1 * _compose_affine(A1, beta, l - t)
    else:
        q = rec.qstep
        P0 = Polynomial([1])
        P1 = Polynomial([1])
        for t in range(beta):
            scale = q ** (l - t)
            P0 = P0 * A0.scale_argument(scale)
            P1 = P1 * A1.scale_argument(scale)
    # chain: s_n = (-1)^beta (prod A1 / prod A0) s_{n-1},
    # i.e. P0 s_n + (-1)^(beta+1) P1 s_{n-1} = 0
    newA = [P0, P1 * ((-1.0) ** (beta + 1))]
    rhs_max = max(rec.rhs) if rec.rhs else -1
    n_min = 0
    if rhs_max >= 0:
        n_min = (rhs_max - l) // beta + 2
    qstep = rec.qstep**beta if rec.var == "qn" else None
    return Recurrence(newA, rec.var, qstep, {}, max(n_min, 1))


def _compose_affine(p: Polynomial, a: float, b: float) -> Polynomial:
    """p(a*x + b)."""
    return p.scale_argument(a).shift_argument(b / a) if a != 0 else Polynomial([p(b)])
