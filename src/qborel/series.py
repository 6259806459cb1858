"""Shared numeric substrate: sector points on the Riemann surface of the
logarithm, ramified truncated power series, q-integer arithmetic and the
complex Gamma function.

All values are immutable after construction and all operations are pure,
so everything here can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ArgumentError, DomainError, RangeError

ComplexLike = Union[int, float, complex]


def ensure_finite(value: complex, context: str = "operation") -> complex:
    """Reject NaN/Inf instead of letting them propagate silently."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RangeError(f"non-finite value escaped {context}: {value!r}")
    return value


# ---------------------------------------------------------------------------
# q-integers


def q_bracket(l: int, q: float) -> float:
    """[l]_q = 1 + q + ... + q^(l-1); the empty sum 0 for l = 0."""
    if q <= 1.0:
        raise DomainError(f"q_bracket requires q > 1, got q={q}")
    if l < 0 or l != int(l):
        raise ArgumentError(f"q_bracket requires a nonnegative integer, got {l}")
    if l == 0:
        return 0.0
    value = (q**l - 1.0) / (q - 1.0)
    if not math.isfinite(value):
        raise RangeError(f"q_bracket overflow at l={l}, q={q}")
    return value


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = prod_{l=1}^{n} [l]_q, with [0]_q! = 1."""
    if q <= 1.0:
        raise DomainError(f"q_factorial requires q > 1, got q={q}")
    if n < 0 or n != int(n):
        raise ArgumentError(f"q_factorial requires a nonnegative integer, got {n}")
    value = 1.0
    for l in range(1, n + 1):
        value *= (q**l - 1.0) / (q - 1.0)
        if not math.isfinite(value):
            raise RangeError(f"q_factorial overflow at n={n} (step l={l}), q={q}")
    return value


# ---------------------------------------------------------------------------
# Gamma


def gamma(z: ComplexLike) -> complex:
    """Complex Gamma function (scipy.special.gamma; real arguments take its
    real path).  Poles at the non-positive integers raise
    :class:`DomainError`.  scipy.special is imported here, on first use, so
    that importing the package does not load it."""
    from scipy import special

    z = complex(z)
    if z.imag == 0.0 and z.real == round(z.real) and z.real <= 0.0:
        raise DomainError(f"gamma pole at z = {int(z.real)}")
    return ensure_finite(complex(special.gamma(z.real if z.imag == 0.0 else z)), "gamma")


# ---------------------------------------------------------------------------
# Sector points


@dataclass(frozen=True)
class SectorPoint:
    """Point on the Riemann surface of the logarithm.

    The argument is exact and unbounded (never reduced mod 2*pi); the
    projection to C is exp(log_modulus) * e^{i*argument}.
    """

    log_modulus: float
    argument: float

    @classmethod
    def from_complex(cls, w: ComplexLike, argument: float | None = None) -> "SectorPoint":
        w = complex(w)
        if not (cmath.isfinite(w) and math.isfinite(0.0 if argument is None else argument)):
            raise DomainError(f"SectorPoint requires finite input, got {w} (argument {argument})")
        if w == 0:
            raise DomainError("SectorPoint requires a nonzero complex number")
        principal = cmath.phase(w)
        if argument is None:
            argument = principal
        else:
            k = round((argument - principal) / (2.0 * math.pi))
            if abs(argument - principal - 2.0 * math.pi * k) > 1e-9:
                raise ArgumentError(
                    f"argument {argument} does not project onto arg({w}) mod 2*pi"
                )
            argument = principal + 2.0 * math.pi * k
        return cls(math.log(abs(w)), argument)

    @classmethod
    def from_polar(cls, modulus: float, argument: float) -> "SectorPoint":
        if not (0 < modulus < math.inf and math.isfinite(argument)):
            raise DomainError(f"SectorPoint needs a finite modulus > 0 and a finite argument, "
                              f"got {modulus}, {argument}")
        return cls(math.log(modulus), argument)

    def to_complex(self) -> complex:
        return cmath.exp(complex(self.log_modulus, self.argument))

    @property
    def modulus(self) -> float:
        return math.exp(self.log_modulus)

    def power(self, c: float) -> "SectorPoint":
        """z^c computed on the surface: both log-modulus and argument scale."""
        c = float(c)
        return SectorPoint(self.log_modulus * c, self.argument * c)

    def complex_log(self) -> complex:
        return complex(self.log_modulus, self.argument)


def as_sector_point(z, argument: float | None = None) -> SectorPoint:
    if isinstance(z, SectorPoint):
        return z
    return SectorPoint.from_complex(z, argument)


# ---------------------------------------------------------------------------
# Polynomials (dense, complex, ascending coefficients)


class Polynomial:
    """Dense complex polynomial; trailing zero coefficients are trimmed so the
    leading coefficient is nonzero unless the polynomial is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Sequence[ComplexLike]):
        arr = np.asarray(list(coefficients), dtype=complex)
        if arr.ndim != 1:
            raise ArgumentError("polynomial coefficients must be a flat sequence")
        n = len(arr)
        while n > 0 and arr[n - 1] == 0:
            n -= 1
        arr = arr[:n].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int | None:
        """z-adic valuation; None for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __call__(self, z: ComplexLike) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([])
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return Polynomial(a)

    def shift_argument(self, a: ComplexLike) -> "Polynomial":
        """p(x) -> p(x + a)."""
        result = Polynomial([])
        for c in reversed(self.coeffs):
            result = result * Polynomial([a, 1]) + Polynomial([c])
        return result

    def scale_argument(self, c: ComplexLike) -> "Polynomial":
        """p(x) -> p(c*x)."""
        powers = np.array([complex(c) ** j for j in range(len(self.coeffs))])
        return Polynomial(self.coeffs * powers)

    def nonzero_roots(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        roots = np.roots(self.coeffs[::-1])
        return roots[np.abs(roots) > 1e-12]

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other):
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(tuple(self.coeffs.tolist()))


# ---------------------------------------------------------------------------
# Ramified truncated power series


class PowerSeries:
    """Truncated formal power series in t = z^(1/ram_index).

    coefficients[n] is the coefficient of z^(n/ram_index); the truncation
    order equals len(coefficients).  Instances are immutable.
    """

    __slots__ = ("coefficients", "ram_index")

    def __init__(self, coefficients: Sequence[ComplexLike], ram_index: int = 1):
        if ram_index < 1 or ram_index != int(ram_index):
            raise ArgumentError(f"ram_index must be a positive integer, got {ram_index}")
        arr = np.asarray(list(coefficients), dtype=complex).copy()
        if arr.ndim != 1 or len(arr) == 0:
            raise ArgumentError("coefficients must be a nonempty flat sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "ram_index", int(ram_index))

    def __setattr__(self, *a):
        raise AttributeError("PowerSeries is immutable")

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients)

    def coeff_at(self, exponent: Fraction) -> complex:
        """Coefficient of z^exponent (0 if outside the truncated support)."""
        idx = exponent * self.ram_index
        if idx.denominator != 1:
            return 0.0 + 0.0j
        i = int(idx)
        if 0 <= i < len(self.coefficients):
            return complex(self.coefficients[i])
        return 0.0 + 0.0j

    # -- arithmetic --------------------------------------------------------

    def _common_ram(self, other: "PowerSeries"):
        nu = self.ram_index
        mu = other.ram_index
        lcm = nu * mu // math.gcd(nu, mu)
        return self._reramify(lcm), other._reramify(lcm)

    def _reramify(self, new_nu: int) -> "PowerSeries":
        if new_nu == self.ram_index:
            return self
        step = new_nu // self.ram_index
        out = np.zeros((len(self.coefficients) - 1) * step + 1, dtype=complex)
        out[::step] = self.coefficients
        return PowerSeries(out, new_nu)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries(self.coefficients * complex(other), self.ram_index)
        a, b = self._common_ram(other)
        n = min(len(a.coefficients), len(b.coefficients))
        prod = np.convolve(a.coefficients[:n], b.coefficients[:n])[:n]
        return PowerSeries(prod, a.ram_index)

    __rmul__ = __mul__

    def termwise(self, weight: Callable[[int], complex]) -> "PowerSeries":
        """Multiply coefficient n (index in the ramified variable) by weight(n)."""
        w = np.array([weight(n) for n in range(len(self.coefficients))], dtype=complex)
        return PowerSeries(self.coefficients * w, self.ram_index)

    # -- evaluation --------------------------------------------------------

    def eval(self, z) -> complex:
        """Evaluate at z (complex or SectorPoint; the latter fixes the branch
        of z^(1/ram_index) through its exact argument)."""
        if isinstance(z, SectorPoint):
            t = cmath.exp(z.complex_log() / self.ram_index)
        else:
            z = complex(z)
            if self.ram_index == 1:
                t = z
            else:
                t = cmath.exp(cmath.log(z) / self.ram_index) if z != 0 else 0.0
        acc = 0j
        for c in self.coefficients[::-1].tolist():
            acc = acc * t + c
        return acc

    def eval_many(self, t) -> np.ndarray:
        """The series at the 1-D array t of points of its own variable
        z^(1/ram_index), in any order.  In the octave 2^(e-1) <= |t| < 2^e it
        sums the terms up to the last one whose bound |c_n| 2^(e n) reaches
        2^-60 of the octave's largest bound (far inside the disk a few terms
        of a long series suffice).  That last term never falls as the octave
        rises: if K < n is the largest bound one octave up, term n's bound
        rises by n and the largest by K.  The points are visited by |t|: one
        Horner pass runs step n on the suffix of points whose degree reaches
        n, the arithmetic of one polyval per octave.  A value depends on its
        point alone, not on the other points or their order."""
        t = np.asarray(t, dtype=complex)
        if t.size == 0:
            return np.zeros(0, dtype=complex)
        order = np.argsort(np.abs(t))
        x = t[order]
        e = np.frexp(np.abs(x))[1]
        c = self.coefficients
        octaves = np.unique(e)
        with np.errstate(divide="ignore"):
            bound = np.log2(np.abs(c)) + octaves[:, None] * np.arange(len(c))
        kept = bound >= bound.max(axis=1, keepdims=True) - 60.0
        top = len(c) - 1 - np.argmax(kept[:, ::-1], axis=1)
        degree = top[np.searchsorted(octaves, e)]
        first = np.searchsorted(degree, np.arange(degree[-1] + 1)).tolist()
        acc, prod = np.zeros(len(x), dtype=complex), np.empty(len(x), dtype=complex)
        s = None
        for n in range(degree[-1], -1, -1):
            if first[n] != s:
                s = first[n]
                a, xs, p = acc[s:], x[s:], prod[s:]
            # not in place: numpy rounds an in-place complex product of a
            # single element differently from one of a longer array
            np.multiply(a, xs, p)
            np.add(p, c[n], a)
        x[order] = acc   # back to the input order, in the sorted copy's buffer
        return x

    # -- comparison --------------------------------------------------------

    def normalized(self) -> "PowerSeries":
        """Reduce ram_index by the gcd of the support (plus the ram itself)."""
        nz = [n for n, c in enumerate(self.coefficients) if c != 0]
        g = self.ram_index
        for n in nz:
            g = math.gcd(g, n)
        if g <= 1:
            return self
        return PowerSeries(self.coefficients[::g], self.ram_index // g)

    def almost_equal(self, other: "PowerSeries", tol: float = 1e-12) -> bool:
        a, b = self.normalized()._common_ram(other.normalized())
        n = min(len(a.coefficients), len(b.coefficients))
        ca, cb = a.coefficients[:n], b.coefficients[:n]
        scale = max(np.max(np.abs(ca)), np.max(np.abs(cb)), 1.0)
        return bool(np.max(np.abs(ca - cb)) <= tol * scale)

    def __repr__(self):
        return (
            f"PowerSeries(len={len(self.coefficients)}, ram={self.ram_index}, "
            f"lead={self.coefficients[:4]!r}...)"
        )


def ramify(s: PowerSeries, c) -> PowerSeries:
    """rho_c: sum f_n z^e  ->  sum f_n z^(e*c), for rational c > 0.

    The ram_index is adjusted so all exponents stay integral in the new
    variable; rho_1 is the identity and rho_b . rho_c = rho_{b*c}.
    """
    c = Fraction(c)
    if c <= 0:
        raise ArgumentError(f"ramification exponent must be positive, got {c}")
    if c == 1:
        return s
    p, qden = c.numerator, c.denominator
    new_nu = s.ram_index * qden
    out = np.zeros((len(s.coefficients) - 1) * p + 1, dtype=complex)
    out[::p] = s.coefficients
    return PowerSeries(out, new_nu).normalized()


def section(s: PowerSeries, beta: int, l: int) -> PowerSeries:
    """Return the beta-section sum_n c_{l+n*beta} z^{n*beta} of an unramified
    series; sum_l z^l section(s, beta, l) reconstructs s exactly."""
    if s.ram_index != 1:
        raise ArgumentError("section requires an unramified series (ram_index 1)")
    if beta < 1 or beta != int(beta):
        raise ArgumentError(f"beta must be a positive integer, got {beta}")
    if not (0 <= l < beta):
        raise ArgumentError(f"section index l={l} outside [0, {beta})")
    N = len(s.coefficients)
    picked = s.coefficients[l::beta]
    if len(picked) == 0:
        picked = np.zeros(1, dtype=complex)
    out = np.zeros((len(picked) - 1) * beta + 1, dtype=complex)
    out[::beta] = picked
    return PowerSeries(out, 1)
