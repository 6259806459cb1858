"""Basic hypergeometric series, their sigma_q equation, the connection
formula at infinity, the closed-form q-Borel-Laplace sum, and the classical
limit of that sum (a Gamma-weighted combination of {}_{s+1}F_{r-1} values).

Conventions: p in (0,1) is the base of the phi series, qb = 1/p its
reciprocal.  The divergent regime is r > s + 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateParameterError,
    DirectionError,
    DomainError,
    RangeError,
)
from .operators import LinearOperator
from .series import Polynomial, PowerSeries, as_sector_point, gamma
from .qspecial import pochhammer_many, theta_log

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Parameter records


@dataclass(frozen=True)
class PhiParams:
    """Upper/lower parameters of {}_r phi_s with base p in (0, 1).

    For the divergent pipeline r > s + 1; the upper parameters must avoid
    qb^N and have pairwise distinct images in C*/qb^Z (checked to 1e-8)."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]
    p: float

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        if not 0.0 < self.p < 1.0:
            raise ArgumentError(f"phi base must lie in (0,1), got {self.p}")
        if any(a == 0 for a in self.upper):
            raise DegenerateParameterError("upper parameters must be nonzero")
        qb = 1.0 / self.p
        for a in self.upper:
            # a in qb^N degenerates the Pochhammer quotients
            t = cmath.log(a) / math.log(qb)
            if abs(t.imag) < 1e-8 and abs(t.real - round(t.real)) < 1e-8 and t.real > -1e-8:
                raise DegenerateParameterError(
                    f"upper parameter {a} lies on the spiral qb^N"
                )
        for i in range(len(self.upper)):
            for j in range(i + 1, len(self.upper)):
                t = cmath.log(self.upper[i] / self.upper[j]) / math.log(qb)
                if abs(t.imag) < 1e-8 and abs(t.real - round(t.real)) < 1e-8:
                    raise DegenerateParameterError(
                        f"upper parameters {self.upper[i]}, {self.upper[j]} "
                        f"coincide in C*/qb^Z"
                    )

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)

    @property
    def qb(self) -> float:
        return 1.0 / self.p


@dataclass(frozen=True)
class FParams:
    """Upper/lower parameters of {}_r F_s; parameters off -N with pairwise
    distinct images in C/Z (tolerance 1e-8)."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        for a in self.upper + self.lower:
            if abs(a.imag) < 1e-8 and abs(a.real - round(a.real)) < 1e-8 and a.real < 1e-8:
                raise DegenerateParameterError(f"parameter {a} lies in -N")
        for i in range(len(self.upper)):
            for j in range(i + 1, len(self.upper)):
                t = self.upper[i] - self.upper[j]
                if abs(t.imag) < 1e-8 and abs(t.real - round(t.real)) < 1e-8:
                    raise DegenerateParameterError(
                        f"upper parameters differ by an integer: "
                        f"{self.upper[i]}, {self.upper[j]}"
                    )

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


# ---------------------------------------------------------------------------
# Series


def _phi_ratio(upper: Sequence[complex], lower: Sequence[complex], p: float, n: int) -> tuple:
    """(num, den, twist): term n + 1 of r phi_s is term n times num/den * twist * z."""
    num = np.prod([1.0 - a * p**n for a in upper]) if upper else 1.0
    den = (1.0 - p ** (n + 1)) * (np.prod([1.0 - b * p**n for b in lower]) if lower else 1.0)
    if den == 0:
        raise DegenerateParameterError(f"vanishing denominator factor at index n={n + 1}")
    return num, den, ((-1.0) * p**n) ** (1 + len(lower) - len(upper))


def rphi_coefficients(params: PhiParams, N: int) -> np.ndarray:
    """First N coefficients of
    sum (a_1;p)_n...(a_r;p)_n / ((p;p)_n (b_1;p)_n...(b_s;p)_n)
        * ((-1)^n p^(n(n-1)/2))^(1+s-r) z^n."""
    out = np.empty(N, dtype=complex)
    u = 1.0 + 0.0j
    out[0] = u
    for n in range(N - 1):
        num, den, twist = _phi_ratio(params.upper, params.lower, params.p, n)
        u = u * num / den * twist
        if not (abs(u) < 1e300):
            raise RangeError(
                f"phi coefficient overflow at n={n + 1} (q-Gevrey growth); "
                f"request fewer terms"
            )
        out[n + 1] = u
    return out


def rphi(params: PhiParams, z: Optional[complex] = None, N: int = 64):
    """Truncated {}_r phi_s series, or its value at z when z is given
    (the caller is responsible for z lying inside the convergence region)."""
    coeffs = rphi_coefficients(params, N)
    series = PowerSeries(coeffs, 1)
    if z is None:
        return series
    return series.eval(complex(z))


def _F_ratio(params: FParams, n: int) -> tuple[complex, complex]:
    """(num, den): term n + 1 of r F_s is term n times num/den * z."""
    num = np.prod([a + n for a in params.upper]) if params.r else 1.0
    den = (n + 1.0) * (np.prod([b + n for b in params.lower]) if params.s else 1.0)
    if den == 0:
        raise DegenerateParameterError(f"vanishing factor (beta_i = -{n})")
    return num, den


def rF_coefficients(params: FParams, N: int) -> np.ndarray:
    out = np.empty(N, dtype=complex)
    u = 1.0 + 0.0j
    out[0] = u
    for n in range(N - 1):
        num, den = _F_ratio(params, n)
        u = u * num / den
        out[n + 1] = u
    return out


def rF(params: FParams, z: Optional[complex] = None, N: int = 64):
    """Truncated {}_r F_s series, or its value at z (adaptively truncated)."""
    if z is None:
        return PowerSeries(rF_coefficients(params, N), 1)
    z = complex(z)
    u = 1.0 + 0.0j
    total = u
    for n in range(4000):
        num, den = _F_ratio(params, n)
        u = u * num / den * z
        total += u
        if abs(u) < 1e-17 * max(abs(total), 1.0) and n > 4:
            return total
    raise DomainError("rF series did not converge (outside the disk?)")


# ---------------------------------------------------------------------------
# The sigma equation


def rphi_operator(params: PhiParams) -> LinearOperator:
    """sigma_qb-operator annihilating {}_r phi_s(a; b; p, z):

        (sigma - 1) prod_i (sigma - b_i qb)  +  (-1)^(s-r) qb^(1+s) *
        z * prod_i (sigma - a_i)  (one power of sigma per level; negative
        powers never arise once the relation is written against the series'
        own coefficient ratio).

    For r = s + 2 this is the equation with nonnegative polygon slopes
    {0, 1}; it is verified against the series by residual in the tests."""
    qb = params.qb
    # z^0 part: (sigma - 1) prod (sigma - b_i qb)
    poly0 = Polynomial([-1.0, 1.0])
    for b in params.lower:
        poly0 = poly0 * Polynomial([-b * qb, 1.0])
    # z^1 part: (-1)^(s-r) qb^(1+s) prod (sigma - a_i)
    poly1 = Polynomial([1.0])
    for a in params.upper:
        poly1 = poly1 * Polynomial([-a, 1.0])
    poly1 = poly1 * ((-1.0) ** ((params.s - params.r) % 2) * qb ** (1 + params.s))
    order = max(poly0.degree, poly1.degree)
    coeffs = []
    for j in range(order + 1):
        c0 = poly0.coeffs[j] if j <= poly0.degree else 0.0
        c1 = poly1.coeffs[j] if j <= poly1.degree else 0.0
        coeffs.append(Polynomial([c0, c1]))
    return LinearOperator("q_difference", "sigma_q", tuple(coeffs), qb)


# ---------------------------------------------------------------------------
# Connection formula at infinity (r upper, r-1 lower, convergent)


def connection_infinity(params: PhiParams, z: complex) -> complex:
    """Evaluate the large-|z| side of the connection formula for the
    convergent {}_r phi_{r-1}: the sum over j = 1..r of Pochhammer-quotient
    prefactors times argument-inverted {}_r phi_{r-1} factors of 200 terms.

    Requires |p prod(b) / (z prod(a))| < 1 so the inverted series converge."""
    if params.s != params.r - 1:
        raise ArgumentError("connection formula applies to {}_r phi_{r-1}")
    p = params.p
    a = params.upper
    b = params.lower
    r = params.r
    z = complex(z)
    if z == 0:
        raise DomainError("connection formula needs z != 0")
    arg_far = p * np.prod(b) / (z * np.prod(a))
    if abs(arg_far) >= 1.0:
        raise DomainError(
            f"inverted-series argument {abs(arg_far):.4g} >= 1: outside the "
            f"common domain of the connection formula"
        )
    total = 0.0 + 0.0j
    for j in range(r):
        aj = a[j]
        others = [a[i] for i in range(r) if i != j]
        num = pochhammer_many(
            list(others) + [bi / aj for bi in b] + [aj * z, p / (aj * z)], p
        )
        den = pochhammer_many(
            list(b) + [ai / aj for ai in others] + [z, p / z], p
        )
        if abs(den) < 1e-280:
            raise DegenerateParameterError("vanishing denominator product")
        far = PhiParams(
            tuple([aj] + [aj * p / bi for bi in b]),
            tuple(aj * p / ai for ai in others),
            p,
        )
        total += num / den * rphi(far, arg_far, 200)
    return total


# ---------------------------------------------------------------------------
# Closed-form q-sum (theta-weight Borel + theta-kernel Laplace)


def qsum_closed_form(params: PhiParams, d: float, z) -> complex:
    """Closed form of the q-Borel-Laplace sum of the divergent {}_r phi_s:

        sum_j  a_j * [Pochhammer quotients] *
               Theta((-1)^(s-r) a_j lam) / Theta((-1)^(s-r) lam) *
               Theta(a_j z / lam) / Theta(z / lam) *
               {}_{s+2} phi_{r-1}(a_j, a_j p/b_1..a_j p/b_s, 0;
                                  a_j p/a_i (i != j); p,
                                  (-1)^(s-r) p^(r-s-1) a_j^(r-s-2)
                                      prod b / (z prod a))

    with lam = (qb - 1) e^{id} and phi summed within 200 terms; forbidden
    directions d = (r-s-1) pi mod 2 pi.  The a_j prefactor and the p^(r-s-1)
    power are pinned against the direct Borel-Laplace pipeline
    (theta-weight Borel + theta-kernel Laplace).
    """
    r, s = params.r, params.s
    if r <= s + 1:
        raise ArgumentError("closed-form q-sum applies to the divergent regime r > s+1")
    phase_gap = (d - (r - s - 1) * math.pi) % TWO_PI
    if min(phase_gap, TWO_PI - phase_gap) < 1e-9:
        raise DirectionError(
            f"direction d = {d} is congruent to (r-s-1) pi mod 2 pi"
        )
    p, qb = params.p, params.qb
    zp = as_sector_point(z)
    zc = zp.to_complex()
    lam = (qb - 1.0) * cmath.exp(1j * d)
    sign = (-1.0) ** ((s - r) % 2)
    a = params.upper
    b = params.lower
    total = 0.0 + 0.0j
    for j in range(r):
        aj = a[j]
        others = [a[i] for i in range(r) if i != j]
        num = pochhammer_many(list(others) + [bi / aj for bi in b], p)
        den = pochhammer_many(list(b) + [ai / aj for ai in others], p)
        log_theta_ratio = (
            theta_log(sign * aj * lam, qb)
            - theta_log(sign * lam, qb)
            + theta_log(aj * zc / lam, qb)
            - theta_log(zc / lam, qb)
        )
        pref = aj * num / den * cmath.exp(log_theta_ratio)
        # {}_{s+2} phi_{r-1} with a 0 upper slot: build coefficients directly
        upper = [aj] + [aj * p / bi for bi in b] + [0.0]
        lower = [aj * p / ai for ai in others]
        prod_b = np.prod(b) if s else 1.0
        arg = (
            sign * p ** (r - s - 1) * aj ** (r - s - 2) * prod_b
            / (zc * np.prod(a))
        )
        total += pref * _phi_value(upper, lower, p, complex(arg))
    return total


def _phi_value(upper: Sequence[complex], lower: Sequence[complex], p: float,
               z: complex) -> complex:
    """{}_r phi_s value with possible zero upper entries (no distinctness
    checks; used by the closed-form right-hand side), within 200 terms."""
    u = 1.0 + 0.0j
    total = u
    for n in range(200):
        num, den, twist = _phi_ratio(upper, lower, p, n)
        u = u * num / den * twist * z
        total += u
        if abs(u) < 1e-17 * max(abs(total), 1.0) and n > 4:
            return total
    if abs(u) > 1e-12 * max(abs(total), 1.0):
        raise DomainError(
            f"phi series not converged after 200 terms (|last| = {abs(u):.2e})"
        )
    return total


# ---------------------------------------------------------------------------
# Classical limit of the closed form


def classical_limit_rhs(params: FParams, d: float, z) -> complex:
    """Gamma-weighted sum of {}_{s+1}F_{r-1} values: the q -> 1 limit of the
    closed-form q-sum, equal to the Borel-Laplace sum of {}_r F_s.

    Requires arg(-z) != d and all Gamma arguments off the poles."""
    r, s = params.r, params.s
    if r <= s + 1:
        raise ArgumentError("classical limit applies to the divergent regime")
    zp = as_sector_point(z)
    zc = zp.to_complex()
    if abs(((zp.argument + math.pi - d) % TWO_PI + TWO_PI) % TWO_PI) < 1e-9:
        raise DomainError(f"arg(-z) coincides with the direction d = {d}")
    alpha = params.upper
    beta = params.lower
    sign = (-1.0) ** ((s - r) % 2)
    total = 0.0 + 0.0j
    for j in range(r):
        aj = alpha[j]
        others = [alpha[i] for i in range(r) if i != j]
        num = 1.0 + 0.0j
        for bi in beta:
            num *= gamma(bi)
        for ai in others:
            num *= gamma(ai - aj)
        den = 1.0 + 0.0j
        for ai in others:
            den *= gamma(ai)
        for bi in beta:
            den *= gamma(bi - aj)
        # ((-1)^(s-r) z)^(-a_j) on the surface of the logarithm
        base = sign * zc
        power = cmath.exp(-aj * cmath.log(base))
        inner = FParams(
            tuple([aj] + [aj - bi + 1.0 for bi in beta]),
            tuple(aj - ai + 1.0 for ai in others),
        )
        total += num / den * power * rF(inner, sign / zc)
    return total
