"""q-special functions: the Jacobi-type theta, the q-exponential and its
matrix version, the theta-quotient characters, and Pochhammer symbols.

Conventions (q > 1, p = 1/q):
    Theta_q(z) = sum_n q^{-n(n+1)/2} z^n,   sigma_q Theta_q = z Theta_q
    e_q(z)     = sum z^n / [n]_q!,          delta_q e_q = z e_q
    l_q        = delta(Theta_q)/Theta_q,    sigma_q l_q = l_q + 1
    Lambda_{q,a} = Theta_q(z)/Theta_q(z/a), sigma_q Lambda = a Lambda
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, PoleError, RangeError, UnsupportedError

_TERM_CUTOFF = 1e-17
_Q_FLOOR = 1.001


@dataclass(frozen=True)
class QParameter:
    """Real q > 1; values below 1.001 are rejected (the theta/e_q series
    then need O((q-1)^{-1/2}) terms -- use the limit formulas instead)."""

    q: float

    def __post_init__(self):
        if self.q <= 1.0:
            raise DomainError(f"q must exceed 1, got {self.q}")
        if self.q < _Q_FLOOR:
            raise RangeError(
                f"q = {self.q} below the supported floor {_Q_FLOOR}; "
                f"use the q -> 1 limit formulas"
            )


def _as_q(q) -> float:
    if isinstance(q, QParameter):
        return q.q
    q = float(q)
    QParameter(q)  # validation
    return q


# ---------------------------------------------------------------------------
# Theta


def theta(z, q) -> complex:
    """Jacobi-type theta sum_n q^{-n(n+1)/2} z^n (two-sided).

    Vanishes exactly on the discrete q-spiral -q^Z; away from the zeros it
    agrees to ~1e-10 with _theta_product, the tests' reference.
    """
    q = _as_q(q)
    z = complex(z)
    if z == 0:
        raise DomainError("theta is undefined at z = 0")
    total, log_peak = _theta_sum(z, q)
    return total * cmath.exp(complex(log_peak, 0.0))


def _theta_sum(z: complex, q: float, weighted: bool = False) -> tuple[complex, float]:
    """The theta series sum_n q^{-n(n+1)/2} z^n, or with weighted=True that of
    delta(Theta_q), whose terms carry the factor n and stop log(1+|n|) earlier.

    The sum is centred on the dominant index n0 = log_q|z| - 1/2 to avoid
    overflow: returns (sum / peak term, log|peak term|).
    """
    lz = math.log(abs(z))
    lq = math.log(q)
    n0 = int(round(lz / lq - 0.5))
    log_peak = -0.5 * n0 * (n0 + 1) * lq + n0 * lz
    cut = math.log(_TERM_CUTOFF)
    total = 0.0 + 0.0j
    for direction in (1, -1):
        n = n0 if direction == 1 else n0 - 1
        while True:
            log_term = -0.5 * n * (n + 1) * lq + n * lz
            offset = math.log(1.0 + abs(n)) if weighted else 0.0
            if log_term - log_peak < cut - offset:
                break
            term = cmath.exp(complex(log_term - log_peak, n * cmath.phase(z)))
            total += n * term if weighted else term
            n += direction
            if abs(n - n0) > 100000:
                raise RangeError("theta series did not converge")
    return total, log_peak


def theta_log(z, q) -> complex:
    """log Theta_q(z): the theta value grows like exp(log^2|z| / (2 log q)),
    which overflows doubles as q -> 1; ratios of thetas should be combined
    through exp(theta_log(a) - theta_log(b))."""
    q = _as_q(q)
    z = complex(z)
    if z == 0:
        raise DomainError("theta is undefined at z = 0")
    total, log_peak = _theta_sum(z, q)
    if total == 0:
        raise PoleError(f"theta_log evaluated at a zero of Theta_q ({z})")
    return cmath.log(total) + log_peak


def _theta_product(z: complex, q: float) -> complex:
    total = 1.0 + 0.0j
    n = 0
    while True:
        qn1 = q ** (-n - 1.0)
        factor = (1.0 - qn1) * (1.0 + qn1 * z) * (1.0 + q ** (-n) / z)
        total *= factor
        if qn1 * max(abs(z), abs(1.0 / z), 1.0) < _TERM_CUTOFF and n > 4:
            break
        n += 1
        if n > 100000:
            raise RangeError("theta product did not converge")
    return total


# ---------------------------------------------------------------------------
# q-exponential


def eq_exp(z, q) -> complex:
    """e_q(z) = sum z^n/[n]_q! = prod (1 + (q-1) q^{-n-1} z) for q > 1, by
    the series (_eq_product, the product, is the tests' reference).

    Bases in (0, 1) are accepted inside the series' disk |z| < 1/(1-q).
    """
    z = complex(z)
    if isinstance(q, QParameter):
        q = q.q
    q = float(q)
    if q <= 0:
        raise DomainError(f"e_q base must be positive, got {q}")
    if 1.0 - 1e-3 < q < _Q_FLOOR:
        raise RangeError(
            f"base q = {q} too close to 1; use the exp limit instead"
        )
    if q < 1.0 and abs(z) >= 1.0 / (1.0 - q):
        raise DomainError(
            f"e_q series with base {q} < 1 diverges for |z| >= {1.0 / (1.0 - q):.6g}"
        )
    return _eq_series(z, q)


def _eq_series(z: complex, q: float) -> complex:
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    n = 0
    while True:
        n += 1
        bracket = (q**n - 1.0) / (q - 1.0)
        term *= z / bracket
        total += term
        if abs(term) < _TERM_CUTOFF * max(abs(total), 1.0) and n > 4:
            break
        if n > 200000 or not (abs(term) < 1e300):
            raise RangeError("e_q series did not converge")
    return total


def _eq_product(z: complex, q: float) -> complex:
    """e_q(z) = prod (1 + t_n z), t_n = (q-1) q^{-n-1}, n = 0, 1, ..., up to
    the first n > 4 with t_n |z| < 1e-17."""
    total = 1.0 + 0.0j
    az = abs(z)
    n = 0
    while True:
        t = (q - 1.0) * q ** (-n - 1.0)
        total *= 1.0 + t * z
        if t * az < _TERM_CUTOFF and n > 4:
            return total
        n += 1
        if n > 200000:
            raise RangeError("e_q product did not converge")


# ---------------------------------------------------------------------------
# l_q and theta-quotient characters


def lq(z, q) -> complex:
    """l_q = delta(Theta_q)/Theta_q; satisfies sigma_q l_q = l_q + 1."""
    q = _as_q(q)
    z = complex(z)
    if z == 0:
        raise DomainError("l_q is undefined at z = 0")
    total, _ = _theta_sum(z, q)
    if abs(total) < 1e-8:
        raise PoleError(f"l_q evaluated on (or too near) the theta zero spiral at {z}")
    return _theta_sum(z, q, weighted=True)[0] / total


def lambda_char(a, z, q) -> complex:
    """Lambda_{q,a}(z) = Theta_q(z)/Theta_q(z/a); sigma_q eigenfunction with
    eigenvalue a."""
    q = _as_q(q)
    a = complex(a)
    if a == 0:
        raise ArgumentError("lambda_char requires a nonzero eigenvalue")
    z = complex(z)
    denom, log_denom = _theta_sum(z / a, q)
    if abs(denom) < 1e-8:
        raise PoleError(f"Lambda_(q,{a}) has a pole (too near) z = {z}")
    num, log_num = _theta_sum(z, q)
    return num / denom * math.exp(log_num - log_denom)


# ---------------------------------------------------------------------------
# Matrix versions


def lambda_matrix(A: np.ndarray, z, q) -> np.ndarray:
    """Lambda_{q,A} for diagonalizable A via the eigendecomposition
    P Diag(Lambda_{q,d_i}) P^{-1}; near-defective matrices are rejected
    (numerical Jordan structure is ill-posed)."""
    q = _as_q(q)
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError("lambda_matrix requires a square matrix")
    if abs(np.linalg.det(A)) < 1e-12:
        raise ArgumentError("lambda_matrix requires an invertible matrix")
    evals, P = np.linalg.eig(A)
    n = len(evals)
    sep = min(
        (abs(evals[i] - evals[j]) for i in range(n) for j in range(i + 1, n)),
        default=math.inf,
    )
    if sep < 1e-8 or np.linalg.cond(P) > 1e8:
        raise UnsupportedError(
            "lambda_matrix supports diagonalizable matrices with eigenvalue "
            "separation > 1e-8 only"
        )
    D = np.diag([lambda_char(d, z, q) for d in evals])
    return P @ D @ np.linalg.inv(P)


def q_exp_matrix(A: np.ndarray, q) -> np.ndarray:
    """e_q(A) = sum A^n/[n]_q!, truncated when the term norm drops below
    1e-16 of the running sum."""
    q = _as_q(q)
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError("q_exp_matrix requires a square matrix")
    total = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    n = 0
    while True:
        n += 1
        bracket = (q**n - 1.0) / (q - 1.0)
        term = term @ A / bracket
        total = total + term
        tn = np.linalg.norm(term)
        if not math.isfinite(tn) or tn > 1e290:
            raise RangeError("q_exp_matrix series escaped the float range")
        if tn < 1e-16 * max(np.linalg.norm(total), 1.0) and n > 3:
            break
        if n > 100000:
            raise RangeError("q_exp_matrix did not converge")
    return total


# ---------------------------------------------------------------------------
# Pochhammer symbols


def pochhammer(a, p: float, n=None) -> complex:
    """(a; p)_n for a nonnegative integer n, or (a; p)_infinity for n=None,
    with the infinite product truncated once |a p^k| < 1e-17."""
    a = complex(a)
    if not 0.0 < p < 1.0:
        raise DomainError(f"pochhammer base must lie in (0, 1), got {p}")
    if n is not None:
        if n < 0 or n != int(n):
            raise ArgumentError(f"pochhammer length must be a nonnegative integer")
        total = 1.0 + 0.0j
        for k in range(int(n)):
            total *= 1.0 - a * p**k
        return total
    total = 1.0 + 0.0j
    k = 0
    while True:
        factor = 1.0 - a * p**k
        total *= factor
        if abs(a) * p**k < _TERM_CUTOFF:
            break
        k += 1
        if k > 2000000:
            raise RangeError("infinite Pochhammer product did not converge")
    return total


def pochhammer_many(values, p: float) -> complex:
    """prod_i (a_i; p)_infinity (the (a_1,...,a_k; p)_inf shorthand)."""
    total = 1.0 + 0.0j
    for a in values:
        total *= pochhammer(a, p, None)
    return total
