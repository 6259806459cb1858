import math

import numpy as np
import pytest
from hypothesis import settings

from qborel.series import Polynomial, PowerSeries
from qborel.operators import LinearOperator

# --hypothesis-profile=ci: the same examples on every run, no per-example
# deadline on a loaded runner
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def euler_op():
    """z*delta y + y = z, solution sum (-1)^n n! z^(n+1)."""
    return LinearOperator(
        "differential", "delta",
        (Polynomial([1.0]), Polynomial([0.0, 1.0])),
        None, PowerSeries([0.0, 1.0]),
    )


@pytest.fixture
def euler_homogenized():
    """z*delta^2 + delta - 1 (the homogenized Euler equation)."""
    return LinearOperator(
        "differential", "delta",
        (Polynomial([-1.0]), Polynomial([1.0]), Polynomial([0.0, 1.0])),
    )


@pytest.fixture
def example41_op():
    """(z^4 + z^3) delta^3 + z delta^2 + delta - 1."""
    return LinearOperator(
        "differential", "delta",
        (Polynomial([-1.0]), Polynomial([1.0]), Polynomial([0.0, 1.0]),
         Polynomial([0.0, 0.0, 0.0, 1.0, 1.0])),
    )


def make_q_euler(q):
    """z*delta_q y + y = z, solution sum (-1)^n [n]_q! z^(n+1)."""
    return LinearOperator(
        "q_difference", "delta_q",
        (Polynomial([1.0]), Polynomial([0.0, 1.0])),
        q, PowerSeries([0.0, 1.0]),
    )


@pytest.fixture
def q_euler_op():
    return make_q_euler(1.05)


def q_euler_borel(zeta, q):
    """Closed form of the q-Borel transform of the q-Euler solution,
    (q-1) sum_{m>=1} zeta / (q^m + zeta) = sum_n (-1)^n zeta^(n+1) / [n+1]_q,
    at an array of points; m runs until q^m exceeds 1e18 max(|zeta|, 1)."""
    zeta = np.asarray(zeta, dtype=complex)
    top = max(float(np.max(np.abs(zeta))), 1.0)
    total = np.zeros_like(zeta)
    for m in range(1, math.ceil(math.log(1e18 * top) / math.log(q)) + 1):
        total += zeta / (q**m + zeta)
    return (q - 1.0) * total
