"""Values that do not depend on call history: a freshly built sum gives the
same values bit for bit whatever order its points are asked in, and when it
is shared by 4 threads at once (series.py: everything can be shared), its
lazily grown log grids (classical and q) and ODE rungs included."""

import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qborel import classical as cl
from qborel import qsummation as qs
from qborel.operators import LinearOperator
from qborel.series import Polynomial, PowerSeries, SectorPoint

from conftest import make_q_euler

POLAR = [(0.05, 0.0), (0.3, 0.2), (0.1, -0.3), (0.2, 0.0),
         (0.15, 0.5), (0.08, -0.1), (0.25, -0.4), (0.12, 0.3)]
POINTS = [SectorPoint.from_polar(r, a) for r, a in POLAR]
# inside the sectors of both lateral sums: pi -/+ pi/24, half opening pi/6
POINTS_AT_PI = [SectorPoint.from_polar(r, math.pi + 0.5 * a) for r, a in POLAR]
# the d = 0 Euler sum on its ray out to |z| = 2
POINTS_ON_RAY = [SectorPoint.from_polar(r, 0.0) for r in np.geomspace(0.02, 2.0, 8)]


EULER = LinearOperator("differential", "delta",
                       (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                       None, PowerSeries([0.0, 1.0]))


def lateral_pair():
    """Both Euler sums about the Stokes ray pi: each side extends its own
    ODE rungs on demand."""
    plus, minus = cl.summation_chain(EULER).lateral_pair(math.pi)
    return lambda z: (plus(z), minus(z))


def q_sum(mode):
    return lambda: qs.q_multisum(None, make_q_euler(1.1), 0.0, mode=mode)


# each sum's builder and the points it is asked at
SUMS = {
    "classical": (lambda: cl.multisum(None, EULER, 0.0), POINTS),
    "discrete": (q_sum("discrete"), POINTS),
    "continuous": (q_sum("continuous"), POINTS),
    "theta": (q_sum("theta"), POINTS),
    "lateral-pair": (lateral_pair, POINTS_AT_PI),
}


@pytest.mark.parametrize("case", list(SUMS))
def test_fresh_sum_shared_by_four_threads_matches_serial(case):
    build, points = SUMS[case]
    S = build()
    serial = [S(z) for z in points]
    S = build()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often: interleave the lazy builds
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(S, points, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# the classical sum on the d = 0 ray out to |z| = 2
ORDERED = dict(SUMS, classical=(SUMS["classical"][0], POINTS_ON_RAY))


@functools.lru_cache(maxsize=None)
def in_order(case):
    """The values of a fresh sum asked at its points in list order."""
    build, points = ORDERED[case]
    S = build()
    return [S(z) for z in points]


@pytest.mark.parametrize("case", list(ORDERED))
@settings(max_examples=3, deadline=None)
@given(order=st.permutations(range(8)))
@example(order=[7, 0, 1, 2, 3, 4, 5, 6])   # the classical sum at z = 2 first
def test_any_evaluation_order_gives_the_same_values(case, order):
    # ODE rungs and log-grid values are functions of their node alone, never
    # of the points asked before
    build, points = ORDERED[case]
    S = build()
    got = {i: S(points[i]) for i in order}
    assert [got[i] for i in range(len(points))] == in_order(case)
