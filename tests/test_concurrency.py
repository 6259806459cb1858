"""Sums shared between threads (series.py: everything can be shared): a
freshly built sum evaluated from 4 threads at once gives the serial values
bit for bit, lazy stage tabulations, ODE segments and q-grids included."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from qborel import classical as cl
from qborel import qsummation as qs
from qborel.series import SectorPoint

from conftest import make_q_euler

POLAR = [(0.05, 0.0), (0.3, 0.2), (0.1, -0.3), (0.2, 0.0),
         (0.15, 0.5), (0.08, -0.1), (0.25, -0.4), (0.12, 0.3)]
POINTS = [SectorPoint.from_polar(r, a) for r, a in POLAR]
# inside the sectors of both lateral sums: pi -/+ pi/24, half opening pi/6
POINTS_AT_PI = [SectorPoint.from_polar(r, math.pi + 0.5 * a) for r, a in POLAR]


def lateral_pair(euler):
    """Both Euler sums about the Stokes ray pi: each side extends its own
    ODE segments on demand."""
    plus, minus = cl.summation_chain(euler).lateral_pair(math.pi)
    return lambda z: (plus(z), minus(z))


@pytest.mark.parametrize("build, points", [
    (lambda euler: cl.multisum(None, euler, 0.0), POINTS),
    (lambda euler: qs.q_multisum(None, make_q_euler(1.1), 0.0, mode="discrete"), POINTS),
    (lambda euler: qs.q_multisum(None, make_q_euler(1.1), 0.0, mode="theta"), POINTS),
    (lateral_pair, POINTS_AT_PI),
], ids=["classical", "discrete", "theta", "lateral-pair"])
def test_fresh_sum_shared_by_four_threads_matches_serial(euler_op, build, points):
    S = build(euler_op)
    serial = [S(z) for z in points]
    S = build(euler_op)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often: interleave the lazy builds
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(S, points, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
