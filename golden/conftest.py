"""The two-lap golden run, made once per session and shared by the golden
tests.

About 270 scans of the benchmark's ``loop`` scene, with its noisy and biased
IMU, run with the calls of some bindings counted per scan (``counted_run``).
"""

import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

# the benchmark's scene helpers, and the odometry tests' run helpers
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

from limapper import factor_graph, odometry  # noqa: E402
from limapper.odometry import OdometryEstimator  # noqa: E402
from limapper.registration import GaussianVoxelMap  # noqa: E402
from limapper.synthetic import generate_synthetic_scene  # noqa: E402
from workloads import imu_batches, loop_spec  # noqa: E402

# the bindings whose calls per scan are counted, in the columns of `calls`;
# a method is counted through an autospec, which passes its instance on
COUNTED = ((factor_graph, "match_terms"), (factor_graph, "linearize_from_terms"),
           (odometry, "overlap_rate"))
COUNTED_METHODS = ((GaussianVoxelMap, "look_up"),)


def counted_run(scene):
    """(estimator, results, calls, factors) of a run over the scene: per
    scan, the calls of each COUNTED binding and the factors in the window
    after the scan."""
    est = OdometryEstimator()
    batches = imu_batches(scene, est.config.odometry.init_window)
    results, calls, factors = [], [], []
    with ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(m, name, wraps=getattr(m, name)))
                 for m, name in COUNTED]
        spies += [stack.enter_context(mock.patch.object(
            cls, name, autospec=True, side_effect=getattr(cls, name)))
            for cls, name in COUNTED_METHODS]
        for scan, batch in zip(scene.scans, batches):
            results.append(est.process_frame(scan, batch))
            calls.append([spy.call_count for spy in spies])
            factors.append(len(est.graph.factors))
            for spy in spies:
                spy.reset_mock()  # and drop the recorded arguments
    return est, results, np.array(calls), np.array(factors)


@pytest.fixture(scope="session")
def two_laps():
    """(scene, estimator, results, calls, factors) of the counted run over
    two laps of the seed-1 ``loop`` scene."""
    scene = generate_synthetic_scene(loop_spec(1, 270))
    return (scene, *counted_run(scene))
