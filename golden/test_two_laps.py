"""Golden run of the odometry over two laps of the noisy 40 m loop.

About 270 scans of the benchmark's ``loop`` scene, with its noisy and biased
IMU: the keyframe set turns over many times and the accelerometer bias has
time to settle.  It takes about 40 s, so it lies outside the tier-1 test
paths and runs as a step of its own:

    PYTHONPATH=src python3 -m pytest -q golden
"""

import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from limapper import factor_graph, odometry  # noqa: E402
from limapper.dataset_io import record_from_pose  # noqa: E402
from limapper.evaluation import compute_ate  # noqa: E402
from limapper.odometry import OdometryEstimator  # noqa: E402
from limapper.synthetic import generate_synthetic_scene  # noqa: E402
from test_odometry import imu_batches, keyframe_digest, loop_spec  # noqa: E402

# the bindings whose calls per scan are counted, in the columns of `calls`
COUNTED = ((factor_graph, "match_terms"), (factor_graph, "linearize_from_terms"),
           (odometry, "overlap_rate"))


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
        for scan, batch in zip(scene.scans, batches):
            results.append(est.process_frame(scan, batch))
            calls.append([spy.call_count for spy in spies])
            factors.append(len(est.graph.factors))
            for spy in spies:
                spy.reset_mock()  # and drop the recorded arguments
    return est, results, np.array(calls), np.array(factors)


def test_two_laps_bound_the_ate_and_the_accel_bias_error():
    # measured before frozen matching weights: ATE 8.283 mm and an
    # accelerometer bias error of 0.01698 m/s^2 against a 0.0616 m/s^2 bias
    # at the last scan; the bounds are those plus 15 %
    scene = generate_synthetic_scene(loop_spec(1, 270))
    est, results, calls, factors = counted_run(scene)
    assert len(results) == 272
    assert all(r.warning is None for r in results)
    records = [record_from_pose(r.state.stamp, r.state.pose) for r in results]
    assert compute_ate(records, scene.ground_truth).rmse < 9.5e-3
    last = results[-1].state
    assert np.linalg.norm(last.bias_accel - scene.spec.accel_bias) < 0.0195
    # the keyframe decisions, 245 removals by score among them, as measured
    # before the scored removal stopped forming the full overlap matrix
    removals = [e for e in est.keyframe_events if e["removed_by_score"]]
    assert len(removals) == 245
    assert keyframe_digest(est.keyframe_events) == (
        "8ad649a45a486cb1ff3baaefaf1ec5ae969e4a1a63bbfcff87a3221d1a8917b6")

    # bounded cost once the keyframe set is full (the paper's claim), on
    # counters that do not depend on the hardware, from the first removal
    # by score on (scans 27-271).  Measured there: at most 90 factors in
    # the window (75 unary and 10 binary matching ones), 4 assemblies
    # (linearize_from_terms calls) per scan, mean 3.16, and 144 match_terms
    # calls per scan, mean 88.6; the bounds add a margin of 10 %
    first = next(e["frame_index"] for e in est.keyframe_events if e["removed_by_score"])
    match, assemblies, overlaps = calls[first:].T
    assert factors[first:].max() <= 90 * 1.1
    assert assemblies.max() <= 4 * 1.1
    assert match.max() <= 144 * 1.1
    # one insertion test, one overlap per keyframe for rule 1 and the
    # ordered pairs of inner keyframes for rule 2: 363 with 20 keyframes
    k = est.config.odometry.max_keyframes
    assert overlaps.max() <= 1 + k + (k - 1) * (k - 2)
