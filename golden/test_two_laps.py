"""Golden run of the odometry over two laps of the noisy 40 m loop.

About 270 scans of the benchmark's ``loop`` scene, with its noisy and biased
IMU: the keyframe set turns over many times and the accelerometer bias has
time to settle.  It takes about 40 s, so it lies outside the tier-1 test
paths and runs as a step of its own:

    PYTHONPATH=src python3 -m pytest -q golden
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from limapper.dataset_io import record_from_pose  # noqa: E402
from limapper.evaluation import compute_ate  # noqa: E402
from limapper.synthetic import generate_synthetic_scene  # noqa: E402
from test_odometry import keyframe_digest, loop_spec, run  # noqa: E402


def test_two_laps_bound_the_ate_and_the_accel_bias_error():
    # measured before frozen matching weights: ATE 8.283 mm and an
    # accelerometer bias error of 0.01698 m/s^2 against a 0.0616 m/s^2 bias
    # at the last scan; the bounds are those plus 15 %
    scene = generate_synthetic_scene(loop_spec(1, 270))
    est, results = run(scene)
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
