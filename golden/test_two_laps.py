"""Golden run of the odometry over two laps of the noisy 40 m loop.

About 270 scans of the benchmark's ``loop`` scene, with its noisy and biased
IMU: the keyframe set turns over many times and the accelerometer bias has
time to settle.  The run (``two_laps`` in conftest.py) takes about 15 s, so
it lies outside the tier-1 test paths and runs as a step of its own:

    PYTHONPATH=src python3 -m pytest -q golden
"""

import numpy as np

from limapper import odometry
from limapper.dataset_io import record_from_pose
from limapper.evaluation import compute_ate
from test_odometry import keyframe_digest


def test_two_laps_bound_the_ate_and_the_accel_bias_error(two_laps):
    # measured before frozen matching weights: ATE 8.283 mm and an
    # accelerometer bias error of 0.01698 m/s^2 against a 0.0616 m/s^2 bias
    # at the last scan; the bounds are those plus 15 %.  Since the overlap
    # counts face-neighbour voxels the run reads 4.193 mm and 0.01843 m/s^2
    scene, est, results, calls, factors = two_laps
    assert len(results) == 272
    assert all(r.warning is None for r in results)
    records = [record_from_pose(r.state.stamp, r.state.pose) for r in results]
    assert compute_ate(records, scene.ground_truth).rmse < 9.5e-3
    last = results[-1].state
    assert np.linalg.norm(last.bias_accel - scene.spec.accel_bias) < 0.0195
    # the keyframe decisions, 72 removals by score among them, as measured
    # once the overlap counted face-neighbour voxels
    events = est.keyframe_events
    removals = [e for e in events if e["removed_by_score"]]
    assert len(removals) == 72
    assert keyframe_digest(events) == (
        "6c30290e324b3a95445d2b51bb82f9386fb8c1bd0c0e34b51f2646ff89a138a3")

    # bounded cost once the keyframe set is full (the paper's claim), on
    # counters that do not depend on the hardware, from the first removal
    # by score on (scans 67-271).  Measured there: at most 107 factors in
    # the window, mean 105.6 (90 before, when most keyframes were still in
    # the window and linked by binary factors), 5 assemblies
    # (linearize_from_terms calls) per scan, mean 3.12, and 102
    # match_terms calls per scan, mean 56.9; the bounds add a margin of 10 %
    first = removals[0]["frame_index"]
    match, assemblies, overlaps, look_ups = calls[first:].T
    assert factors[first:].max() <= 107 * 1.1
    assert assemblies.max() <= 5 * 1.1
    assert match.max() <= 102 * 1.1
    # voxel look-ups (GaussianVoxelMap.look_up) per scan, all of them for
    # matching, since the overlap searches the near-key table instead: at
    # most 122, mean 64.1; the bound adds a margin of 10 %
    assert look_ups.max() <= 122 * 1.1
    # one insertion test, one overlap per keyframe for rule 1 and the
    # ordered pairs of inner keyframes for rule 2: 363 with 20 keyframes,
    # on the scans that insert (mean 128.1 overlaps per scan)
    k = odometry.MAX_KEYFRAMES
    assert overlaps.max() <= 1 + k + (k - 1) * (k - 2)


def test_two_laps_keyframes_span_space(two_laps):
    # a set that is not just the last scans: from the first removal by
    # score on, 72 of the 205 scans (35.1 %) insert a keyframe, and after
    # every one of them the set, its oldest keyframe aside, covers at least
    # 5.6 s of the path (the last 20 scans are about 2 s)
    _, est, results, _, _ = two_laps
    events = est.keyframe_events
    first = next(e["frame_index"] for e in events if e["removed_by_score"])
    inserted = [e["inserted"] for e in events[first:]]
    assert sum(inserted) <= 0.36 * len(inserted)
    # the set after each scan, replayed from the events
    stamps = [r.state.stamp for r in results]
    kept, spans = [], []
    for e in events:
        if e["inserted"]:
            kept = [k for k in kept if k not in e["dropped_low_overlap"]]
            kept.append(e["frame_index"])
        if e["removed_by_score"]:
            kept.remove(e["removed_by_score"]["removed"])
        if e["frame_index"] >= first:
            spans.append(stamps[kept[-1]] - stamps[kept[1]])
    assert kept == [kf.index for kf in est.keyframes]
    assert min(spans) > 3.0
