"""The output replay and the timing of the A/B check (``tools/ab.py``)."""

import sys
from pathlib import Path

import numpy as np

from limapper.config import PipelineConfig
from limapper.synthetic import generate_synthetic_scene
from workloads import imu_batches, loop_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab  # noqa: E402


def test_replay_digest_repeats_and_tells_seeds_apart():
    one, two = (generate_synthetic_scene(loop_spec(seed, 4)) for seed in (1, 2))
    assert len(one.scans) == len(two.scans) == 6
    first, scans, error = ab.replay_outputs(one)
    assert ab.replay_outputs(one) == (first, scans, error)
    assert len(scans) == 6 and 0.0 < error < 0.01
    other, other_scans, _ = ab.replay_outputs(two)
    assert other != first and ab.first_difference(other_scans, scans) == 0
    assert ab.scene_digest(two) != ab.scene_digest(one)


def test_a_difference_names_its_first_scan_and_both_ates():
    base = {"scans": ["a", "b", "c", "d"], "ate_m": 0.0042}
    this = {"scans": ["a", "b", "x", "y"], "ate_m": 0.00425}
    assert ab.first_difference(base["scans"], base["scans"]) is None
    assert ab.first_difference(this["scans"], base["scans"]) == 2
    assert ab.first_difference(base["scans"][:3], base["scans"]) == 3
    assert ab.difference_note(this, base) == (
        "first differing scan 2, ATE 4.2500 mm (base 4.2000 mm)")
    assert ab.difference_note({**this, "ate_m": None}, base).endswith(
        "ATE none (base 4.2000 mm)")


def test_timing_a_tree_against_itself():
    # two imports of this tree's package under their own names, fed the same
    # 6-scan scene scan by scan: the outputs agree at every scan, or
    # time_scenes raises; no bound on the ratio, which is the host's
    src = ab.ROOT / "src"
    first, second = (ab.load_limapper(src, f"limapper_ab_{side}") for side in "ab")
    assert first.__name__ != second.__name__
    scene = generate_synthetic_scene(loop_spec(1, 4))
    batches = imu_batches(scene, PipelineConfig().odometry.init_window)
    ratios = ab.time_scenes(first, second, [("loop-1", scene, batches, 1)], passes=2)
    assert [len(r) for r in ratios["loop-1"]] == [len(scene.scans) - 1] * 2 == [5, 5]
    median, low, high = ab.bootstrap_median(ratios["loop-1"])
    assert np.isfinite([median, low, high]).all() and low <= median <= high
    # the spread of the pass medians holds their median
    medians = ab.pass_medians(ratios["loop-1"])
    assert min(medians) <= median <= max(medians)
    assert "pass medians" in ab.summary(ratios["loop-1"])


def test_the_interval_covers_passes_that_a_drifting_host_shifts():
    # five made-up passes of one scatter, each shifted by a constant, as a
    # host whose speed changes from one pass to the next shifts its ratios
    scatter = np.random.default_rng(1).normal(1.0, 0.01, 200)
    per_pass = [scatter + shift for shift in (-0.004, -0.002, 0.0, 0.002, 0.004)]
    medians = ab.pass_medians(per_pass)
    _, low, high = ab.bootstrap_median(per_pass)
    assert low <= min(medians) and max(medians) <= high
    # resampling the pooled scans, as if each were drawn alone, misses them
    pooled = np.concatenate(per_pass)
    draws = np.random.default_rng(0).choice(pooled, (ab.BOOTSTRAP_RESAMPLES, pooled.size))
    scan_low, scan_high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    assert min(medians) < scan_low and scan_high < max(medians)


def test_the_steady_state_starts_at_the_first_removal_by_score():
    # frame indices count the committed scans, so scan 2, which raised,
    # has no frame, and frame 3 is scan 4
    removal = {"keyframe_ids": [0, 1, 3], "removed": 1}
    events = [{"frame_index": k, "removed_by_score": None} for k in range(3)]
    events += [{"frame_index": 3, "removed_by_score": removal},
               {"frame_index": 4, "removed_by_score": dict(removal, removed=3)}]
    committed = [0, 1, 3, 4, 5]
    assert ab.first_removal(events, committed) == 4
    assert ab.first_removal(events[:3], committed) is None
