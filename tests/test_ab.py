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
    first = ab.replay_digest(one)
    assert ab.replay_digest(one) == first
    assert ab.replay_digest(two) != first
    assert ab.scene_digest(two) != ab.scene_digest(one)


def test_timing_a_tree_against_itself():
    # two imports of this tree's package under their own names, fed the same
    # 6-scan scene scan by scan: the outputs agree at every scan, or
    # time_scenes raises; no bound on the ratio, which is the host's
    src = ab.ROOT / "src"
    first, second = (ab.load_limapper(src, f"limapper_ab_{side}") for side in "ab")
    assert first.__name__ != second.__name__
    scene = generate_synthetic_scene(loop_spec(1, 4))
    batches = imu_batches(scene, PipelineConfig().odometry.init_window)
    ratios = ab.time_scenes(first, second, [("loop-1", scene, batches)], passes=1)
    assert len(ratios["loop-1"]) == len(scene.scans) - 1 == 5
    median, low, high = ab.bootstrap_median(ratios["loop-1"])
    assert np.isfinite([median, low, high]).all() and low <= median <= high
