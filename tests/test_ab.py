"""The output replay of the A/B check (``tools/ab.py``)."""

import sys
from pathlib import Path

from limapper.synthetic import generate_synthetic_scene
from workloads import loop_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab  # noqa: E402


def test_replay_digest_repeats_and_tells_seeds_apart():
    one, two = (generate_synthetic_scene(loop_spec(seed, 4)) for seed in (1, 2))
    assert len(one.scans) == len(two.scans) == 6
    first = ab.replay_digest(one)
    assert ab.replay_digest(one) == first
    assert ab.replay_digest(two) != first
    assert ab.scene_digest(two) != ab.scene_digest(one)
