"""Test settings shared by the suite.

Hypothesis draws its examples from a fixed seed (``derandomize``), so every
run checks the same cases and a failure repeats, and it applies no
per-example deadline, because the speed of a shared host can drift by half
between runs.  ``max_examples`` bounds the time the property tests add.
With fixed examples an example database would add nothing, so none is kept.
The examples are fixed only for one set of loaded modules, though:
Hypothesis (6.155) also draws example literals from the local modules that
are loaded, so a test file run alone can draw other examples than it draws
in the whole suite.  CI therefore runs each tier-1 file alone too, and an
example that fails only there is pinned with ``@example``.

The benchmark's directory goes on the import path, so that the tests build
its scenes with its own helpers (``workloads``, ``run``) instead of copies.
``scene_scans`` holds two real scans, which the downsample and voxel-map
oracles share.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import settings

from limapper.synthetic import generate_synthetic_scene, square_loop_scene

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

settings.register_profile("limapper", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("limapper")


@pytest.fixture(scope="session")
def scene_scans():
    """One scan of the 64x12-ray noisy loop and one of the 512x32-ray loop."""
    noisy = generate_synthetic_scene(square_loop_scene(
        perimeter=40, speed=3.0, n_frames=3, seed=1, settle=0.1,
        ramp_time=0.1, range_noise=0.01))
    dense = generate_synthetic_scene(square_loop_scene(
        perimeter=40, speed=3.0, n_frames=3, seed=1, settle=0.1,
        ramp_time=0.1, n_azimuth=512, n_elevation=32))
    return {"loop": noisy.scans[2], "dense": dense.scans[2]}
