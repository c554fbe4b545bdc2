"""Seeded synthetic workloads of the odometry benchmark.

Each workload is a scene from ``limapper.synthetic`` plus the order in which
its scans and IMU samples reach ``OdometryEstimator.process_frame``.  Speeds
are set explicitly: ``square_loop_scene`` would otherwise derive the speed
from the frame count and make short scenes extreme.

An end-to-end run replays several scenes of one workload, each drawn with its
own seed from the run's seed, so that one run's figures do not rest on a
single noise draw.  Only ``loop`` draws noise, so only its inputs change with
the seed; ``dense`` and ``gap`` are noiseless and the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from limapper.config import PipelineConfig
from limapper.synthetic import (
    LinePath,
    PathTrajectory,
    SceneSpec,
    square_loop_scene,
    two_room_world,
)

# constant sensor biases of the loop scene
LOOP_ACCEL_BIAS = (0.05, -0.03, 0.02)  # m/s^2
LOOP_GYRO_BIAS = (0.002, -0.001, 0.003)  # rad/s
# the loop paths stand still only for the bootstrap scan and its IMU window
# (0.1 s + init_window), then reach full speed within 0.5 s, so that most
# scans of a short scene are moving ones
SETTLE_S = 0.6
RAMP_S = 0.5


def loop_spec(seed: int, n_frames: int) -> SceneSpec:
    imu = PipelineConfig().imu
    return square_loop_scene(
        perimeter=40.0, speed=3.0, n_frames=n_frames, seed=seed,
        settle=SETTLE_S, ramp_time=RAMP_S,
        accel_noise_density=imu.accel_noise_density,
        gyro_noise_density=imu.gyro_noise_density, range_noise=0.01,
        accel_bias=np.array(LOOP_ACCEL_BIAS), gyro_bias=np.array(LOOP_GYRO_BIAS))


def dense_spec(seed: int, n_frames: int) -> SceneSpec:
    return square_loop_scene(perimeter=40.0, speed=3.0, n_frames=n_frames,
                             seed=seed, settle=SETTLE_S, ramp_time=RAMP_S,
                             n_azimuth=512, n_elevation=32)


def gap_spec(seed: int, n_frames: int) -> SceneSpec:
    # from the middle of the first room, through the 22 m gap, into the second
    path = LinePath((4.0, 0.0, 0.0), (1.0, 0.0, 0.0), 30.0)
    return SceneSpec(world=two_room_world(gap=22.0),
                     trajectory=PathTrajectory(path, 3.0, settle=1.0),
                     duration=n_frames / 10.0 + 0.2, max_range=8.0, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int, int], SceneSpec]  # (seed, n_frames) -> scene spec
    n_frames: int  # scene length of one replay
    replay_s: float  # s one replay takes on the reference host (speed.py)
    ate_limit: float  # m; a larger ATE means the estimator diverged

    def replays(self, seconds: float) -> int:
        """Scenes per end-to-end run: as many replays as fill `seconds`."""
        return max(1, round(seconds / self.replay_s))

    def seeds(self, seed: int, count: int) -> list[int]:
        """Seeds of the `count` scenes of one run with seed `seed`."""
        return [int(s.generate_state(1)[0])
                for s in np.random.SeedSequence(seed).spawn(count)]


WORKLOADS = {w.name: w for w in (
    # realistic and solver-bound: about 1000 small calls per scan, and the
    # bias makes bias recovery measurable
    Workload("loop", loop_spec, 20, 8.5, 0.05),
    # the same factor graph with about 6x the points per call: per-point
    # kernels and preprocessing show here, call-count changes barely do
    Workload("dense", dense_spec, 16, 18.5, 0.05),
    # empty scans for about 2 s: matching starves, keyframes churn and the
    # IMU alone carries the state, so accuracy trade-offs show here
    Workload("gap", gap_spec, 115, 45.0, 15.0),
)}


def imu_batches(scene, init_window: float) -> list[list]:
    """IMU samples handed over with each scan, in stamp order.

    Each batch runs up to its scan's end; the first one also covers the
    stationary window the bootstrap needs.
    """
    batches, j, imu = [], 0, scene.imu
    for k, scan in enumerate(scene.scans):
        horizon = scan.scan_end + (init_window if k == 0 else 0.0)
        start = j
        while j < len(imu) and imu[j].stamp <= horizon:
            j += 1
        batches.append(imu[start:j])
    return batches
