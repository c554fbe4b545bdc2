import math
import re

import numpy as np
import pytest

from limapper import synthetic
from limapper.errors import GenerationError
from limapper.geometry import SensorState
from limapper.imu import GRAVITY, preintegrate, predict_state
from limapper.synthetic import (
    LinePath,
    Path,
    PathTrajectory,
    SCAN_DURATION,
    SCAN_RATE,
    SceneSpec,
    SquareLoopPath,
    Trajectory,
    box_room,
    cast_rays,
    generate_synthetic_scene,
    square_loop_scene,
    two_room_world,
)

from test_geometry import identity_pose, rotation_angle
from test_imu import MAX_GAP, NOISE


class StationaryTrajectory(Trajectory):
    """At rest at the identity pose."""

    def pose(self, t):
        return identity_pose()

    def accel(self, t):
        return np.zeros(3)

    def omega_body(self, t):
        return np.zeros(3)


def velocity(traj: PathTrajectory, t: float) -> np.ndarray:
    """World velocity of a path trajectory at time t: its speed along the
    path's heading."""
    s, v, _ = traj._profile(t)
    _, yaw, _ = traj.path.eval(s)
    return v * np.array([math.cos(yaw), math.sin(yaw), 0.0])


class CirclePath(Path):
    """Counterclockwise circle starting at the origin heading +x."""

    def __init__(self, radius: float, laps: float = 1.0, height: float = 0.0):
        self.radius = float(radius)
        self.center = np.array([0.0, radius, height])
        self.length = float(2 * math.pi * radius * laps)

    def eval(self, s):
        theta = -math.pi / 2 + s / self.radius
        pos = self.center + self.radius * np.array(
            [math.cos(theta), math.sin(theta), 0.0])
        return pos, theta + math.pi / 2, 1.0 / self.radius


class TestRayCasting:
    def test_axis_hits(self):
        world = box_room(center=(0, 0, 0), size=(4.0, 4.0, 4.0))
        origins = np.zeros((3, 3))
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]])
        pts, hit = cast_rays(world, origins, dirs, 10.0)
        assert hit.all()
        assert np.allclose(pts[0], [2.0, 0, 0])
        assert np.allclose(pts[1], [0, 2.0, 0])
        assert np.allclose(pts[2], [0, 0, -2.0])

    def test_range_limits(self):
        world = box_room(size=(40.0, 40.0, 40.0))
        origins = np.zeros((1, 3))
        dirs = np.array([[1.0, 0.0, 0.0]])
        _, hit = cast_rays(world, origins, dirs, 5.0)
        assert not hit.any()

    def test_two_room_gap_has_no_geometry(self):
        world = two_room_world(gap=22.0)
        origins = np.tile([[19.0, 0.0, 0.0]], (8, 1))
        angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(8)])
        _, hit = cast_rays(world, origins, dirs, 6.0)
        assert not hit.any()


class TestTrajectories:
    def test_square_loop_closes(self):
        path = SquareLoopPath(5.0, 1.5)
        p0, yaw0, _ = path.eval(0.0)
        p1, yaw1, _ = path.eval(path.length)
        assert np.allclose(p0, p1, atol=1e-9)
        assert abs(math.sin(yaw0 - yaw1)) < 1e-9

    def test_square_loop_position_continuity(self):
        path = SquareLoopPath(5.0, 1.5)
        ss = np.linspace(0, path.length, 2000)
        pts = np.array([path.eval(s)[0] for s in ss])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        ds = path.length / 1999
        assert np.max(steps) < 1.5 * ds

    def test_profile_smooth_ramp(self):
        traj = PathTrajectory(LinePath([0, 0, 0], [1, 0, 0], 100.0), 2.0,
                              settle=1.0, ramp_time=0.5)
        assert np.allclose(velocity(traj, 0.5), 0.0)
        assert np.allclose(velocity(traj, 10.0), [2.0, 0.0, 0.0])
        # ramp midpoint speed = half of cruise for the smoothstep profile
        assert np.linalg.norm(velocity(traj, 1.25)) == pytest.approx(1.0)

    def test_circle_centripetal_acceleration(self):
        r, v = 3.0, 1.5
        traj = PathTrajectory(CirclePath(r, laps=2.0), v, settle=0.0, ramp_time=1e-6)
        for t in [2.0, 5.0, 9.0]:
            a = traj.accel(t)
            assert np.linalg.norm(a) == pytest.approx(v * v / r, rel=1e-6)
            assert traj.omega_body(t)[2] == pytest.approx(v / r)

    def test_velocity_is_position_derivative(self):
        traj = PathTrajectory(SquareLoopPath(5.0, 1.5), 2.0, settle=0.5, ramp_time=0.8)
        h = 1e-6
        for t in [0.2, 1.0, 3.0, 7.7, 12.3]:
            fd = (traj.pose(t + h).translation - traj.pose(t - h).translation) / (2 * h)
            assert np.allclose(fd, velocity(traj, t), atol=1e-6)

    def test_accel_is_velocity_derivative_away_from_joints(self):
        traj = PathTrajectory(CirclePath(4.0), 2.0, settle=0.5, ramp_time=0.8)
        h = 1e-6
        for t in [0.9, 2.0, 6.0]:
            fd = (velocity(traj, t + h) - velocity(traj, t - h)) / (2 * h)
            assert np.allclose(fd, traj.accel(t), atol=1e-5)


class TestSceneGeneration:
    def test_stationary_scans_identical_and_imu_exact(self):
        spec = SceneSpec(world=box_room(size=(6.0, 5.0, 3.0)),
                         trajectory=StationaryTrajectory(), duration=1.0)
        scene = generate_synthetic_scene(spec)
        assert len(scene.scans) >= 9
        first = scene.scans[0]
        for scan in scene.scans[1:]:
            assert np.array_equal(scan.points, first.points)
        for s in scene.imu:
            assert np.allclose(s.accel, -GRAVITY)
            assert np.allclose(s.gyro, 0.0)

    def test_circle_imu_centripetal(self):
        r, v = 3.0, 1.5
        spec = SceneSpec(world=box_room(size=(20.0, 20.0, 4.0)),
                         trajectory=PathTrajectory(CirclePath(r), v,
                                                   settle=0.0, ramp_time=1e-6),
                         duration=5.0)
        scene = generate_synthetic_scene(spec)
        mid = [s for s in scene.imu if 1.0 < s.stamp < 4.0]
        for s in mid[::17]:
            horizontal = s.accel + GRAVITY - (-GRAVITY)  # specific force minus reaction
            # specific force = R^T(a - g); at yaw-only attitude the z part is
            # the gravity reaction and the planar part the centripetal pull
            planar = np.linalg.norm(s.accel[:2])
            assert planar == pytest.approx(v * v / r, rel=1e-9)
            assert s.accel[2] == pytest.approx(9.80665, rel=1e-12)

    def test_noiseless_preintegration_consistency(self, monkeypatch):
        # noiseless IMU driven through the preintegration pipeline must
        # reproduce the analytic trajectory
        monkeypatch.setattr(synthetic, "IMU_RATE", 1000.0)
        scene = generate_synthetic_scene(SceneSpec(
            world=box_room(size=(30.0, 30.0, 5.0)),
            trajectory=PathTrajectory(CirclePath(3.0), 1.5, settle=0.3, ramp_time=0.5),
            duration=4.0))
        assert len(scene.imu) == 4001
        traj = scene.spec.trajectory
        t0, t1 = 0.0, 3.5
        pre = preintegrate(scene.imu, t0, t1, np.zeros(6), NOISE, MAX_GAP)
        state0 = SensorState(pose=traj.pose(t0), velocity=velocity(traj, t0),
                             bias_accel=np.zeros(3), bias_gyro=np.zeros(3), stamp=t0)
        predicted = predict_state(state0, pre)
        expected = traj.pose(t1)
        assert np.linalg.norm(predicted.pose.translation - expected.translation) < 5e-3
        assert rotation_angle(predicted.pose.rotation, expected.rotation) < 2e-3

    def test_skewed_scan_differs_from_unskewed(self):
        # with per-ray poses, a moving sensor distorts the raw scan
        spec = SceneSpec(world=box_room(size=(12.0, 10.0, 3.0)),
                         trajectory=PathTrajectory(CirclePath(2.0), 2.0,
                                                   settle=0.0, ramp_time=1e-6),
                         duration=1.0)
        scene = generate_synthetic_scene(spec)
        scan = scene.scans[5]
        assert scan.stamps.max() > scan.stamps.min()

    def test_trajectory_leaving_world_raises(self):
        # the message names the first ray stamp whose pose leaves the hull,
        # here one inside a scan
        spec = SceneSpec(world=box_room(size=(4.0, 4.0, 3.0)),
                         trajectory=PathTrajectory(
                             LinePath([0, 0, 0], [1, 0, 0], 100.0), 5.0,
                             settle=0.0, ramp_time=0.1),
                         duration=5.0)
        world = spec.world
        ray_stamps = (k / SCAN_RATE + a / spec.n_azimuth * SCAN_DURATION
                      for k in range(int(spec.duration * SCAN_RATE))
                      for a in range(spec.n_azimuth))
        first = next(t for t in ray_stamps
                     if np.any(spec.trajectory.pose(t).translation < world.hull_min)
                     or np.any(spec.trajectory.pose(t).translation > world.hull_max))
        assert first % (1.0 / SCAN_RATE) > 1e-3
        with pytest.raises(GenerationError, match=re.escape(f"leaves the world at t={first:.3f}: ")):
            generate_synthetic_scene(spec)

    def test_seed_determinism(self):
        spec = square_loop_scene(speed=3.0, ramp_time=0.5, n_frames=20,
                                 accel_noise_density=0.02, gyro_noise_density=0.002,
                                 range_noise=0.005, seed=7)
        a = generate_synthetic_scene(spec)
        spec2 = square_loop_scene(speed=3.0, ramp_time=0.5, n_frames=20,
                                  accel_noise_density=0.02, gyro_noise_density=0.002,
                                  range_noise=0.005, seed=7)
        b = generate_synthetic_scene(spec2)
        assert np.array_equal(a.scans[3].points, b.scans[3].points)
        assert np.array_equal(a.imu[100].accel, b.imu[100].accel)

    def test_square_loop_scene_dimensions(self):
        spec = square_loop_scene(speed=3.0, ramp_time=0.5, perimeter=40.0, n_frames=50)
        path = spec.trajectory.path
        assert path.length == pytest.approx(40.0)
        scene = generate_synthetic_scene(spec)
        assert len(scene.scans) >= 50
        assert len(scene.ground_truth) == len(scene.scans)
