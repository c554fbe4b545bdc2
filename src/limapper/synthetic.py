"""Synthetic scenes: analytic trajectories through plane worlds, with scans
ray-cast from the instantaneous pose at every ray stamp and IMU streams from
the exact trajectory derivatives.

Because each ray is cast from the pose at its own stamp, the generated scans
carry true motion distortion and deskewing against the ground truth is a
nontrivial check.  Everything is deterministic under the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .dataset_io import record_from_pose
from .geometry import Se3Pose, so3_exp
from .imu import GRAVITY, ImuSample
from .preprocess import RawScan

# -- world --------------------------------------------------------------------


@dataclass(frozen=True)
class AxisRect:
    """Axis-aligned rectangle: fixed coordinate on one axis, bounded on the
    other two (in ascending axis order)."""

    axis: int
    value: float
    lo: tuple[float, float]
    hi: tuple[float, float]


@dataclass(frozen=True)
class World:
    rects: tuple
    # corners of the box the trajectory must stay inside
    hull_min: np.ndarray
    hull_max: np.ndarray


def box_room(center=(0.0, 0.0, 0.0), size=(10.0, 8.0, 3.0)) -> World:
    """Closed rectangular room; the sensor flies inside."""
    c = np.asarray(center, float)
    s = np.asarray(size, float) / 2.0
    lo = c - s
    hi = c + s
    rects = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        bounds_lo = (lo[others[0]], lo[others[1]])
        bounds_hi = (hi[others[0]], hi[others[1]])
        rects.append(AxisRect(axis, lo[axis], bounds_lo, bounds_hi))
        rects.append(AxisRect(axis, hi[axis], bounds_lo, bounds_hi))
    return World(tuple(rects), lo, hi)


ROOM_SIZE = (8.0, 6.0, 3.0)  # m along x, y and z of each room of two_room_world


def two_room_world(gap: float = 22.0) -> World:
    """Two closed rooms of ROOM_SIZE, gap m apart along x.

    Open faces toward the gap let the trajectory pass through; in the middle
    of the gap nothing lies within typical sensor range, which starves the
    registration of geometry there.
    """
    sx, sy, sz = ROOM_SIZE
    rects = []

    def room(x0):
        lo = np.array([x0, -sy / 2, -sz / 2])
        hi = np.array([x0 + sx, sy / 2, sz / 2])
        out = [
            AxisRect(2, lo[2], (lo[0], lo[1]), (hi[0], hi[1])),
            AxisRect(2, hi[2], (lo[0], lo[1]), (hi[0], hi[1])),
            AxisRect(1, lo[1], (lo[0], lo[2]), (hi[0], hi[2])),
            AxisRect(1, hi[1], (lo[0], lo[2]), (hi[0], hi[2])),
        ]
        # end walls only on the outer faces
        if x0 == 0.0:
            out.append(AxisRect(0, lo[0], (lo[1], lo[2]), (hi[1], hi[2])))
        else:
            out.append(AxisRect(0, hi[0], (lo[1], lo[2]), (hi[1], hi[2])))
        return out

    rects += room(0.0)
    rects += room(sx + gap)
    hull_min = np.array([-0.5, -sy / 2, -sz / 2])
    hull_max = np.array([2 * sx + gap + 0.5, sy / 2, sz / 2])
    return World(tuple(rects), hull_min, hull_max)


def cast_rays(world: World, origins: np.ndarray, dirs: np.ndarray, max_range: float):
    """Nearest hit per ray against every rectangle, from MIN_RANGE to
    max_range, and the mask of the rays that hit; a miss's row is its origin."""
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    for rect in world.rects:
        d_axis = dirs[:, rect.axis]
        safe = np.abs(d_axis) > 1e-12
        t = np.where(safe, (rect.value - origins[:, rect.axis])
                     / np.where(safe, d_axis, 1.0), np.inf)
        others = [a for a in range(3) if a != rect.axis]
        finite = np.isfinite(t)
        tt = np.where(finite, t, 0.0)
        p0 = origins[:, others[0]] + tt * dirs[:, others[0]]
        p1 = origins[:, others[1]] + tt * dirs[:, others[1]]
        ok = (finite & (t >= MIN_RANGE) & (t <= max_range)
              & (p0 >= rect.lo[0]) & (p0 <= rect.hi[0])
              & (p1 >= rect.lo[1]) & (p1 <= rect.hi[1]))
        best_t = np.where(ok & (t < best_t), t, best_t)
    hit = np.isfinite(best_t)
    points = origins + np.where(hit, best_t, 0.0)[:, None] * dirs
    return points, hit


# -- trajectories ---------------------------------------------------------------


class Trajectory:
    """Analytic trajectory: pose, world acceleration and body rates, which
    the scene generator samples."""

    def pose(self, t: float) -> Se3Pose:
        raise NotImplementedError

    def accel(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def omega_body(self, t: float) -> np.ndarray:
        raise NotImplementedError


class Path:
    """Arc-length parameterized planar path at a fixed height."""

    length: float

    def eval(self, s: float):
        """(position, yaw, curvature) at arc length s."""
        raise NotImplementedError


class LinePath(Path):
    def __init__(self, start, direction, length: float):
        self.start = np.asarray(start, float)
        d = np.asarray(direction, float)
        self.direction = d / np.linalg.norm(d)
        self.length = float(length)
        self.yaw = math.atan2(self.direction[1], self.direction[0])

    def eval(self, s):
        return self.start + s * self.direction, self.yaw, 0.0


class SquareLoopPath(Path):
    """Counterclockwise rounded square centered at the origin, at z = 0.

    half_side is the distance from the center to an edge; corners are
    quarter arcs of corner_radius.  The path starts at the left end of the
    bottom edge, heading +x.
    """

    def __init__(self, half_side: float, corner_radius: float):
        if corner_radius >= half_side:
            raise ValueError("corner radius must be below half_side")
        h, r = float(half_side), float(corner_radius)
        edge = 2 * (h - r)
        arc = math.pi * r / 2
        self.length = 4 * edge + 4 * arc
        self._segments = []
        # (kind, seg_length, data); straights carry (start2d, dir2d, yaw),
        # arcs carry (center2d, start_angle)
        e = h - r
        corners = [(e, -e), (e, e), (-e, e), (-e, -e)]
        starts = [(-e, -h), (h, -e), (e, h), (-h, e)]
        dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        angles = [-math.pi / 2, 0.0, math.pi / 2, math.pi]
        for k in range(4):
            self._segments.append(
                ("straight", edge, (np.array(starts[k], float),
                                    np.array(dirs[k], float),
                                    math.atan2(dirs[k][1], dirs[k][0]))))
            self._segments.append(("arc", arc, (np.array(corners[k], float), angles[k])))
        self.corner_radius = r

    def eval(self, s):
        s = s % self.length
        for kind, seg_len, data in self._segments:
            if s <= seg_len:
                if kind == "straight":
                    start, d, yaw = data
                    p = start + s * d
                    return np.array([p[0], p[1], 0.0]), yaw, 0.0
                center, a0 = data
                r = self.corner_radius
                theta = a0 + s / r
                p = center + r * np.array([math.cos(theta), math.sin(theta)])
                return (np.array([p[0], p[1], 0.0]),
                        theta + math.pi / 2, 1.0 / r)
            s -= seg_len
        # numerical wrap past the last segment
        start, d, yaw = self._segments[0][2]
        return np.array([start[0], start[1], 0.0]), yaw, 0.0


class PathTrajectory(Trajectory):
    """Constant-speed traversal of a path with a smooth spin-up.

    The speed profile is zero during the settle period, follows a smoothstep
    ramp of ramp_time, then holds cruise speed; acceleration stays bounded.
    """

    def __init__(self, path: Path, speed: float, settle: float = 0.0,
                 ramp_time: float = 0.5):
        self.path = path
        self.speed = float(speed)
        self.settle = float(settle)
        self.ramp_time = float(ramp_time)

    def _profile(self, t: float):
        """(arc length, speed, tangential acceleration) at time t."""
        if t <= self.settle:
            return 0.0, 0.0, 0.0
        tau = t - self.settle
        if tau < self.ramp_time:
            u = tau / self.ramp_time
            v = self.speed * (3 * u**2 - 2 * u**3)
            a = self.speed * (6 * u - 6 * u**2) / self.ramp_time
            s = self.speed * self.ramp_time * (u**3 - u**4 / 2)
            return s, v, a
        s_ramp = self.speed * self.ramp_time / 2
        return s_ramp + self.speed * (tau - self.ramp_time), self.speed, 0.0

    def pose(self, t):
        s, _, _ = self._profile(t)
        pos, yaw, _ = self.path.eval(s)
        return Se3Pose(so3_exp([0.0, 0.0, yaw]), pos)

    def accel(self, t):
        s, v, a = self._profile(t)
        _, yaw, kappa = self.path.eval(s)
        tangent = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        normal = np.array([-math.sin(yaw), math.cos(yaw), 0.0])
        return a * tangent + kappa * v**2 * normal

    def omega_body(self, t):
        s, v, _ = self._profile(t)
        _, _, kappa = self.path.eval(s)
        return np.array([0.0, 0.0, kappa * v])


# -- scene generation -------------------------------------------------------------


# the simulated IMU's samples per second
IMU_RATE = 200.0
# the simulated LiDAR: scans per second, the span of one scan in s, the
# lowest and highest ray elevation in rad, and the nearest range it reports
# in m
SCAN_RATE = 10.0
SCAN_DURATION = 0.095
ELEVATION_SPAN = (-0.45, 0.45)
MIN_RANGE = 0.3


@dataclass
class SceneSpec:
    """A scene's world, trajectory, seconds, rays, range, noise, biases and
    noise seed; its IMU samples at IMU_RATE against ``imu.GRAVITY``."""
    world: World
    trajectory: Trajectory
    duration: float
    n_azimuth: int = 64
    n_elevation: int = 12
    max_range: float = 20.0
    accel_noise_density: float = 0.0
    gyro_noise_density: float = 0.0
    range_noise: float = 0.0
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    seed: int = 0


@dataclass
class SyntheticScene:
    scans: list
    imu: list
    ground_truth: list
    spec: SceneSpec


def generate_synthetic_scene(spec: SceneSpec) -> SyntheticScene:
    rng = np.random.default_rng(spec.seed)
    traj = spec.trajectory

    # IMU stream from the analytic derivatives, plus bias and white noise
    imu = []
    n_imu = int(round(spec.duration * IMU_RATE)) + 1
    sqrt_rate = math.sqrt(IMU_RATE)
    for k in range(n_imu):
        t = k / IMU_RATE
        rot = traj.pose(t).rotation
        accel = rot.inverse().apply(traj.accel(t) - GRAVITY) + spec.accel_bias
        gyro = traj.omega_body(t) + spec.gyro_bias
        if spec.accel_noise_density > 0:
            accel = accel + rng.normal(scale=spec.accel_noise_density * sqrt_rate, size=3)
        if spec.gyro_noise_density > 0:
            gyro = gyro + rng.normal(scale=spec.gyro_noise_density * sqrt_rate, size=3)
        imu.append(ImuSample(t, accel, gyro))

    # ray table shared by every scan
    az = np.linspace(0.0, 2 * math.pi, spec.n_azimuth, endpoint=False)
    el = np.linspace(ELEVATION_SPAN[0], ELEVATION_SPAN[1], spec.n_elevation)
    az_grid, el_grid = np.meshgrid(az, el, indexing="ij")
    dirs_body = np.column_stack([
        (np.cos(el_grid) * np.cos(az_grid)).ravel(),
        (np.cos(el_grid) * np.sin(az_grid)).ravel(),
        np.sin(el_grid).ravel(),
    ])

    scans = []
    ground_truth = []
    n_scans = int(spec.duration * SCAN_RATE)
    for k in range(n_scans):
        t_start = k / SCAN_RATE
        if t_start + SCAN_DURATION > spec.duration:
            break
        uniq = t_start + (np.arange(spec.n_azimuth) / spec.n_azimuth) * SCAN_DURATION
        poses = [traj.pose(float(t_ray)) for t_ray in uniq]
        centres = np.array([pose.translation for pose in poses])
        outside = np.any((centres < spec.world.hull_min)
                         | (centres > spec.world.hull_max), axis=1)
        if np.any(outside):
            a = int(np.argmax(outside))
            raise GenerationError(
                f"trajectory leaves the world at t={uniq[a]:.3f}: {centres[a]}")
        origins = np.repeat(centres, spec.n_elevation, axis=0)
        dirs = np.empty_like(origins)
        for a, pose in enumerate(poses):
            sl = slice(a * spec.n_elevation, (a + 1) * spec.n_elevation)
            dirs[sl] = dirs_body[sl] @ pose.rotation.matrix().T
        points_w, hit = cast_rays(spec.world, origins, dirs, spec.max_range)
        if spec.range_noise > 0:
            ranges = np.linalg.norm(points_w - origins, axis=1)
            noisy = ranges + rng.normal(scale=spec.range_noise, size=len(ranges))
            points_w = origins + (points_w - origins) * (
                noisy / np.where(ranges == 0, 1.0, ranges))[:, None]
        # express each hit in the sensor frame at its own capture time
        pts = []
        ts = []
        for a, (t_ray, pose) in enumerate(zip(uniq, poses)):
            sl = slice(a * spec.n_elevation, (a + 1) * spec.n_elevation)
            sel = hit[sl]
            if not np.any(sel):
                continue
            local = (points_w[sl][sel] - pose.translation) @ pose.rotation.matrix()
            pts.append(local)
            ts.append(np.full(int(sel.sum()), t_ray))
        if pts:
            points = np.concatenate(pts)
            stamps_out = np.concatenate(ts)
        else:
            points = np.zeros((0, 3))
            stamps_out = np.zeros(0)
        scans.append(RawScan(points, stamps_out, t_start,
                             t_start + SCAN_DURATION))
        ground_truth.append(record_from_pose(t_start, poses[0]))
    return SyntheticScene(scans, imu, ground_truth, spec)


# m between the square loop's path and each wall of its room
ROOM_MARGIN = 3.0


def square_loop_scene(speed: float, ramp_time: float, perimeter: float = 40.0,
                      n_frames: int = 200, settle: float = 1.0, seed: int = 0,
                      **spec_kwargs) -> SceneSpec:
    """Square-loop trajectory at the given cruise speed, reached over
    ramp_time after settle, inside a box room sized to fit it."""
    corner_radius = 1.5
    # perimeter = 8 (h - r) + 2 pi r  =>  h
    h = (perimeter - 2 * math.pi * corner_radius) / 8.0 + corner_radius
    path = SquareLoopPath(h, corner_radius)
    traj = PathTrajectory(path, speed, settle=settle, ramp_time=ramp_time)
    side = 2 * h + 2 * ROOM_MARGIN
    world = box_room(center=(0.11, 0.13, 0.53), size=(side, side, 4.0))
    return SceneSpec(world=world, trajectory=traj,
                     duration=n_frames / SCAN_RATE + 0.2, seed=seed, **spec_kwargs)
