"""Scan preprocessing: voxel downsampling, exact kNN, per-point covariances,
and IMU-predicted deskewing.

A scan becomes a Frame in four steps: downsample with per-voxel timestamp
averaging, find neighbors (before deskewing, reused afterwards), deskew by
integrating the IMU across the scan, then estimate plane-regularized point
covariances from the precomputed neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import FrameTooSparse, ImuCoverageGap
from .geometry import SensorState, Se3Pose, pose_inverse
from .imu import GRAVITY, ImuSample, integration_nodes, propagate_state, samples_to_arrays

# voxel indices are packed into a single int64, 21 bits per axis
_KEY_OFFSET = 1 << 20


@dataclass(frozen=True)
class RawScan:
    """Points with absolute per-point stamps plus the scan time span."""

    points: np.ndarray  # (n, 3) positions, sensor frame [m]
    stamps: np.ndarray  # (n,) absolute capture times [s]
    scan_start: float
    scan_end: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "stamps", np.asarray(self.stamps, dtype=float).reshape(-1))

    @property
    def duration(self) -> float:
        return self.scan_end - self.scan_start

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Frame:
    """Downsampled point cloud with optional neighbors and covariances."""

    points: np.ndarray  # (n, 3)
    stamps: np.ndarray  # (n,)
    stamp: float  # reference time (scan start)
    scan_end: float = 0.0
    neighbors: np.ndarray | None = None  # (n, k) indices, self included
    covs: np.ndarray | None = None  # (n, 3, 3) regularized
    degenerate: np.ndarray | None = None  # (n,) flat-neighborhood flags
    deskewed: bool = False

    def __len__(self) -> int:
        return self.points.shape[0]


def frame_from_scan(scan: RawScan) -> Frame:
    return Frame(points=scan.points, stamps=scan.stamps,
                 stamp=scan.scan_start, scan_end=scan.scan_end)


def pack_voxel_keys(points: np.ndarray, resolution: float) -> np.ndarray:
    idx = np.floor(points / resolution).astype(np.int64) + _KEY_OFFSET
    return (idx[:, 0] << 42) | (idx[:, 1] << 21) | idx[:, 2]


def voxel_downsample(scan: RawScan, resolution: float) -> RawScan:
    """Average positions and timestamps per voxel, splitting on stamp spread.

    A point whose stamp differs from its cell's running-mean stamp by more
    than a tenth of the scan duration is diverted to a single overflow cell
    for the same spatial key, so the first and last points of a spinning
    scan are never fused.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    n = len(scan)
    if n == 0:
        return scan
    split_tol = scan.duration / 10.0
    keys = pack_voxel_keys(scan.points, resolution)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    groups = np.split(order, boundaries)

    out_pos = []
    out_stamp = []
    for grp in groups:
        ts = scan.stamps[grp]
        if ts.max() - ts.min() <= split_tol:
            out_pos.append(scan.points[grp].mean(axis=0))
            out_stamp.append(ts.mean())
            continue
        # running-mean assignment in scan order: primary cell plus overflow
        cells = [[], []]
        sums = [0.0, 0.0]
        for i in grp:
            t = scan.stamps[i]
            if not cells[0]:
                target = 0
            elif abs(t - sums[0] / len(cells[0])) <= split_tol:
                target = 0
            else:
                target = 1
            cells[target].append(i)
            sums[target] += t
        for cell in cells:
            if cell:
                out_pos.append(scan.points[cell].mean(axis=0))
                out_stamp.append(scan.stamps[cell].mean())
    return RawScan(np.array(out_pos), np.array(out_stamp),
                   scan.scan_start, scan.scan_end)


def knn_search(frame: Frame, k: int) -> np.ndarray:
    """Exact k-nearest-neighbor indices per point, self included.

    Equal distances are broken toward the lower index so the result matches
    a brute-force stable sort bit for bit.
    """
    n = len(frame)
    if n < k:
        raise FrameTooSparse(f"frame has {n} points, need at least {k}")
    tree = cKDTree(frame.points)
    _, idx = tree.query(frame.points, k=k)
    idx = idx.reshape(n, k)
    # recompute distances with plain vectorized arithmetic, then order by
    # (distance, index) for a deterministic tie-break
    diff = frame.points[idx] - frame.points[:, None, :]
    d2 = np.einsum("nkd,nkd->nk", diff, diff)
    order = np.lexsort((idx, d2), axis=1)
    return np.take_along_axis(idx, order, axis=1)


def estimate_covariances(frame: Frame, plane_eps: float = 1e-3) -> Frame:
    """Plane-regularized covariance per point from its neighbor positions.

    Each sample covariance is eigen-decomposed and the eigenvalues replaced
    by (1, 1, plane_eps), keeping the eigenvectors; fully degenerate
    neighborhoods fall back to plane_eps * I and are flagged.
    """
    if frame.neighbors is None:
        raise ValueError("neighbors must be computed before covariances")
    n = len(frame)
    if n == 0:
        return replace(frame, covs=np.zeros((0, 3, 3)), degenerate=np.zeros(0, dtype=bool))
    nbr = frame.points[frame.neighbors]  # (n, k, 3)
    mean = nbr.mean(axis=1, keepdims=True)
    centered = nbr - mean
    cov = np.einsum("nki,nkj->nij", centered, centered) / nbr.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    degenerate = evals[:, 2] < 1e-12
    target = np.array([plane_eps, 1.0, 1.0])
    covs = np.einsum("nij,j,nkj->nik", evecs, target, evecs)
    if np.any(degenerate):
        covs[degenerate] = np.eye(3) * plane_eps
    return replace(frame, covs=covs, degenerate=degenerate)


def _slerp_batch(qa: np.ndarray, qb: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Vectorized shortest-arc quaternion slerp; rows are xyzw."""
    dot = np.einsum("nj,nj->n", qa, qb)
    qb = np.where(dot[:, None] < 0.0, -qb, qb)
    dot = np.abs(dot)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    st = np.sin(theta)
    near = dot > 1.0 - 1e-12
    w0 = np.where(near, 1.0 - alpha, np.sin((1.0 - alpha) * theta) / np.where(st == 0, 1.0, st))
    w1 = np.where(near, alpha, np.sin(alpha * theta) / np.where(st == 0, 1.0, st))
    out = w0[:, None] * qa + w1[:, None] * qb
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def deskew(frame: Frame, imu_samples, state_at_scan_start: SensorState,
           gravity=GRAVITY, max_gap: float = 0.02) -> Frame:
    """Undistort a frame by IMU motion prediction across the scan.

    The state is integrated from the scan start through every IMU stamp in
    the scan span; each point is transformed by the pose interpolated at its
    capture time and re-expressed in the reference (scan start) frame.
    """
    if frame.deskewed:
        raise ValueError("frame is already deskewed")
    if len(frame) == 0:
        return replace(frame, deskewed=True)
    t0 = frame.stamp
    t1 = max(float(frame.stamps.max()), frame.scan_end)
    if t1 <= t0:
        return replace(frame, deskewed=True)

    arrays = (imu_samples if isinstance(imu_samples, tuple)
              else samples_to_arrays(imu_samples))
    node_t, node_a, node_g = integration_nodes(arrays, t0, t1, max_gap)

    # integrate the trajectory across the scan, keeping poses relative to
    # the reference stamp
    ref_inv = pose_inverse(state_at_scan_start.pose)
    state = state_at_scan_start
    quats = np.empty((node_t.size, 4))
    trans = np.empty((node_t.size, 3))
    quats[0] = np.array([0.0, 0.0, 0.0, 1.0])
    trans[0] = 0.0
    for k in range(node_t.size - 1):
        dt = float(node_t[k + 1] - node_t[k])
        state = propagate_state(state, ImuSample(node_t[k], node_a[k], node_g[k]),
                                dt, gravity)
        rel_r = ref_inv.rotation * state.pose.rotation
        quats[k + 1] = rel_r.quat
        trans[k + 1] = ref_inv.rotation.apply(
            state.pose.translation) + ref_inv.translation

    seg = np.clip(np.searchsorted(node_t, frame.stamps, side="right") - 1,
                  0, node_t.size - 2)
    span = node_t[seg + 1] - node_t[seg]
    alpha = np.where(span > 0, (frame.stamps - node_t[seg]) / np.where(span == 0, 1, span), 0.0)
    alpha = np.clip(alpha, 0.0, 1.0)
    q = _slerp_batch(quats[seg], quats[seg + 1], alpha)
    t = (1.0 - alpha)[:, None] * trans[seg] + alpha[:, None] * trans[seg + 1]

    # rotate each point by its own quaternion: p' = p + 2 w (u x p) + 2 u x (u x p)
    u = q[:, :3]
    w = q[:, 3:4]
    c1 = 2.0 * np.cross(u, frame.points)
    pts = frame.points + w * c1 + np.cross(u, c1) + t
    return replace(frame, points=pts, deskewed=True)
