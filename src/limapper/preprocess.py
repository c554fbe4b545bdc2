"""Scan preprocessing: voxel downsampling, exact kNN, per-point covariances,
and IMU-predicted deskewing.

A scan becomes a Frame in four steps: downsample with per-voxel timestamp
averaging, find neighbors (before deskewing, reused afterwards), deskew by
integrating the IMU across the scan, then estimate plane-regularized point
covariances from the precomputed neighborhoods.

The two per-point kernels take a general algorithm only where it is needed:

- ``knn_search`` keeps the tree's order on rows whose distances are clearly
  distinct and re-sorts only rows with a near-tie, because the tree does not
  break equal distances by index.  The result is the same bit for bit as a
  re-sort of every row.
- ``estimate_covariances`` takes each plane normal in closed form, within
  about 3e-12 of ``np.linalg.eigh``, and hands neighborhoods without a
  well-defined normal (lines, duplicates, near-isotropic clusters; the rule
  is at ``_COV_EIGEN_GAP``) to eigh, whose result they get bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import FrameTooSparse, ImuCoverageGap, VoxelKeyOutOfRange
from .geometry import SensorState, Se3Pose, pose_inverse
from .imu import GRAVITY, ImuSample, integration_nodes, propagate_state, samples_to_arrays

# voxel indices are packed into a single int64, 21 bits per axis
_KEY_OFFSET = 1 << 20

# Relative step between consecutive kNN distances below which a row counts as
# tied.  The tree and the re-sort each form a squared distance from rounded
# coordinate differences, within about 4 ulp (1e-15) of the exact one, so
# steps above 1e-9 order both the same way: such a row needs no re-sort.
_KNN_TIE_REL = 1e-9

# Eigenvalue gap (lambda1 - lambda0) / lambda2 at or below which a point's
# covariance comes from eigh.  The closed-form normal is a column of
# adj(A - lambda0*I).  Rounding of order ulp(lambda2) in A - lambda0*I turns
# it by about ulp(lambda2) / (lambda1 - lambda0), as it turns eigh's, so the
# two covariances differ by about 3e-16 / gap: 3e-12 at this threshold
# (measured on noisy lines and elongated planes).  A ten times smaller
# threshold allows 3e-11; a ten times larger one sends 7 % of the rows of a
# dense scan, whose smallest gap is 2.4e-4, to eigh.  It must stay well above
# 1.4e-8, the largest gap the closed form reads on an exact line: near a
# double eigenvalue arccos amplifies rounding to about sqrt(ulp).
_COV_EIGEN_GAP = 1e-4


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
    """One int64 key per point from its voxel index, 21 bits per axis.

    Raises VoxelKeyOutOfRange for a non-finite point or an index outside
    [-2^20, 2^20) on any axis, where keys would alias.
    """
    cells = np.floor(points / resolution)
    # one test catches both: a NaN or infinite index fails the comparison
    inside = np.abs(cells + 0.5) < _KEY_OFFSET
    if not inside.all():
        raise VoxelKeyOutOfRange(
            f"point {points[~inside.all(axis=1)][0]} is not finite or has a "
            f"voxel index outside [-2^20, 2^20) at {resolution} m")
    idx = cells.astype(np.int64) + _KEY_OFFSET
    return (idx[:, 0] << 42) | (idx[:, 1] << 21) | idx[:, 2]


def group_by_key(keys: np.ndarray):
    """Stable grouping of equal keys: (order, starts, counts).

    Group g holds the rows ``order[starts[g]:starts[g] + counts[g]]``; groups
    come in ascending key order and each keeps its rows in index order.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    counts = np.diff(np.r_[starts, keys.shape[0]])
    return order, starts, counts


def segment_sums(values: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Sum of each run ``values[s:s + c]``, added in row order from zero.

    One vectorized pass per occupancy level adds the level-th row of every
    run that has one, so each sum is the one a sequential loop forms: equal
    bit for bit to ``np.add.at`` over the rows in index order, and to
    numpy's sum over axis 0 of a 2-D block.
    """
    by_size = np.argsort(-counts, kind="stable")
    first = starts[by_size]
    # runs with more than `level` rows form a prefix of `by_size`
    active = np.searchsorted(-counts[by_size], -np.arange(counts.max()),
                             side="left")
    sums = np.zeros((counts.shape[0],) + values.shape[1:])
    for level, n in enumerate(active):
        sums[:n] += values[first[:n] + level]
    out = np.empty_like(sums)
    out[by_size] = sums
    return out


def voxel_downsample(scan: RawScan, resolution: float) -> RawScan:
    """Average positions and timestamps per voxel, splitting on stamp spread.

    A point whose stamp differs from its cell's running-mean stamp by more
    than a tenth of the scan duration is diverted to a single overflow cell
    for the same spatial key, so the first and last points of a spinning
    scan are never fused.  Only voxels whose stamp spread exceeds that
    tolerance run the sequential assignment; their cells follow in key order.

    The output equals a per-voxel ``np.mean`` bit for bit.  That mean sums a
    voxel's positions over axis 0 in scan order, which ``segment_sums``
    repeats for all voxels at once.  A voxel's stamps are summed in the same
    order only below 8 points: from 8 addends on, numpy sums a 1-D array
    pairwise, so those voxels take a row sum of their stamps, which numpy forms
    pairwise too, as ``np.mean`` does.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if len(scan) == 0:
        return scan
    split_tol = scan.duration / 10.0
    order, starts, counts = group_by_key(pack_voxel_keys(scan.points, resolution))
    stamps = scan.stamps[order]
    sums = segment_sums(np.column_stack([scan.points[order], stamps]),
                        starts, counts)
    for c in np.unique(counts[counts >= 8]):
        # one (voxels, c) block per occupancy; numpy sums each contiguous
        # row pairwise, as it sums the voxel's 1-D slice
        g = np.flatnonzero(counts == c)
        sums[g, 3] = stamps[starts[g][:, None] + np.arange(c)].sum(axis=1)
    points = sums[:, :3] / counts[:, None]
    mean_stamps = sums[:, 3] / counts

    spread = np.maximum.reduceat(stamps, starts) - np.minimum.reduceat(stamps, starts)
    # a voxel splits unless its spread is within tolerance, so a NaN stamp
    # splits it.  Running-mean assignment in scan order: the primary cell
    # replaces the voxel's row, a non-empty overflow cell goes right after it
    overflow_at, overflow_points, overflow_stamps = [], [], []
    for g in np.flatnonzero(~(spread <= split_tol)):
        cells = [[], []]
        cell_sums = [0.0, 0.0]
        for i in order[starts[g]:starts[g] + counts[g]]:
            t = scan.stamps[i]
            if not cells[0] or abs(t - cell_sums[0] / len(cells[0])) <= split_tol:
                target = 0
            else:
                target = 1
            cells[target].append(i)
            cell_sums[target] += t
        points[g] = scan.points[cells[0]].mean(axis=0)
        mean_stamps[g] = scan.stamps[cells[0]].mean()
        if cells[1]:
            overflow_at.append(g + 1)
            overflow_points.append(scan.points[cells[1]].mean(axis=0))
            overflow_stamps.append(scan.stamps[cells[1]].mean())
    if overflow_at:
        points = np.insert(points, overflow_at, overflow_points, axis=0)
        mean_stamps = np.insert(mean_stamps, overflow_at, overflow_stamps)
    return RawScan(points, mean_stamps, scan.scan_start, scan.scan_end)


def knn_search(frame: Frame, k: int) -> np.ndarray:
    """Exact k-nearest-neighbor indices per point, self included.

    Rows come in (squared distance, index) order, so the result matches a
    brute-force stable sort bit for bit: equal distances are broken toward
    the lower index.  The tree returns each row sorted by its own distances;
    a row whose distances rise by more than ``_KNN_TIE_REL`` at every step is
    in that order already.  Only rows with a near-tie (duplicates, grid
    points, the self point beside a coincident one) have their squared
    distances recomputed and are re-sorted, because the tree does not order
    equal distances by index.
    """
    n = len(frame)
    if n < k:
        raise FrameTooSparse(f"frame has {n} points, need at least {k}")
    dist, idx = cKDTree(frame.points).query(frame.points, k=k)
    dist, idx = dist.reshape(n, k), idx.reshape(n, k)
    tied = np.flatnonzero(
        ~(dist[:, 1:] > dist[:, :-1] * (1.0 + _KNN_TIE_REL)).all(axis=1))
    if tied.size:
        # recompute distances with plain vectorized arithmetic, then order by
        # (distance, index) for a deterministic tie-break
        rows = idx[tied]
        diff = frame.points[rows] - frame.points[tied, None, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        order = np.lexsort((rows, d2), axis=1)
        idx[tied] = np.take_along_axis(rows, order, axis=1)
    return idx


def _eigh_covariances(points: np.ndarray, neighbors: np.ndarray,
                      plane_eps: float):
    """(covs, degenerate) by eigen-decomposing each sample covariance; the
    rows of ``estimate_covariances`` that have no well-defined normal."""
    nbr = points[neighbors]  # (n, k, 3)
    centered = nbr - nbr.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / nbr.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    degenerate = evals[:, 2] < 1e-12
    target = np.array([plane_eps, 1.0, 1.0])
    covs = np.einsum("nij,j,nkj->nik", evecs, target, evecs)
    covs[degenerate] = np.eye(3) * plane_eps
    return covs, degenerate


def estimate_covariances(frame: Frame, plane_eps: float = 1e-3) -> Frame:
    """Plane-regularized covariance per point from its neighbor positions.

    The sample covariance A of a point's neighborhood gets the eigenvalues
    (plane_eps, 1, 1) in place of its own, keeping the eigenvectors.  That
    is C = I - (1 - plane_eps) * n n^T, with n the normal: the eigenvector of
    the smallest eigenvalue lambda0.  Fully degenerate neighborhoods
    (largest eigenvalue below 1e-12) get plane_eps * I and are flagged.

    The eigenvalues come in closed form (the trigonometric method for a
    symmetric 3x3 matrix).  The normal is the longest column of
    adj(A - lambda0*I), that is the longest cross product of two rows of
    A - lambda0*I.  The closed-form lambda0 loses accuracy as the gap
    lambda1 - lambda0 shrinks (arccos is steep near +-1), so it is polished
    once with the Rayleigh quotient n^T A n of that normal, and the normal is
    taken again; a Newton step on det(A - lambda*I) would be limited by the
    rounding of the determinant and stay 100 times less accurate.  A row takes
    ``np.linalg.eigh`` instead, with the same result as a full eigh pass bit
    for bit, when (lambda1 - lambda0) <= ``_COV_EIGEN_GAP`` * lambda2 or
    when every cross product is zero: lines, fewer than 3 distinct points
    and duplicates, where no normal is well defined.  The gap is tested on
    the unpolished eigenvalues.  Elsewhere the covariance is within about
    3e-12 of eigh's (see ``_COV_EIGEN_GAP``), and within 1e-14 on planar
    scan rows.
    """
    if frame.neighbors is None:
        raise ValueError("neighbors must be computed before covariances")
    n = len(frame)
    if n == 0:
        return replace(frame, covs=np.zeros((0, 3, 3)), degenerate=np.zeros(0, dtype=bool))
    k = frame.neighbors.shape[1]
    nbr = np.take(frame.points.T, frame.neighbors, axis=1)  # (3, n, k)
    nbr -= np.einsum("cnk->cn", nbr)[:, :, None] / k
    x, y, z = nbr
    a = np.stack([np.einsum("nk,nk->n", u, v) for u, v in (
        (x, x), (x, y), (x, z), (y, y), (y, z), (z, z))]) / k

    lam0, lam1, lam2 = _symmetric_eigenvalues(a)
    gap = (lam1 - lam0) > _COV_EIGEN_GAP * lam2
    # polish lambda0 with the Rayleigh quotient of a first normal
    n0, n1, n2 = _null_direction(a, lam0)[0]
    xx, xy, xz, yy, yz, zz = a
    lam0 = (xx * n0 * n0 + yy * n1 * n1 + zz * n2 * n2
            + 2.0 * (xy * n0 * n1 + xz * n0 * n2 + yz * n1 * n2))
    normal, found = _null_direction(a, lam0)
    fallback = ~(gap & found)

    nt = normal.T  # (n, 3)
    covs = nt[:, :, None] * (-(1.0 - plane_eps) * nt[:, None, :])
    covs[:, [0, 1, 2], [0, 1, 2]] += 1.0
    degenerate = lam2 < 1e-12
    covs[degenerate] = np.eye(3) * plane_eps
    if fallback.any():
        rows = np.flatnonzero(fallback)
        covs[rows], degenerate[rows] = _eigh_covariances(
            frame.points, frame.neighbors[rows], plane_eps)
    return replace(frame, covs=covs, degenerate=degenerate)


def _symmetric_eigenvalues(a: np.ndarray):
    """Ascending eigenvalues of symmetric 3x3 matrices, trigonometric method.

    ``a`` holds the unique entries (xx, xy, xz, yy, yz, zz) as rows.  With
    A = q*I + p*B, q = tr(A) / 3 and p chosen so that tr(B^2) = 6, the
    eigenvalues are q + 2p cos(phi + 2j*pi/3), where cos(3*phi) = det(B) / 2.
    """
    xx, xy, xz, yy, yz, zz = a
    q = (xx + yy + zz) / 3.0
    bx, by, bz = xx - q, yy - q, zz - q
    p2 = (bx * bx + by * by + bz * bz + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0
    p = np.sqrt(p2)
    det = bx * (by * bz - yz * yz) + xy * (xz * yz - xy * bz) + xz * (xy * yz - xz * by)
    p3 = 2.0 * p2 * p
    r = np.divide(det, p3, out=np.zeros_like(det), where=p3 > 0.0)  # p = 0: A = q*I
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    lam2 = q + 2.0 * p * np.cos(phi)
    lam0 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return lam0, 3.0 * q - lam0 - lam2, lam2


def _null_direction(a: np.ndarray, lam: np.ndarray):
    """Unit longest column of adj(A - lam*I) per matrix, and where it is nonzero.

    Each column of the adjugate is the cross product of two rows of
    A - lam*I, so for an eigenvalue lam of multiplicity one all three lie
    along its eigenvector; the longest is the most accurate.  Returns
    (3, n) directions, zero where every column is.
    """
    xx, xy, xz, yy, yz, zz = a
    bx, by, bz = xx - lam, yy - lam, zz - lam
    m = (by * bz - yz * yz, xz * yz - xy * bz, xy * yz - xz * by,
         bx * bz - xz * xz, xy * xz - bx * yz, bx * by - xy * xy)
    columns = np.array([[m[0], m[1], m[2]], [m[1], m[3], m[4]], [m[2], m[4], m[5]]])
    lengths = np.sqrt(np.einsum("cin,cin->cn", columns, columns))
    rows = np.arange(lam.shape[0])
    best = lengths.argmax(axis=0)
    length = lengths[best, rows]
    found = length > 0.0
    return columns[best, :, rows].T / np.where(found, length, 1.0), found


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
