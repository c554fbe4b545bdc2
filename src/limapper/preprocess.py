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

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import FrameTooSparse, MalformedScan, VoxelKeyOutOfRange
from .geometry import SensorState, rodrigues_coefficients
from .imu import GRAVITY, integrate

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
    """Points with absolute per-point stamps plus the scan time span.

    The points must be (n, 3), an empty input becoming (0, 3), and the
    stamps (n,); any other shapes raise MalformedScan.
    """

    points: np.ndarray  # (n, 3) positions, sensor frame [m]
    stamps: np.ndarray  # (n,) absolute capture times [s]
    scan_start: float
    scan_end: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        stamps = np.asarray(self.stamps, dtype=float)
        if points.shape == (0,):
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3 or stamps.shape != points.shape[:1]:
            raise MalformedScan(f"points of shape {points.shape} and stamps of "
                                f"shape {stamps.shape}; need (n, 3) and (n,)")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "stamps", stamps)

    @property
    def duration(self) -> float:
        return self.scan_end - self.scan_start

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Frame:
    """Downsampled point cloud with optional neighbors and covariances.

    Each per-point array is stored once, one contiguous row per component:
    ``point_rows`` is a C-contiguous (3, n) array and ``cov_rows`` a
    C-contiguous (9, n) array of the row-major covariance entries.  The
    (n, 3) ``points`` and (n, 3, 3) ``covs`` fields are views of that
    storage; construction copies an array into it only when it is not laid
    out so already, so ``replace`` shares the arrays it keeps.  Matching
    reads the rows, so transforming the points is one (3x3)·(3xn) product
    and every gather is a contiguous ``take`` along a row.  The frame holds
    the scan span, named as on ``RawScan``, for every stage after it.
    """

    points: np.ndarray  # (n, 3), a view of point_rows
    stamps: np.ndarray  # (n,)
    scan_start: float
    scan_end: float = 0.0
    neighbors: np.ndarray | None = None  # (n, k) indices, self included
    covs: np.ndarray | None = None  # (n, 3, 3) regularized, a view of cov_rows
    degenerate: np.ndarray | None = None  # (n,) flat-neighborhood flags
    deskewed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", _row_view(self.points, 3))
        if self.covs is not None:
            object.__setattr__(self, "covs", _row_view(self.covs, 9))

    def __reduce__(self):
        # pickle and copy rebuild the frame through the constructor: numpy
        # stores a view as an array of its own, whose (n, 3, 3) layout
        # would leave cov_rows strided
        return (Frame, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def point_rows(self) -> np.ndarray:
        """(3, n) C-contiguous storage of ``points``."""
        return self.points.T

    @property
    def cov_rows(self) -> np.ndarray:
        """(9, n) C-contiguous storage of ``covs``, entries in row-major order."""
        return self.covs.reshape(-1, 9).T

    def __len__(self) -> int:
        return self.points.shape[0]


def _row_view(values, width: int) -> np.ndarray:
    """``values`` as a view of a C-contiguous (width, n) float array, in its
    own shape; copied only when it is not laid out so already."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, width).T
    if not rows.flags.c_contiguous:
        rows = np.ascontiguousarray(rows)
    return rows.T.reshape(values.shape)


def frame_from_scan(scan: RawScan) -> Frame:
    return Frame(points=scan.points, stamps=scan.stamps,
                 scan_start=scan.scan_start, scan_end=scan.scan_end)


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
    points = np.ascontiguousarray(frame.points)  # the tree's own layout
    dist, idx = cKDTree(points).query(points, k=k)
    dist, idx = dist.reshape(n, k), idx.reshape(n, k)
    tied = np.flatnonzero(
        ~(dist[:, 1:] > dist[:, :-1] * (1.0 + _KNN_TIE_REL)).all(axis=1))
    if tied.size:
        # recompute distances with plain vectorized arithmetic, then order by
        # (distance, index) for a deterministic tie-break
        rows = idx[tied]
        diff = points[rows] - points[tied, None, :]
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
    nbr = np.take(frame.point_rows, frame.neighbors, axis=1)  # (3, n, k)
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

    # the (9, n) rows of the row-major entries
    covs = np.empty((3, 3, n))
    np.multiply(normal[:, None], -(1.0 - plane_eps) * normal, out=covs)
    covs = covs.reshape(9, n)
    covs[[0, 4, 8]] += 1.0
    degenerate = lam2 < 1e-12
    covs[:, degenerate] = plane_eps * np.eye(3).reshape(9, 1)
    if fallback.any():
        rows = np.flatnonzero(fallback)
        eigh_covs, degenerate[rows] = _eigh_covariances(
            frame.points, frame.neighbors[rows], plane_eps)
        covs[:, rows] = eigh_covs.reshape(-1, 9).T
    return replace(frame, covs=covs.T.reshape(n, 3, 3), degenerate=degenerate)


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


def deskew(frame: Frame, imu_samples, state_at_scan_start: SensorState,
           gravity=GRAVITY, max_gap: float = 0.02) -> Frame:
    """Undistort a frame by IMU motion prediction across the scan.

    ``imu.integrate`` forms the deltas from the scan start t_s to every IMU
    node in the scan span, at the bias of the scan-start state.  With that
    state's rotation R_s and velocity v_s, the pose at node k relative to
    the scan start is

        rotation  dR_k,
        translation  R_s^T (v_s tau_k + g tau_k^2 / 2) + dp_k,  tau_k = t_k - t_s,

    the closed form of integrating the state forward step by step.  A point
    captured at t in step k, a fraction alpha into it, takes the rotation
    dR_k exp(alpha phi_k), the geodesic to the next node along the step's
    own rotation vector phi_k, and the linear interpolation of the two
    nodes' translations; it is then expressed in the scan-start frame.
    """
    if frame.deskewed:
        raise ValueError("frame is already deskewed")
    if len(frame) == 0:
        return replace(frame, deskewed=True)
    t0 = frame.scan_start
    t1 = max(float(frame.stamps.max()), frame.scan_end)
    if t1 <= t0:
        return replace(frame, deskewed=True)

    state = state_at_scan_start
    d = integrate(imu_samples, t0, t1, state.bias, max_gap)
    tau = (d.stamps - t0)[:, None]
    trans = (state.velocity * tau + 0.5 * np.asarray(gravity, dtype=float) * tau * tau
             ) @ state.pose.rotation.matrix() + d.pos

    seg = np.clip(np.searchsorted(d.stamps, frame.stamps, side="right") - 1,
                  0, d.dt.size - 1)
    alpha = np.clip((frame.stamps - d.stamps[seg]) / d.dt[seg], 0.0, 1.0)
    # one gather of each point's step: dR_k (rows 0-8), phi_k (9-11), the
    # node translation (12-14) and its change over the step (15-17)
    steps = np.concatenate([d.rot[:-1].reshape(-1, 9), d.phi, trans[:-1],
                            np.diff(trans, axis=0)], axis=1)
    per_point = np.ascontiguousarray(steps.T)[:, seg]
    # rotate by exp(alpha phi_k) with Rodrigues' formula on the (3, n) rows,
    # p + a (w x p) + b w x (w x p), then by dR_k, and translate
    w = per_point[9:12] * alpha
    a, b = rodrigues_coefficients(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    points = frame.point_rows
    c1 = _cross_rows(w, points)
    points = points + a * c1 + b * _cross_rows(w, c1)
    out = per_point[12:15] + per_point[15:18] * alpha
    for i in range(3):
        rot = per_point[3 * i:3 * i + 3]
        out[i] += rot[0] * points[0] + rot[1] * points[1] + rot[2] * points[2]
    return replace(frame, points=out.T, deskewed=True)


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the columns of two (3, n) arrays, as (3, n) rows.

    The products and differences are those ``np.cross`` forms, so the result
    is the same bit for bit; on rows it takes half the time of ``np.cross``
    with axis arguments, which moves the axes and writes strided columns.
    """
    out = np.empty((3, a.shape[1]))
    np.multiply(a[1], b[2], out=out[0])
    out[0] -= a[2] * b[1]
    np.multiply(a[2], b[0], out=out[1])
    out[1] -= a[0] * b[2]
    np.multiply(a[0], b[1], out=out[2])
    out[2] -= a[1] * b[0]
    return out
