"""Voxelized distribution-to-distribution registration.

A target cloud is discretized into voxels, each holding an aggregate
Gaussian of its member point Gaussians.  The matching cost between a source
frame and a target voxel map sums, over source points that land in an
occupied voxel, the Mahalanobis distance between the point Gaussian and the
voxel Gaussian under the combined covariance.  Points that miss contribute
nothing; low-overlap pairs are rejected up front by the overlap gate.

A matching-cost factor has one path: ``match_terms`` finds the
correspondences and fixed weights at the linearization point, and
``linearize_from_terms`` turns them into the factor's gradient and
Gauss-Newton Hessian for right-multiplicative perturbations of the source
pose and, unless it is fixed, the target pose.  The per-point Jacobian is
linear in the moved point, so the target pose's blocks are constant linear
maps of a few weighted moment sums over the inliers; the source pose's
blocks follow through the SE(3) adjoint of the relative pose.  The factor
applies its own minimum inlier count.  ``match_terms`` can also evaluate the
cost with correspondences fixed from an earlier lookup, which keeps the cost
smooth between two linearizations.

Every per-point array is stored in component rows: a frame keeps its
points as one C-contiguous (3, n) array and its covariances as one (9, n)
array (``Frame.point_rows``, ``Frame.cov_rows``), and a voxel map keeps its
means as (3, M) rows and its covariances as (9, M) rows whose first six are
the unique entries (xx, xy, xz, yy, yz, zz).  The per-inlier terms keep each
symmetric 3x3 weight as those six entries and every per-inlier quantity as
rows too, so the kernels are whole-row numpy operations, contiguous
``take`` gathers and small BLAS products with no per-inlier matrix; moving
the points is one (3x3)·(3xn) product.

A lookup packs each moved point's voxel index into one int64 key and finds
the key among the map's sorted keys.  ``MatchingCostFactor`` keeps the keys
and rows of its last lookup, so a re-linearization searches only the points
whose key changed; a row depends only on the key and the immutable map, so
the result is the same as a full search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Se3Pose, so3_hat
from .preprocess import Frame, group_by_key, pack_voxel_keys, segment_sums


class GaussianVoxelMap:
    """Spatial hash of per-voxel aggregate Gaussians.

    Cells are sorted by packed voxel key, so that a batched lookup is one
    searchsorted.  Their values are stored as rows: ``mean_rows`` (3, M) and
    ``cov_rows`` (9, M), both C-contiguous.  The first six covariance rows
    are the unique entries (xx, xy, xz, yy, yz, zz), which matching reads
    as one (6, M) block; the last three are the entries below the diagonal
    (yx, zx, zy), kept so that ``covs`` gives back the aggregated matrices
    as built.  ``means`` is a view of ``mean_rows``; ``covs`` is assembled
    on access.
    """

    def __init__(self, resolution: float, keys: np.ndarray,
                 mean_rows: np.ndarray, cov_rows: np.ndarray,
                 counts: np.ndarray):
        self.resolution = float(resolution)
        self.keys = keys
        self.mean_rows = mean_rows
        self.cov_rows = cov_rows
        self.counts = counts

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def means(self) -> np.ndarray:
        """(M, 3) cell means, a view of ``mean_rows``."""
        return self.mean_rows.T

    @property
    def covs(self) -> np.ndarray:
        """(M, 3, 3) cell covariances, assembled from ``cov_rows``."""
        return self.cov_rows[_FROM_CELL_ROWS].T.reshape(-1, 3, 3)

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Row index of the containing cell per (n, 3) point, -1 on a miss."""
        if len(self) == 0 or points.shape[0] == 0:
            return np.full(points.shape[0], -1, dtype=np.int64)
        return self.lookup_keys(pack_voxel_keys(points, self.resolution))

    def lookup_keys(self, keys: np.ndarray,
                    known: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> np.ndarray:
        """Row index of the cell per packed voxel key, -1 on a miss.

        ``known`` holds the (keys, rows) of an earlier lookup of as many
        points in this map; only the keys that differ from it are searched,
        and its rows are returned as they are when none does.
        """
        if known is None:
            return self._search(keys)
        old_keys, rows = known
        changed = np.flatnonzero(keys != old_keys)
        if changed.size:
            rows = rows.copy()
            rows[changed] = self._search(keys[changed])
        return rows

    def _search(self, keys: np.ndarray) -> np.ndarray:
        if len(self) == 0 or keys.shape[0] == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys)
        pos = np.clip(pos, 0, len(self) - 1)
        hit = self.keys[pos] == keys
        return np.where(hit, pos, -1)



def build_voxelmap(frame: Frame, resolution: float) -> GaussianVoxelMap:
    """Aggregate point Gaussians into per-voxel Gaussians.

    The cell covariance is the mean of member covariances plus the scatter
    of member means about the cell mean (total covariance decomposition).
    Every entry is summed in the same order as ``np.add.at`` over the points
    in index order would sum it.
    """
    if frame.covs is None and len(frame) > 0:
        raise ValueError("frame needs covariances before voxelization")
    if len(frame) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GaussianVoxelMap(resolution, empty, np.zeros((3, 0)),
                                np.zeros((9, 0)), empty)
    keys = pack_voxel_keys(frame.points, resolution)
    order, starts, counts = group_by_key(keys)
    points = frame.point_rows.take(order, axis=1)
    means = segment_sums(points.T, starts, counts) / counts[:, None]
    centered = points - np.repeat(means.T, counts, axis=1)
    scatter = frame.cov_rows.take(order, axis=1)[_CELL_ROWS]
    scatter += centered[_CELL_ROWS // 3] * centered[_CELL_ROWS % 3]
    covs = segment_sums(scatter.T, starts, counts) / counts[:, None]
    return GaussianVoxelMap(resolution, keys[order[starts]],
                            np.ascontiguousarray(means.T),
                            np.ascontiguousarray(covs.T), counts.astype(np.int64))


# a symmetric 3x3 matrix is kept as the row of its unique entries (xx, xy,
# xz, yy, yz, zz); _SYM_I/_SYM_J are their (row, column) indices and _SYM
# their positions in the row-major flattening
_SYM_I = np.array([0, 0, 0, 1, 1, 2])
_SYM_J = np.array([0, 1, 2, 1, 2, 2])
_SYM = 3 * _SYM_I + _SYM_J
# a voxel map's covariance rows: the unique entries, then those below the
# diagonal (yx, zx, zy), as positions in the row-major flattening; and the
# reverse order, from those rows back to the flattening
_CELL_ROWS = np.r_[_SYM, 3, 6, 7]
_FROM_CELL_ROWS = np.argsort(_CELL_ROWS)
# rows (and columns) of the full 3x3 matrix, as indices into the unique entries
_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# the unique entries of the adjugate (cofactor) matrix, in the same order:
# adj = s[_ADJ[0]] * s[_ADJ[1]] - s[_ADJ[2]] * s[_ADJ[3]], so that, with
# the determinant xx adj_xx + xy adj_xy + xz adj_xz, inverse = adj / det
_ADJ = np.array([[3, 2, 1, 0, 1, 0], [5, 4, 4, 5, 2, 3],
                 [4, 1, 2, 2, 0, 1], [4, 5, 3, 2, 4, 1]])


@dataclass
class MatchTerms:
    """Correspondences and fixed weights of one frame/map pair at one pose."""

    rows: np.ndarray  # (n,) voxel row per source point, -1 on a miss
    hit: np.ndarray  # (n,) bool, per source point
    # (n,) packed voxel keys of the moved points when ``rows`` came from a
    # lookup of them, None when the rows were fixed by the caller
    keys: np.ndarray | None
    moved: np.ndarray  # (n, 3) transformed source means, a view of (3, n)
    d: np.ndarray  # (m, 3) residuals of the matched subset, a view of (3, m)
    weight: np.ndarray  # (6, m) unique entries of the inverse combined covariances
    wd: np.ndarray  # (m, 3) weight @ d, a view of (3, m)
    cost: float
    inliers: int


def match_terms(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose,
                rows: np.ndarray | None = None,
                known: tuple[np.ndarray, np.ndarray] | None = None
                ) -> MatchTerms:
    """Residuals and weights of frame against the map at relative pose t_ij.

    Each source point is matched to the voxel that contains it, unless
    ``rows`` fixes the voxel row of every source point (-1 for none).  A
    lookup with ``known``, the (keys, rows) of an earlier lookup of the
    frame in the same map, searches only the points whose voxel key changed.

    The kernel works on the frame's component rows: the points move as one
    (3x3)·(3xn) product, and every gather is a ``take`` along contiguous
    rows.  The six unique entries of R C R^T come from one (6x9)·(9xm)
    product of the rows of R (x) R at those entries with the covariance
    rows; reading all nine entries of C, it does not rely on C being exactly
    symmetric.  The voxel covariance's entries are added, and the sum is
    inverted in closed form, adjugate over determinant, on the six rows.
    """
    rmat = t_ij.rotation.matrix()
    moved = rmat @ frame.point_rows
    moved += t_ij.translation[:, None]
    keys = None
    if rows is None:
        keys = pack_voxel_keys(moved.T, vmap.resolution)
        rows = vmap.lookup_keys(keys, known)
    hit = rows >= 0
    inliers = int(np.count_nonzero(hit))
    covs = frame.cov_rows
    if inliers == rows.shape[0]:
        idx, x0 = rows, moved
    else:
        sel = np.flatnonzero(hit)
        idx, covs, x0 = rows[sel], covs.take(sel, axis=1), moved.take(sel, axis=1)
    rr = (rmat[_SYM_I, :, None] * rmat[_SYM_J, None, :]).reshape(6, 9)
    cov = rr @ covs
    cov += vmap.cov_rows[:6].take(idx, axis=1)
    weight = cov[_ADJ[0]] * cov[_ADJ[1]]
    weight -= cov[_ADJ[2]] * cov[_ADJ[3]]
    weight /= np.einsum("sm,sm->m", cov[:3], weight[:3])
    d = vmap.mean_rows.take(idx, axis=1)
    d -= x0
    wd = weight[_FULL[0]] * d[0]  # W d, column by column of the symmetric W
    wd += weight[_FULL[1]] * d[1]
    wd += weight[_FULL[2]] * d[2]
    cost = float(np.vdot(d, wd))
    return MatchTerms(rows, hit, keys, moved.T, d.T, weight, wd.T, cost, inliers)


def overlap_rate(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose) -> float:
    """Fraction of frame points landing in occupied voxels of the map."""
    if len(frame) == 0 or len(vmap) == 0:
        return 0.0
    moved = t_ij.rotation.matrix() @ frame.point_rows
    moved += t_ij.translation[:, None]
    return float(np.count_nonzero(vmap.lookup(moved.T) >= 0)) / len(frame)


def _moment_maps() -> tuple[np.ndarray, np.ndarray]:
    """Constant maps from weighted monomial moments to H and b.

    J(x) = [ -hat(x) | I ] = sum_k f_k J_k over the monomials f = (1, x, y, z)
    of the moved point, so J^T W J is a fixed linear function of the
    products w_s f_k f_l of the six unique weight entries w_s with the ten
    monomials F = (1, x, y, z, xx, xy, xz, yy, yz, zz), and J^T W d one of
    the products (W d)_c f_k.  Returns the (60x36) map from the moments
    sum w_s F_q, row-major in (s, q), to H = 2 sum J^T W J, flattened, and
    the (12x6) map from sum (W d)_c f_k, row-major in (c, k), to
    b = 2 sum J^T W d.
    """
    basis = np.zeros((4, 3, 6))  # J_k
    basis[0, :, 3:] = np.eye(3)
    for k in range(3):
        basis[k + 1, :, :3] = -so3_hat(np.eye(3)[k])
    # the (k, l) of F_q = f_k f_l, in the order of F
    pairs = [(0, k) for k in range(4)] + list(zip(_SYM_I + 1, _SYM_J + 1))
    h_map = np.zeros((6, 10, 36))
    for s, (i, j) in enumerate(zip(_SYM_I, _SYM_J)):
        e_s = np.zeros((3, 3))
        e_s[i, j] = e_s[j, i] = 1.0
        for q, (k, l) in enumerate(pairs):
            block = basis[k].T @ e_s @ basis[l]
            if k != l:  # f_k f_l also comes as f_l f_k
                block = block + block.T
            h_map[s, q] = 2.0 * block.reshape(-1)
    b_map = 2.0 * basis.transpose(1, 0, 2).reshape(12, 6)
    return h_map.reshape(60, 36), b_map


_H_MAP, _B_MAP = _moment_maps()


def linearize_from_terms(terms: MatchTerms, t_ij: Se3Pose,
                         target_fixed: bool = False
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Gauss-Newton Hessian over the factor's tangent space: the
    source pose's 6 dims, then the target pose's 6 unless ``target_fixed``.

    The Jacobian of an inlier's residual with respect to the target pose is
    J = [ -hat(x0) | I ], with x0 the moved point in the target frame.  It is
    linear in the monomials (1, x, y, z) of x0, so H = 2 sum J^T W J is a
    constant linear map of the 6x10 moment matrix W_6 F^T, where W_6 holds
    the six unique weight entries per inlier and F the ten monomials (1, x,
    y, z, xx, xy, xz, yy, yz, zz) of x0, and b = 2 sum J^T W d one of the
    3x4 matrix (W d) F[:4]^T; no per-inlier Jacobian is formed.  These are
    the target pose's blocks.  A source perturbation xi_i moves the points
    as the target perturbation -Ad(t_ij) xi_i does, so the source and cross
    blocks follow from the 6x6 adjoint Ad: H_ii = Ad^T H Ad, H_ij = -Ad^T H,
    b_i = -Ad^T b.
    """
    x0 = terms.moved.T  # (3, n) rows
    if terms.inliers < x0.shape[1]:
        x0 = x0.take(np.flatnonzero(terms.hit), axis=1)
    mono = np.empty((10, terms.inliers))
    mono[0] = 1.0
    mono[1:4] = x0
    mono[4:7] = mono[1] * mono[1:4]
    mono[7:9] = mono[2] * mono[2:4]
    mono[9] = mono[3] * mono[3]
    h_jj = ((terms.weight @ mono.T).reshape(60) @ _H_MAP).reshape(6, 6)
    b_j = (terms.wd.T @ mono[:4].T).reshape(12) @ _B_MAP

    rmat = t_ij.rotation.matrix()
    adj = np.zeros((6, 6))
    adj[:3, :3] = adj[3:, 3:] = rmat
    adj[3:, :3] = so3_hat(t_ij.translation) @ rmat
    adj_t_h = adj.T @ h_jj
    if target_fixed:
        return -(adj.T @ b_j), adj_t_h @ adj
    h = np.empty((12, 12))
    h[:6, :6] = adj_t_h @ adj
    h[:6, 6:] = -adj_t_h
    h[6:, :6] = h[:6, 6:].T
    h[6:, 6:] = h_jj
    return np.concatenate([-(adj.T @ b_j), b_j]), h
