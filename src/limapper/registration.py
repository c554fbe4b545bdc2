"""Voxelized distribution-to-distribution registration.

A target cloud is discretized into voxels, each holding an aggregate
Gaussian of its member point Gaussians.  The matching cost between a source
frame and a target voxel map sums, over source points that land in an
occupied voxel, the Mahalanobis distance between the point Gaussian and the
voxel Gaussian under the combined covariance.  Points that miss contribute
nothing; low-overlap pairs are rejected up front by the overlap gate.

A matching-cost factor has one path, and all the matching factors of a
window take it together.  ``match_terms`` finds the correspondences at the
linearization point and forms their weights W = (C_voxel + R C_point R^T)^-1
there.  ``freeze_terms`` folds them into a 12-parameter quadratic: with the
rows and weights fixed, every residual is linear in g = vec([dt | dR - I]),
the change of the relative pose since the terms were formed, so the cost is
exactly c0 - 2 s.g + g.Q g, with Q and s gathered from a few weighted
moment sums over the inliers.  No per-point pass is made until a voxel row
changes.  ``frozen_cost`` and ``linearize_from_terms`` take K held
quadratics, each at its own relative pose, in one pass of stacked
``np.matmul`` products.  The first costs candidate poses in O(1) per
quadratic; the second takes each factor's gradient and Gauss-Newton
Hessian for right-multiplicative perturbations of the source pose and the
target pose: the target pose's blocks come through the derivative of g,
the source pose's through the SE(3) adjoint of the relative pose, and a
factor whose target pose is fixed keeps the source pose's.  A stacked
product forms each slice with the BLAS call of the 2-D product of that
slice alone, so a quadratic's result is the same bits in any stack.

Every per-point array is stored in component rows: a frame keeps its
points as one C-contiguous (3, n) array and its covariances as one (9, n)
array (``Frame.point_rows``, ``Frame.cov_rows``), and a voxel map keeps its
means as (3, M) rows and its covariances as the (6, M) rows of their unique
entries (xx, xy, xz, yy, yz, zz).  The per-inlier terms keep each
symmetric 3x3 weight as those six entries and every per-inlier quantity as
rows too, so the kernels are whole-row numpy operations, contiguous
``take`` gathers and small BLAS products with no per-inlier matrix; moving
the points is one (3x3)·(3xn) product.

A look-up (``GaussianVoxelMap.look_up``) moves the points, packs each
one's voxel index into one int64 key and finds the key among the map's
sorted keys.  Handed the keys and rows of an earlier look-up, it searches
only the points whose key changed; a row depends only on the key and the
immutable map, so the result is the same as a full search.
``MatchingCostFactor`` keeps its last look-up for this, and forms new terms
only when a row changed; ``overlap_rate`` takes the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Se3Pose, so3_hat, so3_hat_batch
from .preprocess import Frame, group_by_key, pack_voxel_keys, segment_sums


class GaussianVoxelMap:
    """Spatial hash of per-voxel aggregate Gaussians.

    Cells are sorted by packed voxel key, so that a batched lookup is one
    searchsorted; ``look_up`` moves, packs and searches a frame's points
    for matching and the overlap alike.  Values are stored as C-contiguous
    rows: ``mean_rows`` (3, M) and ``cov_rows`` (6, M), the unique entries
    (xx, xy, xz, yy, yz, zz), the only ones matching reads.  ``means`` is a
    view of ``mean_rows``; ``covs`` is assembled on access, with each entry
    below the diagonal a copy of the one above it.
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
        return self.cov_rows[_FULL].transpose(2, 0, 1)

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Row index of the containing cell per (n, 3) point, -1 on a miss."""
        if len(self) == 0 or points.shape[0] == 0:
            return np.full(points.shape[0], -1, dtype=np.int64)
        return self._search(pack_voxel_keys(points, self.resolution))

    def look_up(self, point_rows: np.ndarray, rot: np.ndarray, trans: np.ndarray,
                known: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """(packed voxel key, cell row or -1 on a miss) of each point of the
        (3, n) rows moved by (rot, trans).  ``known`` holds the (keys, rows)
        of an earlier look-up of the same points in this map: only the keys
        that differ from it are searched, and its rows come back as they are
        when none does."""
        moved = rot @ point_rows
        moved += trans[:, None]
        keys = pack_voxel_keys(moved.T, self.resolution)
        if known is None:
            return keys, self._search(keys)
        old_keys, rows = known
        changed = np.flatnonzero(keys != old_keys)
        if changed.size:
            rows = rows.copy()
            rows[changed] = self._search(keys[changed])
        return keys, rows

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
    Only the six unique entries of each cell are summed, each in the same
    order as ``np.add.at`` over the points in index order would sum it.
    """
    if frame.covs is None and len(frame) > 0:
        raise ValueError("frame needs covariances before voxelization")
    if len(frame) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GaussianVoxelMap(resolution, empty, np.zeros((3, 0)),
                                np.zeros((6, 0)), empty)
    keys = pack_voxel_keys(frame.points, resolution)
    order, starts, counts = group_by_key(keys)
    points = frame.point_rows.take(order, axis=1)
    means = segment_sums(points.T, starts, counts) / counts[:, None]
    centered = points - np.repeat(means.T, counts, axis=1)
    scatter = frame.cov_rows.take(order, axis=1)[_SYM]
    scatter += centered[_SYM_I] * centered[_SYM_J]
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
    moved: np.ndarray  # (n, 3) transformed source means, a view of (3, n)
    d: np.ndarray  # (m, 3) residuals of the matched subset, a view of (3, m)
    weight: np.ndarray  # (6, m) unique entries of the inverse combined covariances
    wd: np.ndarray  # (m, 3) weight @ d, a view of (3, m)
    cost: float
    inliers: int


def match_terms(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose,
                rows: np.ndarray | None = None) -> MatchTerms:
    """Residuals and weights of frame against the map at relative pose t_ij.

    Each source point is matched to the voxel that contains it, unless
    ``rows`` fixes the voxel row of every source point (-1 for none).

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
    if rows is None:
        rows = vmap.lookup(moved.T)
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
    cov += vmap.cov_rows.take(idx, axis=1)
    weight = cov[_ADJ[0]] * cov[_ADJ[1]]
    weight -= cov[_ADJ[2]] * cov[_ADJ[3]]
    weight /= np.einsum("sm,sm->m", cov[:3], weight[:3])
    d = vmap.mean_rows.take(idx, axis=1)
    d -= x0
    wd = weight[_FULL[0]] * d[0]  # W d, column by column of the symmetric W
    wd += weight[_FULL[1]] * d[1]
    wd += weight[_FULL[2]] * d[2]
    cost = float(np.vdot(d, wd))
    return MatchTerms(rows, hit, moved.T, d.T, weight, wd.T, cost, inliers)


def overlap_rate(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose) -> float:
    """Fraction of frame points landing in occupied voxels of the map."""
    if len(frame) == 0 or len(vmap) == 0:
        return 0.0
    _, rows = vmap.look_up(frame.point_rows, t_ij.rotation.matrix(), t_ij.translation)
    return float(np.count_nonzero(rows >= 0)) / len(frame)


def _change_jacobian(change: np.ndarray) -> np.ndarray:
    """Derivative of g = vec([dt | dR - I]) with respect to a perturbation
    xi = (phi, rho) of the target pose, at the change (3x4, ``[dt | dR - I]``).

    The perturbation moves the relative pose to exp(-xi) t_ij, so dR gains
    -hat(phi) dR and dt gains -hat(phi) dt - rho: the rows of dt take
    [ hat(dt) | -I ], and those of column k of dR take [ hat(dR[:, k]) | 0 ].
    Row 4a + c of the (12x6) result belongs to entry (a, c) of the change.
    """
    full = change + np.hstack([np.zeros((3, 1)), np.eye(3)])  # [dt | dR]
    jac = np.zeros((3, 4, 6))
    for c in range(4):
        jac[:, c, :3] = so3_hat(full[:, c])
    jac[:, 0, 3:] = -np.eye(3)
    return jac.reshape(12, 6)


def _quadratic_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant tables of the frozen-weight quadratic.

    Returns the (12x12) positions in the flattened 6x10 moment matrix
    W_6 F^T (row-major in (s, q)) of the entries of Q, whose entry
    (4a + k, 4b + l) is sum W_ab f_k f_l over the monomials f = (1, x, y,
    z) of the moved points; and ``_change_jacobian`` as the (72x12) map
    and the (72,) offset that give it, flattened, from g.
    """
    mono = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])
    q_index = (10 * _FULL[:, None, :, None] + mono[None, :, None, :]).reshape(12, 12)
    offset = _change_jacobian(np.zeros((3, 4))).reshape(72)
    jac_map = np.stack([_change_jacobian(e.reshape(3, 4)).reshape(72) - offset
                        for e in np.eye(12)], axis=1)
    return q_index, jac_map, offset


_Q_INDEX, _JAC_MAP, _JAC_OFFSET = _quadratic_tables()


class FrozenTerms(NamedTuple):
    """The matching cost on fixed correspondences and weights, as a quadratic
    in the change of the relative pose since they were formed.

    With the rows and the weights W fixed at the relative pose (R0, t0),
    every residual d = mu - (dR x0 + dt) is linear in g = vec([dt | dR - I])
    (row-major, 12 entries), where x0 is the point moved by (R0, t0) and
    (dR, dt) the change to the current relative pose.  So the cost is
    exactly ``cost - 2 s.g + g.Q g``.
    """

    pose: np.ndarray  # (3, 4) [t0 | R0]
    # (4, 4) map from [t - t0 | R - R0] to [dt | dR - I]
    to_change: np.ndarray
    cost: float  # at (R0, t0)
    s: np.ndarray  # (12,) sum (W d) f^T, row-major in (component, monomial)
    q: np.ndarray  # (12, 12) sum of W_ab f_k f_l


def freeze_terms(terms: MatchTerms, t_ij: Se3Pose) -> FrozenTerms:
    """The quadratic of the terms that ``match_terms`` formed at t_ij.

    Q is an index gather of the 6x10 moment matrix W_6 F^T, where W_6
    holds the six unique weight entries per inlier and F the ten monomials
    (1, x, y, z, xx, xy, xz, yy, yz, zz) of the moved point; s is the 3x4
    matrix (W d) F[:4]^T.  No per-inlier quantity is kept.
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
    q = (terms.weight @ mono.T).reshape(60)[_Q_INDEX]
    s = (terms.wd.T @ mono[:4].T).reshape(12)
    r0, t0 = t_ij.rotation.matrix(), t_ij.translation
    to_change = np.zeros((4, 4))
    to_change[0, 0] = 1.0
    to_change[1:, 0] = -(r0.T @ t0)
    to_change[1:, 1:] = r0.T
    return FrozenTerms(_pose_columns(t_ij), to_change, terms.cost, s, q)


def _pose_columns(t_ij: Se3Pose) -> np.ndarray:
    """[t | R] of a pose as one (3, 4) array."""
    out = np.empty((3, 4))
    out[:, 0] = t_ij.translation
    out[:, 1:] = t_ij.rotation.matrix()
    return out


def _stack(held: Sequence[FrozenTerms]) -> FrozenTerms:
    """K held quadratics as one FrozenTerms whose fields carry a leading
    axis of length K."""
    return FrozenTerms(*(np.array(field) for field in zip(*held)))


def _changes(terms: FrozenTerms, rot: np.ndarray, trans: np.ndarray
             ) -> np.ndarray:
    """(K, 12) g = vec([dt | dR - I]) from each held pose of the stacked
    terms to the relative pose (rot[k], trans[k]).  It is formed as
    [t - t0 | R - R0] times the held map, that is dR - I = (R - R0) R0^T and
    dt = (t - t0) - (dR - I) t0, so g is exactly zero at the held pose and
    carries no cancellation near it."""
    diff = np.empty((rot.shape[0], 3, 4))
    diff[:, :, 0] = trans
    diff[:, :, 1:] = rot
    diff -= terms.pose
    return np.matmul(diff, terms.to_change).reshape(-1, 12)


def _costs(terms: FrozenTerms, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K,) costs c0 - 2 s.g + g.Q g of the stacked terms at the (K, 12)
    changes g, and Q g as (K, 12, 1)."""
    qg = np.matmul(terms.q, g[:, :, None])
    lin = 2.0 * terms.s[:, :, None] - qg
    return terms.cost - np.matmul(g[:, None, :], lin)[:, 0, 0], qg


def frozen_cost(held: Sequence[FrozenTerms], rot: np.ndarray,
                trans: np.ndarray) -> np.ndarray:
    """(K,) costs of K held quadratics, each at its relative pose
    (rot (K, 3, 3), trans (K, 3))."""
    terms = _stack(held)
    return _costs(terms, _changes(terms, rot, trans))[0]


def linearize_from_terms(held: Sequence[FrozenTerms], rot: np.ndarray,
                         trans: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (K, 12), Gauss-Newton Hessians (K, 12, 12) and costs (K,)
    of K held quadratics, each at its relative pose (rot (K, 3, 3), trans
    (K, 3)).  Each block covers the source pose's 6 dims, then the target
    pose's 6; a factor whose target pose is fixed takes the leading 6 of
    the gradient and the leading 6x6 of the Hessian.

    With J the (12x6) derivative of g with respect to the target pose
    (``_change_jacobian``), the target pose's blocks are
    H = 2 J^T Q J and b = 2 J^T (Q g - s).  A source perturbation xi_i moves
    the points as the target perturbation -Ad(t_ij) xi_i does, so the source
    and cross blocks follow from the 6x6 adjoint Ad: H_ii = Ad^T H Ad,
    H_ij = -Ad^T H, b_i = -Ad^T b.

    Every product is one ``np.matmul`` over the stack, which forms each
    slice with the same BLAS call as the 2-D product of that slice alone,
    so the blocks of a quadratic do not depend on the others in the stack.
    """
    terms = _stack(held)
    g = _changes(terms, rot, trans)
    cost, qg = _costs(terms, g)
    jac = (np.matmul(_JAC_MAP, g[:, :, None])[:, :, 0] + _JAC_OFFSET).reshape(-1, 12, 6)
    jac_t = jac.transpose(0, 2, 1)
    b_j = 2.0 * np.matmul(jac_t, qg - terms.s[:, :, None])
    half = np.matmul(jac_t, np.matmul(terms.q, jac))
    h_jj = half + half.transpose(0, 2, 1)

    k = rot.shape[0]
    adj = np.zeros((k, 6, 6))
    adj[:, :3, :3] = adj[:, 3:, 3:] = rot
    adj[:, 3:, :3] = np.matmul(so3_hat_batch(trans), rot)
    adj_t = adj.transpose(0, 2, 1)
    adj_t_h = np.matmul(adj_t, h_jj)
    grad = np.empty((k, 12))
    grad[:, :6] = -np.matmul(adj_t, b_j)[:, :, 0]
    grad[:, 6:] = b_j[:, :, 0]
    hess = np.empty((k, 12, 12))
    hess[:, :6, :6] = np.matmul(adj_t_h, adj)
    hess[:, :6, 6:] = -adj_t_h
    hess[:, 6:, :6] = hess[:, :6, 6:].transpose(0, 2, 1)
    hess[:, 6:, 6:] = h_jj
    return grad, hess, cost
