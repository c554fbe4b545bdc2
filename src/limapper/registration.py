"""Voxelized distribution-to-distribution registration.

A target cloud is discretized into voxels, each holding an aggregate
Gaussian of its member point Gaussians.  The matching cost between a source
frame and a target voxel map sums, over source points that land in an
occupied voxel, the Mahalanobis distance between the point Gaussian and the
voxel Gaussian under the combined covariance.  Points that miss contribute
nothing; low-overlap pairs are rejected up front by the overlap gate.

Linearization produces Gauss-Newton blocks for right-multiplicative
perturbations of the two sensor poses, re-evaluating correspondences at the
supplied linearization point and holding the per-point weight matrices fixed
within the iteration.  The per-point Jacobian is taken once, in the target
frame, for a perturbation of the target pose; the source pose's blocks
follow from those sums through the SE(3) adjoint of the relative pose, so a
binary factor makes one pass over its inliers, as a unary one does.
``match_terms`` can also evaluate the cost with correspondences fixed from
an earlier lookup, which keeps the cost smooth between two linearizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstraint
from .geometry import (Gaussian3, Se3Pose, pose_compose, pose_inverse,
                       so3_hat)
from .preprocess import Frame, group_by_key, pack_voxel_keys, segment_sums

MIN_INLIERS_DEFAULT = 10


class GaussianVoxelMap:
    """Spatial hash of per-voxel aggregate Gaussians.

    Cells are stored as parallel arrays sorted by packed voxel key so that
    batched lookups reduce to a searchsorted.
    """

    def __init__(self, resolution: float, keys: np.ndarray, means: np.ndarray,
                 covs: np.ndarray, counts: np.ndarray):
        self.resolution = float(resolution)
        self.keys = keys
        self.means = means
        self.covs = covs
        self.counts = counts

    def __len__(self) -> int:
        return self.keys.shape[0]

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Row index of the containing cell per point, -1 on a miss."""
        if len(self) == 0 or points.shape[0] == 0:
            return np.full(points.shape[0], -1, dtype=np.int64)
        pkeys = pack_voxel_keys(points, self.resolution)
        pos = np.searchsorted(self.keys, pkeys)
        pos = np.clip(pos, 0, len(self) - 1)
        hit = self.keys[pos] == pkeys
        return np.where(hit, pos, -1)

    def cell(self, index3) -> tuple[np.ndarray, np.ndarray, int]:
        """(mean, cov, count) of the voxel at an integer 3-index."""
        pt = (np.asarray(index3, dtype=float) + 0.5) * self.resolution
        row = int(self.lookup(pt.reshape(1, 3))[0])
        if row < 0:
            raise KeyError(f"voxel {tuple(index3)} is empty")
        return self.means[row], self.covs[row], int(self.counts[row])

    def occupied_indices(self) -> np.ndarray:
        """Integer 3-indices of all occupied voxels."""
        off = 1 << 20
        ix = (self.keys >> 42) - off
        iy = ((self.keys >> 21) & ((1 << 21) - 1)) - off
        iz = (self.keys & ((1 << 21) - 1)) - off
        return np.column_stack([ix, iy, iz])


def build_voxelmap(frame: Frame, resolution: float) -> GaussianVoxelMap:
    """Aggregate point Gaussians into per-voxel Gaussians.

    The cell covariance is the mean of member covariances plus the scatter
    of member means about the cell mean (total covariance decomposition).
    """
    if frame.covs is None and len(frame) > 0:
        raise ValueError("frame needs covariances before voxelization")
    n = len(frame)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GaussianVoxelMap(resolution, empty, np.zeros((0, 3)),
                                np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64))
    keys = pack_voxel_keys(frame.points, resolution)
    order, starts, counts = group_by_key(keys)
    points = frame.points[order]
    means = segment_sums(points, starts, counts) / counts[:, None]
    centered = points - np.repeat(means, counts, axis=0)
    scatter = frame.covs[order] + np.einsum("ni,nj->nij", centered, centered)
    covs = segment_sums(scatter, starts, counts) / counts[:, None, None]
    return GaussianVoxelMap(resolution, keys[order[starts]], means, covs,
                            counts.astype(np.int64))


def d2d_error(point: Gaussian3, voxel: Gaussian3, t_ij: Se3Pose):
    """Distribution-to-distribution error of one point/voxel pair.

    Returns (error, residual, weight) with residual = voxel mean minus the
    transformed point mean and weight the inverse combined covariance.
    """
    rmat = t_ij.rotation.matrix()
    d = voxel.mean - (rmat @ point.mean + t_ij.translation)
    weight = np.linalg.inv(voxel.cov + rmat @ point.cov @ rmat.T)
    return float(d @ weight @ d), d, weight


def _inv3x3(m: np.ndarray) -> np.ndarray:
    """Batched closed-form inverse of (n, 3, 3) matrices."""
    a, b, c = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    d, e, f = m[:, 1, 0], m[:, 1, 1], m[:, 1, 2]
    g, h, i = m[:, 2, 0], m[:, 2, 1], m[:, 2, 2]
    out = np.empty_like(m)
    out[:, 0, 0] = e * i - f * h
    out[:, 0, 1] = c * h - b * i
    out[:, 0, 2] = b * f - c * e
    out[:, 1, 0] = f * g - d * i
    out[:, 1, 1] = a * i - c * g
    out[:, 1, 2] = c * d - a * f
    out[:, 2, 0] = d * h - e * g
    out[:, 2, 1] = b * g - a * h
    out[:, 2, 2] = a * e - b * d
    det = a * out[:, 0, 0] + b * out[:, 1, 0] + c * out[:, 2, 0]
    out /= det[:, None, None]
    return out


@dataclass
class MatchTerms:
    """Correspondences and fixed weights of one frame/map pair at one pose."""

    rows: np.ndarray  # (n,) voxel row per source point, -1 on a miss
    hit: np.ndarray  # (n,) bool, per source point
    moved: np.ndarray  # (n, 3) transformed source means
    d: np.ndarray  # (m, 3) residuals of the matched subset
    weight: np.ndarray  # (m, 3, 3) inverse combined covariances
    wd: np.ndarray  # (m, 3) weight @ d
    cost: float
    inliers: int


def match_terms(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose,
                rows: np.ndarray | None = None) -> MatchTerms:
    """Residuals and weights of frame against the map at relative pose t_ij.

    Each source point is matched to the voxel that contains it, unless
    ``rows`` fixes the voxel row of every source point (-1 for none).
    """
    rmat = t_ij.rotation.matrix()
    moved = frame.points @ rmat.T + t_ij.translation
    if rows is None:
        rows = vmap.lookup(moved)
    hit = rows >= 0
    idx = rows[hit]
    d = vmap.means[idx] - moved[hit]
    # R C R^T from two products over the stacked 3-row blocks: C R^T, then,
    # C being symmetric, (C R^T)^T R^T
    c_rt = (frame.covs[hit].reshape(-1, 3) @ rmat.T).reshape(-1, 3, 3)
    r_c_rt = c_rt.transpose(0, 2, 1).reshape(-1, 3) @ rmat.T
    cov = vmap.covs[idx] + r_c_rt.reshape(-1, 3, 3)
    weight = _inv3x3(cov)
    wd = np.einsum("nij,nj->ni", weight, d)
    cost = float(np.sum(d * wd))
    return MatchTerms(rows, hit, moved, d, weight, wd, cost,
                      int(np.count_nonzero(hit)))


def matching_cost(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose):
    """Total matching error and inlier count of frame against the map."""
    if len(frame) == 0 or len(vmap) == 0 or frame.covs is None:
        return 0.0, 0
    terms = match_terms(frame, vmap, t_ij)
    return terms.cost, terms.inliers


def overlap_rate(frame: Frame, vmap: GaussianVoxelMap, t_ij: Se3Pose) -> float:
    """Fraction of frame points landing in occupied voxels of the map."""
    if len(frame) == 0 or len(vmap) == 0:
        return 0.0
    moved = frame.points @ t_ij.rotation.matrix().T + t_ij.translation
    return float(np.count_nonzero(vmap.lookup(moved) >= 0)) / len(frame)


@dataclass(frozen=True)
class MatchingCostLinearization:
    """Gauss-Newton blocks of the matching cost at a linearization point.

    h_* and b_* are the Hessian blocks and gradient of the summed error with
    respect to (source, target) pose perturbations; b_j/h_jj/h_ij are None
    in unary mode.
    """

    h_ii: np.ndarray
    h_ij: np.ndarray | None
    h_jj: np.ndarray | None
    b_i: np.ndarray
    b_j: np.ndarray | None
    cost: float
    inlier_count: int


def linearize_from_terms(terms: MatchTerms, t_ij: Se3Pose,
                         target_fixed: bool = False,
                         min_inliers: int = MIN_INLIERS_DEFAULT
                         ) -> MatchingCostLinearization:
    """Gauss-Newton blocks from precomputed correspondences and weights.

    One Jacobian per inlier, J = [ -hat(x0) | I ], the derivative of its
    residual with respect to the target pose, with x0 the moved point in
    the target frame; H = 2 sum J^T W J and b = 2 sum J^T W d, formed once,
    are the target pose's blocks.  A source perturbation xi_i moves the
    points as the target perturbation -Ad(t_ij) xi_i does, so the source and
    cross blocks follow from the 6x6 adjoint Ad without a second pass over
    the points: H_ii = Ad^T H Ad, H_ij = -Ad^T H, b_i = -Ad^T b.
    """
    if terms.inliers < min_inliers:
        raise DegenerateConstraint(
            f"{terms.inliers} inliers (minimum {min_inliers})")
    x0 = terms.moved[terms.hit]
    jac = np.zeros((terms.inliers, 3, 6))
    jac[:, 0, 1], jac[:, 0, 2] = x0[:, 2], -x0[:, 1]
    jac[:, 1, 0], jac[:, 1, 2] = -x0[:, 2], x0[:, 0]
    jac[:, 2, 0], jac[:, 2, 1] = x0[:, 1], -x0[:, 0]
    jac[:, 0, 3] = jac[:, 1, 4] = jac[:, 2, 5] = 1.0
    rows = jac.reshape(-1, 6)  # the three rows of every inlier, stacked
    h = 2.0 * (rows.T @ (terms.weight @ jac).reshape(-1, 6))
    b = 2.0 * (rows.T @ terms.wd.reshape(-1))

    rmat = t_ij.rotation.matrix()
    adj = np.zeros((6, 6))
    adj[:3, :3] = adj[3:, 3:] = rmat
    adj[3:, :3] = so3_hat(t_ij.translation) @ rmat
    adj_t_h = adj.T @ h
    if target_fixed:
        return MatchingCostLinearization(adj_t_h @ adj, None, None,
                                         -(adj.T @ b), None,
                                         terms.cost, terms.inliers)
    return MatchingCostLinearization(adj_t_h @ adj, -adj_t_h, h, -(adj.T @ b),
                                     b, terms.cost, terms.inliers)


def linearize_matching_cost(frame_i: Frame, map_j: GaussianVoxelMap,
                            t_i: Se3Pose, t_j: Se3Pose,
                            target_fixed: bool = False,
                            min_inliers: int = MIN_INLIERS_DEFAULT
                            ) -> MatchingCostLinearization:
    """Linearize the matching cost of frame_i against map_j.

    Correspondences are looked up at the supplied poses and the per-point
    weights held fixed, giving the standard Gauss-Newton model of the cost.
    Raises DegenerateConstraint when fewer than min_inliers points match.
    """
    t_ij = pose_compose(pose_inverse(t_j), t_i)
    if len(frame_i) == 0 or len(map_j) == 0 or frame_i.covs is None:
        raise DegenerateConstraint("no points to match")
    terms = match_terms(frame_i, map_j, t_ij)
    return linearize_from_terms(terms, t_ij, target_fixed, min_inliers)
