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
within the iteration.  ``match_terms`` can also evaluate the cost with
correspondences fixed from an earlier lookup, which keeps the cost smooth
between two linearizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstraint
from .geometry import Gaussian3, Se3Pose, pose_compose, pose_inverse
from .preprocess import Frame, pack_voxel_keys

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
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    m = uniq.shape[0]
    means = np.zeros((m, 3))
    np.add.at(means, inverse, frame.points)
    means /= counts[:, None]
    centered = frame.points - means[inverse]
    scatter = frame.covs + np.einsum("ni,nj->nij", centered, centered)
    covs = np.zeros((m, 3, 3))
    np.add.at(covs, inverse, scatter)
    covs /= counts[:, None, None]
    return GaussianVoxelMap(resolution, uniq, means, covs, counts.astype(np.int64))


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
    cov = vmap.covs[idx] + rmat @ (frame.covs[hit] @ rmat.T)
    weight = _inv3x3(cov)
    wd = (weight @ d[:, :, None])[:, :, 0]
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


def skew_batch(points: np.ndarray) -> np.ndarray:
    """(n, 3, 3) cross-product matrices of (n, 3) vectors."""
    n = points.shape[0]
    out = np.zeros((n, 3, 3))
    out[:, 0, 1] = -points[:, 2]
    out[:, 0, 2] = points[:, 1]
    out[:, 1, 0] = points[:, 2]
    out[:, 1, 2] = -points[:, 0]
    out[:, 2, 0] = -points[:, 1]
    out[:, 2, 1] = points[:, 0]
    return out


def linearize_from_terms(frame_i: Frame, terms: MatchTerms, t_ij: Se3Pose,
                         target_fixed: bool = False,
                         min_inliers: int = MIN_INLIERS_DEFAULT,
                         source_hats: np.ndarray | None = None
                         ) -> MatchingCostLinearization:
    """Gauss-Newton blocks from precomputed correspondences and weights."""
    if terms.inliers < min_inliers:
        raise DegenerateConstraint(
            f"{terms.inliers} inliers (minimum {min_inliers})")
    hit, weight, wd = terms.hit, terms.weight, terms.wd
    n_in = terms.inliers
    rmat = t_ij.rotation.matrix()
    if source_hats is None:
        source_hats = skew_batch(frame_i.points)
    x0 = terms.moved[hit]

    # source perturbation: d(residual)/dxi_i = R_ij [ hat(mu) | -I ]
    j_i = np.empty((n_in, 3, 6))
    j_i[:, :, :3] = rmat @ source_hats[hit]
    j_i[:, :, 3:] = -rmat

    jt_i = j_i.transpose(0, 2, 1)
    jtw_i = jt_i @ weight
    h_ii = 2.0 * np.sum(jtw_i @ j_i, axis=0)
    b_i = 2.0 * np.sum(jt_i @ wd[:, :, None], axis=0)[:, 0]

    if target_fixed:
        return MatchingCostLinearization(h_ii, None, None, b_i, None,
                                         terms.cost, n_in)

    # target perturbation: d(residual)/dxi_j = [ -hat(x0) | I ]
    j_j = np.empty((n_in, 3, 6))
    j_j[:, :, :3] = -skew_batch(x0)
    j_j[:, :, 3:] = np.eye(3)

    jt_j = j_j.transpose(0, 2, 1)
    jtw_j = jt_j @ weight
    h_jj = 2.0 * np.sum(jtw_j @ j_j, axis=0)
    h_ij = 2.0 * np.sum(jtw_i @ j_j, axis=0)
    b_j = 2.0 * np.sum(jt_j @ wd[:, :, None], axis=0)[:, 0]
    return MatchingCostLinearization(h_ii, h_ij, h_jj, b_i, b_j,
                                     terms.cost, n_in)


def linearize_matching_cost(frame_i: Frame, map_j: GaussianVoxelMap,
                            t_i: Se3Pose, t_j: Se3Pose,
                            target_fixed: bool = False,
                            min_inliers: int = MIN_INLIERS_DEFAULT,
                            source_hats: np.ndarray | None = None
                            ) -> MatchingCostLinearization:
    """Linearize the matching cost of frame_i against map_j.

    Correspondences are looked up at the supplied poses and the per-point
    weights held fixed, giving the standard Gauss-Newton model of the cost.
    Raises DegenerateConstraint when fewer than min_inliers points match.
    source_hats can carry precomputed skew matrices of the source points.
    """
    t_ij = pose_compose(pose_inverse(t_j), t_i)
    if len(frame_i) == 0 or len(map_j) == 0 or frame_i.covs is None:
        raise DegenerateConstraint("no points to match")
    terms = match_terms(frame_i, map_j, t_ij)
    return linearize_from_terms(frame_i, terms, t_ij, target_fixed,
                                min_inliers, source_hats)
