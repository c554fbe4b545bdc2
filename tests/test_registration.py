from dataclasses import dataclass
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from limapper import factor_graph, registration
from limapper.errors import VoxelKeyOutOfRange
from limapper.factor_graph import (
    RELOOK_FRACTION,
    FactorLinearization,
    MatchingBlock,
    MatchingCostFactor,
)
from limapper.geometry import (
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    pose_retract,
    so3_exp,
    so3_hat,
)
from limapper.config import PipelineConfig
from limapper.imu import stack
from limapper.odometry import KNN
from limapper.preprocess import (
    estimate_covariances,
    knn_search,
    pack_voxel_keys,
    voxel_downsample,
)
from limapper.registration import (
    _JAC_MAP,
    _JAC_OFFSET,
    _Q_INDEX,
    FrozenTerms,
    GaussianVoxelMap,
    build_voxelmap,
    frozen_cost,
    linearize_from_terms,
    match_terms,
    overlap_rate,
)

from test_geometry import identity_pose, pose_apply, rotation_angle
from test_preprocess import covs_of, frame_of


def make_frame(points, covs=None, rng=None, iso=0.01):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if covs is None:
        covs = np.tile(np.eye(3) * iso, (len(points), 1, 1))
    return frame_of(points, end=0.0, covs=covs)


def at_pose(pose):
    """A state at the pose, at rest and without bias."""
    return SensorState(pose, np.zeros(3), np.zeros(3), np.zeros(3), 0.0)


def linearize_matching(block, values) -> FactorLinearization:
    """The first row of a matching block linearized by the block's stacked
    pass: the block over the pose part of each key, zero when the row holds
    no terms, and the cost."""
    grad, hess, costs = block.linearize(values)
    n = 6 * len(block.factors[0].keys)
    return FactorLinearization(grad[0, :n], hess[0, :n, :n], costs[0])


def matching_factor_cost(block, values) -> float:
    """The cost of a matching block's first row by the block's stacked pass."""
    return block.costs(values)[0]


def held_terms(block, f):
    """The terms that a block holds in the row of the factor, as a record of
    its own; None when the row holds none."""
    n = block.factors.index(f)
    return FrozenTerms(*(field[n] for field in block.terms)) if block.held[n] else None


def terms_bytes(block, n=0) -> bytes:
    """The bytes of row n of a block's stacked terms."""
    return b"".join(np.asarray(field[n]).tobytes() for field in block.terms)


def symmetric(entries):
    """3x3 matrix from its unique entries (xx, xy, xz, yy, yz, zz)."""
    xx, xy, xz, yy, yz, zz = entries
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


@dataclass(frozen=True)
class Gaussian3:
    """3D Gaussian (mean, covariance) describing a point or a voxel."""

    mean: np.ndarray
    cov: np.ndarray


def d2d_error(point: Gaussian3, voxel: Gaussian3, t_ij: Se3Pose):
    """Distribution-to-distribution error of one point/voxel pair: the
    per-pair oracle of the matching kernels.

    Returns (error, residual, weight) with residual = voxel mean minus the
    transformed point mean and weight the inverse combined covariance.
    """
    rmat = t_ij.rotation.matrix()
    d = voxel.mean - (rmat @ point.mean + t_ij.translation)
    weight = np.linalg.inv(voxel.cov + rmat @ point.cov @ rmat.T)
    return float(d @ weight @ d), d, weight


_FULL = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def cell_means(vmap):
    """(M, 3) cell means, a view of the map's mean rows."""
    return vmap.mean_rows.T


def cell_covs(vmap):
    """(M, 3, 3) cell covariances, assembled from the map's six rows of
    unique entries (xx, xy, xz, yy, yz, zz)."""
    return vmap.cov_rows[_FULL].transpose(2, 0, 1)


def rows_of(vmap, points):
    """Voxel row of each (n, 3) point in the map, -1 on a miss: a look-up
    of the points where they are."""
    return vmap.look_up(np.ascontiguousarray(points.T), np.eye(3), np.zeros(3))[1]


def cell(vmap, frame, index3):
    """(mean, cov, count) of the map's voxel at an integer 3-index, built
    from the frame; the count is of the frame's points in the voxel."""
    center = (np.asarray(index3, dtype=float) + 0.5) * vmap.resolution
    row = int(rows_of(vmap, center.reshape(1, 3))[0])
    assert row >= 0, f"voxel {tuple(index3)} is empty"
    count = np.count_nonzero(pack_voxel_keys(frame.points, vmap.resolution)
                             == vmap.keys[row])
    return cell_means(vmap)[row], cell_covs(vmap)[row], int(count)


def voxel_indices(vmap):
    """Integer 3-indices of the map's voxels, unpacked from their keys."""
    off, mask = 1 << 20, (1 << 21) - 1
    return np.column_stack([(vmap.keys >> 42) - off,
                            ((vmap.keys >> 21) & mask) - off,
                            (vmap.keys & mask) - off])


def terms_at(frame, vmap, t_ij, rows=None):
    """``match_terms`` of frame against the map at relative pose t_ij, on
    the rows that a look-up finds there unless ``rows`` fixes them."""
    rot, trans = t_ij.rotation.matrix(), t_ij.translation
    if rows is None:
        rows = vmap.look_up(frame.point_rows, rot, trans)[1]
    return match_terms(frame, vmap, rot, trans, rows)


def matching_cost(frame, vmap, t_ij):
    """(cost, inliers) of frame against the map at relative pose t_ij."""
    terms = terms_at(frame, vmap, t_ij)
    return terms.cost, terms.inliers


def linearize_held(held, t_ij, target_fixed=False):
    """(g, h, cost) of one held quadratic at t_ij: the stacked kernel with
    K=1, the source pose's blocks only when the target is fixed."""
    g, h, cost = linearize_from_terms(stack([held]), t_ij.rotation.matrix()[None],
                                      t_ij.translation[None])
    n = 6 if target_fixed else 12
    return g[0, :n], h[0, :n, :n], float(cost[0])


def linearize_pair(frame, vmap, t_i, t_j, target_fixed=False):
    """(g, h, terms) of the matching cost of frame against the map at the
    poses (t_i, t_j), correspondences looked up there."""
    t_ij = pose_compose(pose_inverse(t_j), t_i)
    terms = terms_at(frame, vmap, t_ij)
    return *linearize_held(terms, t_ij, target_fixed)[:2], terms


def per_point_quadratic(moved, weights, residuals):
    """(s, q) of a held quadratic summed point by point: s = sum (W d) f^T
    and q = sum W (x) f f^T, with f = (1, x, y, z) of each moved point."""
    s, q = np.zeros((3, 4)), np.zeros((12, 12))
    for x0, w, d in zip(moved, weights, residuals):
        f = np.concatenate([[1.0], x0])
        s += np.outer(w @ d, f)
        q += np.kron(w, np.outer(f, f))
    return s.reshape(12), q


def blocks(g, h):
    """Named blocks of a linearization: source pose i, and target pose j
    when the factor is binary."""
    out = {"b_i": g[:6], "h_ii": h[:6, :6]}
    if g.shape[0] == 12:
        out.update(b_j=g[6:], h_ij=h[:6, 6:], h_jj=h[6:, 6:])
    return out


def random_plane_cov(rng, normal):
    normal = np.asarray(normal, float)
    normal /= np.linalg.norm(normal)
    basis = np.linalg.svd(np.outer(normal, normal))[0]
    vals = np.array([1e-3, 1.0, 1.0])
    return basis @ np.diag(vals) @ basis.T


class TestBuildVoxelmap:
    def test_single_point_cells(self):
        cov = np.diag([0.1, 0.2, 0.3])
        frame = make_frame([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]],
                           covs=[cov, cov])
        vmap = build_voxelmap(frame, 1.0)
        assert len(vmap) == 2
        mean, c, count = cell(vmap, frame, [0, 0, 0])
        assert np.allclose(mean, [0.5, 0.5, 0.5])
        assert np.allclose(c, cov)
        assert count == 1

    def test_two_point_aggregation(self):
        cov = np.eye(3) * 0.05
        frame = make_frame([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], covs=[cov, cov])
        vmap = build_voxelmap(frame, 1.0)
        mean, c, count = cell(vmap, frame, [0, 0, 0])
        assert count == 2
        assert np.allclose(mean, [0.05, 0.0, 0.0])
        expected = cov + 0.0025 * np.diag([1.0, 0.0, 0.0])
        assert np.allclose(c, expected, atol=1e-12)

    def test_grid_equivariance_under_cell_shift(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.95, (50, 3))
        frame = make_frame(pts)
        moved = make_frame(pts + np.array([1.0, 0.0, 0.0]))
        a = build_voxelmap(frame, 1.0)
        b = build_voxelmap(moved, 1.0)
        assert len(a) == len(b)
        ia = np.lexsort(a.mean_rows)
        ib = np.lexsort(b.mean_rows)
        assert np.allclose(cell_means(a)[ia] + [1, 0, 0], cell_means(b)[ib], atol=1e-12)
        assert np.allclose(cell_covs(a)[ia], cell_covs(b)[ib], atol=1e-12)

    def test_cell_mean_inside_voxel_bounds(self):
        rng = np.random.default_rng(1)
        frame = make_frame(rng.uniform(-3, 3, (200, 3)))
        vmap = build_voxelmap(frame, 0.5)
        lows = voxel_indices(vmap) * 0.5
        assert np.all(cell_means(vmap) >= lows - 1e-12)
        assert np.all(cell_means(vmap) <= lows + 0.5 + 1e-12)

    def test_empty_frame(self):
        vmap = build_voxelmap(make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3))), 1.0)
        assert len(vmap) == 0


class TestD2dError:
    def test_zero_at_coincident_means(self):
        g = Gaussian3(np.array([1.0, 2.0, 3.0]), np.eye(3))
        err, d, _ = d2d_error(g, g, identity_pose())
        assert err == pytest.approx(0.0)
        assert np.allclose(d, 0.0)

    def test_hand_example(self):
        p = Gaussian3(np.array([1.0, 0.0, 0.0]), np.eye(3))
        v = Gaussian3(np.array([1.1, 0.0, 0.0]), np.eye(3))
        err, d, w = d2d_error(p, v, identity_pose())
        assert np.allclose(d, [0.1, 0.0, 0.0])
        assert np.allclose(w, 0.5 * np.eye(3))
        assert err == pytest.approx(0.005)

    def test_rigid_conjugation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = Gaussian3(rng.normal(size=3), random_plane_cov(rng, rng.normal(size=3)))
            v = Gaussian3(rng.normal(size=3), random_plane_cov(rng, rng.normal(size=3)))
            t_ij = Se3Pose(so3_exp(rng.uniform(-1, 1, 3)), rng.normal(size=3))
            err0, _, _ = d2d_error(p, v, t_ij)
            g = Se3Pose(so3_exp(rng.uniform(-1, 1, 3)), rng.normal(size=3))
            gm = g.rotation.matrix()
            p2 = Gaussian3(pose_apply(g, p.mean), gm @ p.cov @ gm.T)
            v2 = Gaussian3(pose_apply(g, v.mean), gm @ v.cov @ gm.T)
            t2 = pose_compose(g, pose_compose(t_ij, pose_inverse(g)))
            err1, _, _ = d2d_error(p2, v2, t2)
            assert err1 == pytest.approx(err0, rel=1e-9)


def reference_build_voxelmap(frame, resolution):
    """np.unique plus np.add.at: the cells, and the sums over each cell in
    point order, that ``build_voxelmap`` must match bit for bit."""
    keys = pack_voxel_keys(frame.points, resolution)
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    means = np.zeros((uniq.size, 3))
    np.add.at(means, inverse, frame.points)
    means /= counts[:, None]
    centered = frame.points - means[inverse]
    scatter = covs_of(frame) + np.einsum("ni,nj->nij", centered, centered)
    covs = np.zeros((uniq.size, 3, 3))
    np.add.at(covs, inverse, scatter)
    covs /= counts[:, None, None]
    return uniq, means, covs, counts


class TestBuildVoxelmapOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("resolution", [0.3, 1.0])
    def test_equals_add_at_bit_for_bit(self, seed, resolution):
        # clustered points, so occupancies run from 1 to several dozen
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3, 3, (40, 3))
        points = (centers[rng.integers(0, 40, 1500)]
                  + rng.normal(scale=0.1, size=(1500, 3)))
        covs = [random_plane_cov(rng, rng.normal(size=3)) for _ in range(1500)]
        frame = make_frame(points, covs=covs)
        counts = assert_voxelmap_equals_oracle(frame, resolution)
        assert counts.max() >= 8

    @pytest.mark.parametrize("name", ["loop", "dense"])
    @pytest.mark.parametrize("resolution", [0.5, 2.0])
    def test_scene_frames(self, scene_scans, name, resolution):
        # a scan prepared as the odometry prepares it: real plane
        # covariances, and the occupancies of real surfaces
        frame = voxel_downsample(scene_scans[name],
                                 PipelineConfig().preprocess.downsample_resolution)
        frame = estimate_covariances(frame, knn_search(frame, KNN))
        counts = assert_voxelmap_equals_oracle(frame, resolution)
        assert counts.max() >= 4  # cells where the order of the sum tells


def assert_voxelmap_equals_oracle(frame, resolution):
    """Compare ``build_voxelmap`` with the oracle bit for bit; the oracle's
    cell occupancies."""
    vmap = build_voxelmap(frame, resolution)
    keys, means, cell_covs, counts = reference_build_voxelmap(frame, resolution)
    # the map keeps the six unique covariance entries (xx, xy, xz, yy, yz,
    # zz), the ones on and above the diagonal
    upper = np.triu_indices(3)
    for got, want in ((vmap.keys, keys), (vmap.mean_rows.T, means),
                      (vmap.cov_rows.T, cell_covs[:, upper[0], upper[1]])):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return counts


class TestMatchingCost:
    def test_self_match(self):
        rng = np.random.default_rng(3)
        frame = make_frame(rng.uniform(-2, 2, (100, 3)))
        vmap = build_voxelmap(frame, 0.5)
        cost, inliers = matching_cost(frame, vmap, identity_pose())
        assert inliers == 100
        assert cost < 100 * 3  # bounded; aggregates absorb the scatter

    def test_disjoint_clouds(self):
        a = make_frame([[0, 0, 0], [0.1, 0, 0]])
        b = make_frame([[100, 100, 100], [100.1, 100, 100]])
        vmap = build_voxelmap(b, 0.5)
        cost, inliers = matching_cost(a, vmap, identity_pose())
        assert (cost, inliers) == (0.0, 0)

    def test_single_pair_equals_d2d(self):
        cov = np.eye(3) * 0.05
        target = make_frame([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], covs=[cov, cov])
        vmap = build_voxelmap(target, 1.0)
        source = make_frame([[0.2, 0.1, 0.0]], covs=[cov])
        cost, inliers = matching_cost(source, vmap, identity_pose())
        assert inliers == 1
        mean, c, _ = cell(vmap, target, [0, 0, 0])
        expected, _, _ = d2d_error(Gaussian3(source.points[0], cov),
                                   Gaussian3(mean, c), identity_pose())
        assert cost == pytest.approx(expected)

    def test_sum_matches_per_point_terms(self):
        rng = np.random.default_rng(4)
        target = make_frame(rng.uniform(-2, 2, (60, 3)))
        vmap = build_voxelmap(target, 0.5)
        source = make_frame(rng.uniform(-2, 2, (40, 3)))
        t_ij = Se3Pose(so3_exp([0.0, 0.0, 0.05]), np.array([0.1, 0.0, 0.0]))
        cost, inliers = matching_cost(source, vmap, t_ij)
        total = 0.0
        count = 0
        rows = rows_of(vmap, pose_apply(t_ij, source.points))
        means, covs = cell_means(vmap), cell_covs(vmap)
        for i, row in enumerate(rows):
            if row < 0:
                continue
            err, _, _ = d2d_error(Gaussian3(source.points[i], covs_of(source)[i]),
                                  Gaussian3(means[row], covs[row]), t_ij)
            total += err
            count += 1
        assert inliers == count
        assert cost == pytest.approx(total, rel=1e-12)


    @pytest.mark.parametrize("fixed_rows", [False, True])
    def test_plane_covariances_match_per_point_terms(self, fixed_rows):
        # anisotropic covariances and a rotation about a generic axis: a
        # transposed R C R^T would change every weight
        rng = np.random.default_rng(8)
        target = make_frame(rng.uniform(-2, 2, (300, 3)), covs=[
            random_plane_cov(rng, rng.normal(size=3)) for _ in range(300)])
        source = make_frame(rng.uniform(-2, 2, (200, 3)), covs=[
            random_plane_cov(rng, rng.normal(size=3)) for _ in range(200)])
        vmap = build_voxelmap(target, 0.5)
        t_ij = Se3Pose(so3_exp([0.3, -0.2, 0.25]), np.array([0.1, -0.05, 0.07]))
        rows = rows_of(vmap, pose_apply(t_ij, source.points))
        if fixed_rows:
            # hold the rows found at t_ij and evaluate at a second pose
            t_ij = Se3Pose(so3_exp([0.32, -0.17, 0.2]), np.array([0.13, -0.02, 0.05]))
            assert not np.array_equal(rows, rows_of(vmap, pose_apply(t_ij, source.points)))
            terms = terms_at(source, vmap, t_ij, rows)
        else:
            terms = terms_at(source, vmap, t_ij)
        hits = np.flatnonzero(rows >= 0)
        assert terms.inliers == hits.size > 50
        means, covs = cell_means(vmap), cell_covs(vmap)
        total, moved, weights, residuals = 0.0, [], [], []
        for i in hits:
            err, d, weight = d2d_error(
                Gaussian3(source.points[i], covs_of(source)[i]),
                Gaussian3(means[rows[i]], covs[rows[i]]), t_ij)
            moved.append(pose_apply(t_ij, source.points[i]))
            weights.append(weight)
            residuals.append(d)
            total += err
        s, q = per_point_quadratic(moved, weights, residuals)
        assert np.abs(terms.s - s).max() <= 1e-12 * np.abs(s).max()
        assert np.abs(terms.q - q).max() <= 1e-12 * np.abs(q).max()
        assert terms.cost == pytest.approx(total, rel=1e-12)


class TestOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(5)
        frame = make_frame(rng.uniform(-2, 2, (50, 3)))
        vmap = build_voxelmap(frame, 0.5)
        assert overlap_rate(frame, vmap, identity_pose()) == 1.0

    def test_disjoint_overlap_zero(self):
        a = make_frame([[0, 0, 0]])
        b = make_frame([[50, 0, 0]])
        assert overlap_rate(a, build_voxelmap(b, 0.5), identity_pose()) == 0.0

    def test_counting_construction(self):
        target = make_frame([[float(i) + 0.5, 0.5, 0.5] for i in range(4)])
        vmap = build_voxelmap(target, 1.0)
        pts = [[float(i) + 0.5, 0.5, 0.5] for i in range(4)] + \
              [[float(i) + 0.5, 10.5, 0.5] for i in range(6)]
        source = make_frame(pts)
        assert overlap_rate(source, vmap, identity_pose()) == pytest.approx(0.4)

    def test_monotone_under_map_union(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3, 3, (100, 3))
        small = make_frame(pts[:40])
        big = make_frame(pts)
        query = make_frame(rng.uniform(-3, 3, (80, 3)))
        r_small = overlap_rate(query, build_voxelmap(small, 0.5), identity_pose())
        r_big = overlap_rate(query, build_voxelmap(big, 0.5), identity_pose())
        assert r_big >= r_small

    def test_empty_frame_zero(self):
        empty = make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3)))
        target = make_frame([[0, 0, 0]])
        assert overlap_rate(empty, build_voxelmap(target, 0.5), identity_pose()) == 0.0


    def test_empty_map_zero(self):
        source = make_frame([[0.1, 0.2, 0.3]])
        empty = build_voxelmap(make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3))), 0.5)
        assert overlap_rate(source, empty, identity_pose()) == 0.0

    @pytest.mark.parametrize("offset, counts", [
        ([1, 0, 0], True), ([0, -1, 0], True), ([0, 0, 1], True),
        ([1, 1, 0], False), ([1, -1, 1], False), ([2, 0, 0], False),
        ([0, 0, -2], False)])
    def test_a_face_neighbour_counts_and_no_other_cell(self, offset, counts):
        vmap = build_voxelmap(make_frame([[0.5, 0.5, 0.5]]), 1.0)
        source = make_frame([np.add([0.5, 0.5, 0.5], offset)])
        assert overlap_rate(source, vmap, identity_pose()) == float(counts)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_no_alias_across_the_key_range_edge(self, axis):
        # a cell at the top of the range on an axis would, one step up, carry
        # into the previous axis: (.., y, top) + 1 on z packs as (.., y + 1,
        # bottom); likewise one step down from the bottom borrows
        top, bottom = 2**20 - 0.5, -2**20 + 0.5
        for edge, other, step in ((top, bottom, 1), (bottom, top, -1)):
            cell = np.array([3.5, 3.5, 3.5])
            cell[axis] = edge
            alias = cell.copy()
            alias[axis] = other
            alias[axis - 1] += step
            vmap = build_voxelmap(make_frame([cell]), 1.0)
            assert overlap_rate(make_frame([alias]), vmap, identity_pose()) == 0.0
            inside = cell.copy()
            inside[axis] -= step
            assert overlap_rate(make_frame([inside]), vmap, identity_pose()) == 1.0

    def test_counts_the_points_within_one_face_step_of_an_occupied_cell(self):
        rng = np.random.default_rng(8)
        target = make_frame(rng.uniform(-3, 3, (60, 3)))
        source = make_frame(rng.uniform(-3, 3, (200, 3)))
        occupied = np.floor(target.points / 0.5)
        cells = np.floor(source.points / 0.5)
        steps = np.abs(cells[:, None, :] - occupied[None]).sum(axis=2)
        expected = np.count_nonzero(steps.min(axis=1) <= 1) / 200
        vmap = build_voxelmap(target, 0.5)
        assert overlap_rate(source, vmap, identity_pose()) == expected
        assert 0.0 < expected < 1.0

    def test_near_key_table_is_formed_once_per_map_without_a_look_up(self):
        rng = np.random.default_rng(9)
        maps = [build_voxelmap(make_frame(rng.uniform(-3, 3, (80, 3))), 0.5)
                for _ in range(2)]
        source = make_frame(rng.uniform(-3, 3, (50, 3)))
        with mock.patch.object(registration, "face_neighbour_keys",
                               wraps=registration.face_neighbour_keys) as formed, \
                mock.patch.object(GaussianVoxelMap, "look_up") as look_up:
            for k in range(3):
                pose = Se3Pose(so3_exp([0.0, 0.0, 0.1 * k]), np.array([0.1 * k, 0.0, 0.0]))
                for vmap in maps:
                    overlap_rate(source, vmap, pose)
        assert formed.call_count == 2
        assert all(c.args[0] is m.keys for c, m in zip(formed.call_args_list, maps))
        assert look_up.call_count == 0


def box_room_frame(rng, n_per_wall=120, size=(6.0, 5.0, 3.0), jitter=0.0,
                   center=(0.17, 0.13, 0.11)):
    """Points on the six inner faces of an axis-aligned box, isotropic covs.

    The box is offset from the origin so its faces never coincide with voxel
    boundaries of the resolutions used in tests.
    """
    sx, sy, sz = size
    cx, cy, cz = center
    pts = []
    for _ in range(n_per_wall):
        u, v = rng.uniform(0, 1, 2)
        pts += [
            [u * sx - sx / 2, v * sy - sy / 2, -sz / 2],
            [u * sx - sx / 2, v * sy - sy / 2, sz / 2],
            [u * sx - sx / 2, -sy / 2, v * sz - sz / 2],
            [u * sx - sx / 2, sy / 2, v * sz - sz / 2],
            [-sx / 2, u * sy - sy / 2, v * sz - sz / 2],
            [sx / 2, u * sy - sy / 2, v * sz - sz / 2],
        ]
    pts = np.asarray(pts) + np.array([cx, cy, cz])
    if jitter > 0:
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
    return make_frame(pts, iso=0.01)


def box_room_frame_plane_covs(rng, **kwargs):
    """Box-room frame with neighbor-based plane-regularized covariances."""
    frame = box_room_frame(rng, **kwargs)
    return estimate_covariances(frame, knn_search(frame, 10))


class TestLinearization:
    def test_stationary_point_gradient(self):
        rng = np.random.default_rng(7)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        # self-match at identity: gradient balance at the aggregate means
        g, _, _ = linearize_pair(frame, vmap, identity_pose(), identity_pose())
        # the full 12-dim gradient of a self-consistent pair is equal and
        # opposite between the two poses
        assert np.allclose(g[3:6], -g[9:], atol=1e-8)

    def test_quadratic_expansion_oracle(self):
        # isotropic covariances make the weights pose-independent, so the
        # cost difference must match the (b, H) model to second order
        rng = np.random.default_rng(8)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        t_i = Se3Pose(so3_exp([0.01, -0.02, 0.03]), np.array([0.05, 0.02, -0.01]))
        t_j = identity_pose()
        # keep only source points whose transformed coordinates sit safely
        # inside their voxel, so tiny test perturbations cannot flip cells
        moved = pose_apply(t_i, frame.points)
        frac = moved / 0.5 - np.floor(moved / 0.5)
        safe = np.all((frac > 0.05) & (frac < 0.95), axis=1)
        frame = make_frame(frame.points[safe], covs=covs_of(frame)[safe])
        b, h, terms = linearize_pair(frame, vmap, t_i, t_j)
        for _ in range(5):
            xi = rng.normal(size=12)
            xi *= 1e-4 / np.linalg.norm(xi)
            c1, _ = matching_cost(
                frame, vmap,
                pose_compose(pose_inverse(pose_retract(t_j, xi[6:])),
                             pose_retract(t_i, xi[:6])))
            predicted = b @ xi + 0.5 * xi @ h @ xi
            actual = c1 - terms.cost
            assert actual == pytest.approx(predicted, rel=1e-3, abs=1e-12)

    def test_unary_hessian_psd(self):
        rng = np.random.default_rng(9)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        g, h, _ = linearize_pair(frame, vmap, identity_pose(),
                                 identity_pose(), target_fixed=True)
        assert g.shape == (6,) and h.shape == (6, 6)
        evals = np.linalg.eigvalsh(0.5 * (h + h.T))
        assert evals.min() >= -1e-8 * max(1.0, evals.max())

    def test_full_hessian_psd_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            frame = box_room_frame(rng, n_per_wall=40)
            vmap = build_voxelmap(frame, 0.5)
            t_i = Se3Pose(so3_exp(rng.uniform(-0.05, 0.05, 3)), rng.uniform(-0.1, 0.1, 3))
            _, h, _ = linearize_pair(frame, vmap, t_i, identity_pose())
            assert h.shape == (12, 12)
            h = 0.5 * (h + h.T)
            evals = np.linalg.eigvalsh(h)
            assert evals.min() >= -1e-8 * max(1.0, evals.max())

    def test_residual_jacobians_match_finite_differences(self):
        # per-point residual Jacobians, checked against central differences
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            pts = rng.uniform(-2, 2, (30, 3))
            target = make_frame(pts + rng.normal(scale=0.05, size=pts.shape))
            vmap = build_voxelmap(target, 1.0)
            source = make_frame(pts)
            t_i = Se3Pose(so3_exp(rng.uniform(-0.1, 0.1, 3)), rng.uniform(-0.1, 0.1, 3))
            t_j = Se3Pose(so3_exp(rng.uniform(-0.1, 0.1, 3)), rng.uniform(-0.1, 0.1, 3))

            def residuals(ti, tj):
                tij = pose_compose(pose_inverse(tj), ti)
                moved = pose_apply(tij, source.points)
                rows = rows_of(vmap, moved)
                out = []
                for p, row in zip(moved, rows):
                    if row >= 0:
                        out.append(cell_means(vmap)[row] - p)
                return np.concatenate(out) if out else np.zeros(0)

            r0 = residuals(t_i, t_j)
            if r0.size == 0:
                continue
            # analytic per-point Jacobians recomputed the same way the
            # linearization builds them
            tij = pose_compose(pose_inverse(t_j), t_i)
            rmat = tij.rotation.matrix()
            moved = pose_apply(tij, source.points)
            rows = rows_of(vmap, moved)
            sel = rows >= 0
            mu = source.points[sel]
            x0 = moved[sel]
            n = mu.shape[0]
            j_i = np.zeros((3 * n, 6))
            j_j = np.zeros((3 * n, 6))
            for m in range(n):
                hat_mu = np.array([[0, -mu[m, 2], mu[m, 1]],
                                   [mu[m, 2], 0, -mu[m, 0]],
                                   [-mu[m, 1], mu[m, 0], 0]])
                hat_x = np.array([[0, -x0[m, 2], x0[m, 1]],
                                  [x0[m, 2], 0, -x0[m, 0]],
                                  [-x0[m, 1], x0[m, 0], 0]])
                j_i[3 * m:3 * m + 3, :3] = rmat @ hat_mu
                j_i[3 * m:3 * m + 3, 3:] = -rmat
                j_j[3 * m:3 * m + 3, :3] = -hat_x
                j_j[3 * m:3 * m + 3, 3:] = np.eye(3)
            h = 1e-6
            for jac, which in ((j_i, "i"), (j_j, "j")):
                fd = np.zeros_like(jac)
                for c in range(6):
                    xi = np.zeros(6)
                    xi[c] = h
                    if which == "i":
                        rp = residuals(pose_retract(t_i, xi), t_j)
                        rm = residuals(pose_retract(t_i, -xi), t_j)
                    else:
                        rp = residuals(t_i, pose_retract(t_j, xi))
                        rm = residuals(t_i, pose_retract(t_j, -xi))
                    if rp.size != r0.size or rm.size != r0.size:
                        break  # correspondence flip; skip this draw
                    fd[:, c] = (rp - rm) / (2 * h)
                else:
                    scale = max(1.0, np.max(np.abs(fd)))
                    worst = max(worst, np.max(np.abs(fd - jac)) / scale)
        assert worst < 1e-5

    def test_blocks_match_per_point_sums_of_both_jacobians(self):
        # oracle: the per-point source Jacobian R [ hat(mu) | -I ] and target
        # Jacobian [ -hat(x0) | I ], summed point by point; the blocks under
        # test come from the target Jacobian and the adjoint
        rng = np.random.default_rng(12)
        frame = box_room_frame_plane_covs(rng, n_per_wall=20)
        vmap = build_voxelmap(frame, 0.5)
        means, covs = cell_means(vmap), cell_covs(vmap)
        pairs = 0
        while pairs < 10:
            t_i = Se3Pose(so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-1, 1, 3))
            t_j = Se3Pose(so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-1, 1, 3))
            t_ij = pose_compose(pose_inverse(t_j), t_i)
            rmat = t_ij.rotation.matrix()
            moved = pose_apply(t_ij, frame.points)
            want = {k: 0.0 for k in ("h_ii", "h_ij", "h_jj", "b_i", "b_j")}
            for mu, cov, x0, row in zip(frame.points, covs_of(frame), moved,
                                        rows_of(vmap, moved)):
                if row < 0:
                    continue
                _, d, w = d2d_error(Gaussian3(mu, cov),
                                    Gaussian3(means[row], covs[row]),
                                    t_ij)
                j_i = np.hstack([rmat @ so3_hat(mu), -rmat])
                j_j = np.hstack([-so3_hat(x0), np.eye(3)])
                want["h_ii"] += 2 * j_i.T @ w @ j_i
                want["h_ij"] += 2 * j_i.T @ w @ j_j
                want["h_jj"] += 2 * j_j.T @ w @ j_j
                want["b_i"] += 2 * j_i.T @ w @ d
                want["b_j"] += 2 * j_j.T @ w @ d
            *binary, terms = linearize_pair(frame, vmap, t_i, t_j)
            if terms.inliers < 10:  # the factors' default minimum
                continue
            binary = blocks(*binary)
            unary = blocks(*linearize_pair(frame, vmap, t_i, t_j,
                                           target_fixed=True)[:2])
            assert set(unary) == {"h_ii", "b_i"}
            pairs += 1
            for name, value in want.items():
                scale = np.max(np.abs(value))
                got = binary[name]
                assert np.max(np.abs(got - value)) <= 1e-12 * scale, name
                if name in unary:
                    got = unary[name]
                    assert np.max(np.abs(got - value)) <= 1e-12 * scale, name


# -- properties --------------------------------------------------------------

angles = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
offsets = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3)
seeds = st.integers(0, 2**32 - 1)
cov_kinds = st.sampled_from(["isotropic", "diagonal", "spd"])


def random_covs(rng, kind, n):
    """n covariances: isotropic, diagonal, or SPD with a random basis; the
    eigenvalues span up to four decades."""
    scales = 10.0 ** rng.uniform(-4.0, 0.0, (n, 3))
    if kind == "isotropic":
        return scales[:, :1, None] * np.eye(3)
    covs = scales[:, :, None] * np.eye(3)
    if kind == "spd":
        basis = np.stack([so3_exp(v).matrix() for v in rng.normal(size=(n, 3))])
        covs = basis @ covs @ basis.transpose(0, 2, 1)
    return covs


def matched_pair(seed, source_kind="spd", target_kind="spd"):
    """A target voxel map and a source frame that overlaps it."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, (150, 3))
    target = make_frame(points, covs=random_covs(rng, target_kind, 150))
    source = make_frame(points[:100] + rng.normal(scale=0.05, size=(100, 3)),
                        covs=random_covs(rng, source_kind, 100))
    return source, build_voxelmap(target, 0.5)


class TestProperties:
    @given(eigvals=st.lists(st.floats(-6.0, 3.0), min_size=3, max_size=24),
           seed=seeds)
    def test_weight_is_the_inverse(self, eigvals, seed):
        # one point per voxel and a point covariance of zero: the weight of
        # each match is the inverse of the voxel's own covariance
        rng = np.random.default_rng(seed)
        n = len(eigvals) // 3
        basis = np.stack([so3_exp(v).matrix() for v in rng.normal(size=(n, 3))])
        vals = 10.0 ** np.reshape(eigvals[:3 * n], (n, 3))
        covs = basis @ (vals[:, :, None] * np.eye(3)) @ basis.transpose(0, 2, 1)
        centers = (np.arange(n)[:, None] * [2.0, 0.0, 0.0]) + 0.5
        vmap = build_voxelmap(make_frame(centers, covs=covs), 1.0)
        source = make_frame(centers, covs=np.zeros((n, 3, 3)))
        rows = rows_of(vmap, centers)
        assert terms_at(source, vmap, identity_pose()).inliers == n
        for k in range(n):
            # the k-th match alone: its monomials f = (1, x, y, z) start
            # with 1, so the entries (4a, 4b) of Q are its weight W_ab
            alone = np.where(np.arange(n) == k, rows, -1)
            terms = match_terms(source, vmap, np.eye(3), np.zeros(3), alone)
            assert terms.inliers == 1
            want = np.linalg.inv(covs[k])
            err = np.abs(terms.q[::4, ::4] - want).max()
            cond = vals[k].max() / vals[k].min()
            assert err <= 1e-12 * cond * np.abs(want).max()

    @given(seed=seeds, rot=angles, trans=offsets, rot_ij=angles)
    # the weights of a combined covariance with a condition number of about
    # 1700, whose rounding in the other frame reached 1.4e-12 of the largest
    @example(seed=22, rot=[0.0, 1.4375, 1.0], trans=[0.0, 0.0, 0.0],
             rot_ij=[0.0, 0.0, 0.0])
    def test_rigid_change_of_source_frame(self, seed, rot, trans, rot_ij):
        # expressing the source cloud in another frame T, and the relative
        # pose as t_ij T^-1, changes none of the matching terms nor the
        # target pose's blocks; each weight is the inverse of a combined
        # covariance, so its rounding scales with their condition number, as
        # in test_weight_is_the_inverse
        source, vmap = matched_pair(seed)
        t_ij = Se3Pose(so3_exp(0.05 * np.asarray(rot_ij)), np.array([0.02, -0.03, 0.01]))
        tf = Se3Pose(so3_exp(rot), np.asarray(trans))
        rmat = tf.rotation.matrix()
        moved = make_frame(pose_apply(tf, source.points),
                           covs=rmat @ covs_of(source) @ rmat.T)
        t_moved = pose_compose(t_ij, pose_inverse(tf))
        a = terms_at(source, vmap, t_ij)
        b = terms_at(moved, vmap, t_moved)
        assert a.inliers >= 10
        rows = rows_of(vmap, pose_apply(t_ij, source.points))
        assert np.array_equal(rows, rows_of(vmap, pose_apply(t_moved, moved.points)))
        # the per-point terms from the reference kernel, which equals
        # match_terms bit for bit (TestRowKernelOracle)
        ref_a = reference_match_terms(source, vmap, t_ij, rows)
        ref_b = reference_match_terms(moved, vmap, t_moved, rows)
        cond = max(np.linalg.cond(symmetric(w)) for w in ref_a.weight.T)
        for name, scale in (("d", 1.0), ("wd", 1.0), ("weight", cond)):
            x, y = getattr(ref_a, name), getattr(ref_b, name)
            assert np.abs(x - y).max() <= 1e-12 * scale * np.abs(x).max(), name
        assert b.inliers == a.inliers
        assert b.cost == pytest.approx(a.cost, rel=1e-12)
        lin_a = blocks(*linearize_held(a, t_ij)[:2])
        lin_b = blocks(*linearize_held(b, t_moved)[:2])
        for name in ("h_jj", "b_j"):
            x, y = lin_a[name], lin_b[name]
            assert np.abs(x - y).max() <= 1e-12 * np.abs(x).max(), name

    @given(seed=seeds, source_kind=cov_kinds, target_kind=cov_kinds,
           rot=angles, trans=offsets)
    def test_moment_blocks_match_per_point_sums(self, seed, source_kind,
                                                target_kind, rot, trans):
        # the blocks against sums of J^T W J and J^T W d over the inliers,
        # J = [ -hat(x0) | I ], with each inlier's own weight and residual;
        # the target frame sits up to 35 m from the points, so the moments
        # carry large offsets
        source, vmap = matched_pair(seed, source_kind, target_kind)
        t_ij = Se3Pose(so3_exp(np.asarray(rot)), np.asarray(trans))
        tf = pose_inverse(t_ij)  # re-express the source so that t_ij lands it
        rmat = tf.rotation.matrix()
        source = make_frame(pose_apply(tf, source.points),
                            covs=rmat @ covs_of(source) @ rmat.T)
        terms = terms_at(source, vmap, t_ij)
        lin = blocks(*linearize_held(terms, t_ij)[:2])
        # each inlier's weight and residual from the reference kernel, which
        # equals match_terms bit for bit (TestRowKernelOracle)
        ref = reference_match_terms(source, vmap, t_ij,
                                    rows_of(vmap, pose_apply(t_ij, source.points)))
        h, b = np.zeros((6, 6)), np.zeros(6)
        for k, x0 in enumerate(ref.moved[ref.hit]):
            w = symmetric(ref.weight[:, k])
            jac = np.hstack([-so3_hat(x0), np.eye(3)])
            h += 2 * jac.T @ w @ jac
            b += 2 * jac.T @ w @ ref.d[k]
        assert np.abs(lin["h_jj"] - h).max() <= 1e-12 * np.abs(h).max()
        assert np.abs(lin["b_j"] - b).max() <= 1e-12 * np.abs(b).max()


# -- row kernel against the (n, 3) kernel ------------------------------------

_REF_SYM_I = np.array([0, 0, 0, 1, 1, 2])
_REF_SYM_J = np.array([0, 1, 2, 1, 2, 2])
_REF_ADJ = np.array([[3, 2, 1, 0, 1, 0], [5, 4, 4, 5, 2, 3],
                     [4, 1, 2, 2, 0, 1], [4, 5, 3, 2, 4, 1]])


class PointTerms(NamedTuple):
    """Correspondences and fixed weights of one frame/map pair at one pose."""

    rows: np.ndarray  # (n,) voxel row per source point, -1 on a miss
    hit: np.ndarray  # (n,) bool, per source point
    moved: np.ndarray  # (n, 3) transformed source means
    d: np.ndarray  # (m, 3) residuals of the matched subset
    weight: np.ndarray  # (6, m) unique entries of the inverse combined covariances
    wd: np.ndarray  # (m, 3) weight @ d
    cost: float
    inliers: int


def reference_match_terms(frame, vmap, t_ij, rows) -> PointTerms:
    """The per-point terms of ``match_terms`` on C-contiguous (n, 3) points
    and (n, 3, 3) covariances, as they were formed before frames and maps
    stored component rows, every point moved: with ``reference_freeze``,
    the oracle the row kernel must equal bit for bit."""
    points = np.ascontiguousarray(frame.points)
    map_covs = np.ascontiguousarray(cell_covs(vmap))
    map_means = np.ascontiguousarray(cell_means(vmap))
    rmat = t_ij.rotation.matrix()
    moved = points @ rmat.T + t_ij.translation
    hit = rows >= 0
    inliers = int(np.count_nonzero(hit))
    covs = np.ascontiguousarray(covs_of(frame)).reshape(-1, 9)
    if inliers == rows.shape[0]:
        idx, x0 = rows, moved
    else:
        sel = np.flatnonzero(hit)
        idx, covs, x0 = rows[sel], covs.take(sel, axis=0), moved.take(sel, axis=0)
    rr = (rmat[_REF_SYM_I, :, None] * rmat[_REF_SYM_J, None, :]).reshape(6, 9)
    cov = rr @ covs.T
    cov += map_covs.reshape(-1, 9)[:, 3 * _REF_SYM_I + _REF_SYM_J].T.take(idx, axis=1)
    weight = cov[_REF_ADJ[0]] * cov[_REF_ADJ[1]]
    weight -= cov[_REF_ADJ[2]] * cov[_REF_ADJ[3]]
    weight /= np.einsum("sm,sm->m", cov[:3], weight[:3])
    d = map_means.T.take(idx, axis=1)
    d -= x0.T
    wd = weight[_FULL[0]] * d[0]
    wd += weight[_FULL[1]] * d[1]
    wd += weight[_FULL[2]] * d[2]
    cost = float(np.vdot(d, wd))
    return PointTerms(rows, hit, moved, d.T, weight, wd.T, cost, inliers)


def reference_freeze(ref: PointTerms, t_ij) -> FrozenTerms:
    """The FrozenTerms of the reference terms formed at t_ij, folded in a
    step of its own: Q an index gather of the 6x10 moment matrix W_6 F^T of
    the moved inliers, s the 3x4 matrix (W d) F[:4]^T."""
    x0 = ref.moved.T
    if ref.inliers < x0.shape[1]:
        x0 = x0.take(np.flatnonzero(ref.hit), axis=1)
    mono = np.empty((10, ref.inliers))
    mono[0] = 1.0
    mono[1:4] = x0
    mono[4:7] = mono[1] * mono[1:4]
    mono[7:9] = mono[2] * mono[2:4]
    mono[9] = mono[3] * mono[3]
    q = (ref.weight @ mono.T).reshape(60)[_Q_INDEX]
    s = (ref.wd.T @ mono[:4].T).reshape(12)
    r0, t0 = t_ij.rotation.matrix(), t_ij.translation
    pose = np.empty((3, 4))
    pose[:, 0] = t0
    pose[:, 1:] = r0
    to_change = np.zeros((4, 4))
    to_change[0, 0] = 1.0
    to_change[1:, 0] = -(r0.T @ t0)
    to_change[1:, 1:] = r0.T
    return FrozenTerms(pose, to_change, ref.cost, s, q, ref.inliers)


def searched_rows(vmap, keys):
    """The map's row of each packed key, -1 for a key it lacks, found in a
    dict of its keys."""
    row = {int(k): i for i, k in enumerate(vmap.keys)}
    return np.array([row.get(int(k), -1) for k in keys], dtype=np.int64)


class TestRowKernelOracle:
    @given(seed=seeds, source_kind=cov_kinds, target_kind=cov_kinds,
           rot=angles, trans=offsets, full=st.booleans(), fixed=st.booleans())
    def test_equals_reference_bit_for_bit(self, seed, source_kind, target_kind,
                                          rot, trans, full, fixed):
        # the source re-expressed so that t_ij, up to 35 m off and turned by
        # up to 3 rad per axis, lands it near the map: every point on a
        # target point (full hits) or beside one (partial hits); with fixed
        # rows the rows come from a lookup at a nudged pose
        rng = np.random.default_rng(seed)
        source, vmap = matched_pair(seed, source_kind, target_kind)
        if full:
            source = make_frame(cell_means(vmap), covs=random_covs(rng, source_kind, len(vmap)))
        t_ij = Se3Pose(so3_exp(np.asarray(rot)), np.asarray(trans))
        tf = pose_inverse(t_ij)
        rmat = tf.rotation.matrix()
        source = make_frame(pose_apply(tf, source.points),
                            covs=rmat @ covs_of(source) @ rmat.T)
        at = t_ij
        if fixed:
            at = pose_retract(t_ij, rng.normal(scale=0.05, size=6))
        rows = vmap.look_up(source.point_rows, at.rotation.matrix(), at.translation)[1]
        held = terms_at(source, vmap, t_ij, rows)
        ref_held = reference_freeze(reference_match_terms(source, vmap, t_ij, rows), t_ij)
        if full and not fixed:
            assert held.inliers == len(source)
        for name, got, want in zip(FrozenTerms._fields, held, ref_held):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        for got, want in zip(linearize_held(held, t_ij), linearize_held(ref_held, t_ij)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_known_lookup_searches_only_changed_keys(self):
        source, vmap = matched_pair(5)
        at = Se3Pose(so3_exp([0.0, 0.0, 0.02]), np.array([0.03, 0.0, 0.0]))
        rot, trans = at.rotation.matrix(), at.translation
        still = (source.point_rows, np.eye(3), np.zeros(3))
        first_keys, first_rows = vmap.look_up(*still)
        assert np.array_equal(first_rows, searched_rows(vmap, first_keys))
        keys, rows = vmap.look_up(source.point_rows, rot, trans, (first_keys, first_rows))
        moved = (rot @ source.point_rows + trans[:, None]).T
        assert np.array_equal(keys, pack_voxel_keys(moved, vmap.resolution))
        changed = first_keys != keys
        assert 0 < np.count_nonzero(changed) < len(source)
        assert np.array_equal(rows, searched_rows(vmap, keys))
        # a stale row where the key is unchanged is kept: nothing re-searches it
        stale = first_rows.copy()
        stale[~changed] = -1
        _, kept = vmap.look_up(source.point_rows, rot, trans, (first_keys, stale))
        assert np.array_equal(kept[~changed], stale[~changed])
        assert np.array_equal(kept[changed], rows[changed])
        # with no key changed, the known rows come back as they are
        assert vmap.look_up(*still, (first_keys, stale))[1] is stale

    @pytest.mark.parametrize("translation", [[1e7, 0.0, 0.0], [np.nan, 0.0, 0.0],
                                             [0.0, np.inf, 0.0]])
    def test_out_of_range_or_non_finite_moved_point_raises(self, translation):
        source, vmap = matched_pair(6)
        far = Se3Pose(so3_exp([0.0, 0.0, 0.0]), np.array(translation))
        with pytest.raises(VoxelKeyOutOfRange):
            terms_at(source, vmap, far)
        with pytest.raises(VoxelKeyOutOfRange):
            overlap_rate(source, vmap, far)
        if np.isinf(translation).any():
            return  # composing poses with it would already warn (inf * 0)
        # also on a link's key-diff lookup, after a lookup that succeeded:
        # the move to a NaN pose is NaN, which is due
        block = MatchingBlock([MatchingCostFactor(0, source, vmap, identity_pose(),
                                                  min_inliers=10)])
        linearize_matching(block, {0: at_pose(identity_pose())})
        values = {0: at_pose(far)}
        matching_factor_cost(block, values)  # held rows: no lookup
        with pytest.raises(VoxelKeyOutOfRange):
            linearize_matching(block, values)


class TestMapRowStorage:
    def test_rows_hold_the_cells(self):
        rng = np.random.default_rng(11)
        frame = make_frame(rng.uniform(-2, 2, (400, 3)), covs=[
            random_plane_cov(rng, rng.normal(size=3)) for _ in range(400)])
        vmap = build_voxelmap(frame, 0.5)
        m = len(vmap)
        assert vmap.mean_rows.shape == (3, m) and vmap.mean_rows.flags.c_contiguous
        assert vmap.cov_rows.shape == (6, m) and vmap.cov_rows.flags.c_contiguous
        _, means, covs, _ = reference_build_voxelmap(frame, 0.5)
        assert np.array_equal(vmap.mean_rows, means.T)
        assert np.array_equal(vmap.cov_rows, covs.reshape(m, 9)[:, [0, 1, 2, 4, 5, 8]].T)

    def test_empty_map(self):
        vmap = build_voxelmap(make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3))), 1.0)
        assert vmap.mean_rows.shape == (3, 0) and vmap.cov_rows.shape == (6, 0)
        assert vmap.keys.shape == (0,) and vmap.keys.dtype == np.int64


# pose steps: each a direction, a scale and whether the cost is taken
# before the linearization; the large scale turns the source by up to 0.1
# rad and moves it by up to 0.2 m per axis, so points cross faces of the
# 0.5 m voxels, the middle one moves a point by about the look-up bound
# (RELOOK_FRACTION of a voxel), and the small one stays well inside it
steps = st.lists(st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
                           st.sampled_from([1e-3, 1e-2, 1.0]), st.booleans()),
                 min_size=2, max_size=8)


def conditioned_pair(seed):
    """A target voxel map and a source frame that overlaps it, every
    covariance SPD with its eigenvalues within one decade (0.01-0.1 m^2),
    so that an inverse is good to about 1e-15 relative."""
    rng = np.random.default_rng(seed)

    def covs(n):
        basis = np.stack([so3_exp(v).matrix() for v in rng.normal(size=(n, 3))])
        vals = 10.0 ** rng.uniform(-2.0, -1.0, (n, 3))
        return basis @ (vals[:, :, None] * np.eye(3)) @ basis.transpose(0, 2, 1)

    points = rng.uniform(-2.0, 2.0, (150, 3))
    vmap = build_voxelmap(make_frame(points, covs=covs(150)), 0.5)
    source = make_frame(points[:100] + rng.normal(scale=0.05, size=(100, 3)),
                        covs=covs(100))
    return source, vmap


def frozen_reference(source, vmap, rows, held_at, t_ij, target_fixed):
    """(cost, g, h) at the relative pose t_ij on fixed rows, each weight
    the inverse of C_voxel + R0 C_point R0^T at the relative pose held_at,
    summed point by point with the source Jacobian R [ hat(mu) | -I ] and
    the target Jacobian [ -hat(x) | I ] at the moved point x."""
    r0 = held_at.rotation.matrix()
    rmat = t_ij.rotation.matrix()
    means, covs = cell_means(vmap), cell_covs(vmap)
    cost, g, h = 0.0, np.zeros(12), np.zeros((12, 12))
    for mu, cov, row in zip(source.points, covs_of(source), rows):
        if row < 0:
            continue
        w = np.linalg.inv(covs[row] + r0 @ cov @ r0.T)
        x = rmat @ mu + t_ij.translation
        d = means[row] - x
        jac = np.hstack([rmat @ so3_hat(mu), -rmat, -so3_hat(x), np.eye(3)])
        cost += d @ w @ d
        g += 2 * jac.T @ w @ d
        h += 2 * jac.T @ w @ jac
    if target_fixed:
        return cost, g[:6], h[:6, :6]
    return cost, g, h


class TestFrozenTerms:
    @given(seed=seeds, path=steps, unary=st.booleans())
    def test_factor_equals_frozen_reference_and_fresh_factor(self, seed, path, unary):
        # the block looks up again only once a source point can have moved
        # RELOOK_FRACTION of a voxel since its last look-up, by the bound
        # 2 sin(angle / 2) reach + |shift| of that move; it re-forms its
        # terms only when a look-up changed a row, and then equals a block
        # built at that pose bit for bit; between changes it keeps the
        # weights of the last change and moves only the points
        source, vmap = conditioned_pair(seed)
        key_i, key_j = 0, 1
        t_j = Se3Pose(so3_exp([0.2, -0.1, 0.3]), np.array([1.0, -2.0, 0.5]))
        reach = np.linalg.norm(source.points, axis=1).max()
        bound = RELOOK_FRACTION * vmap.resolution

        def build():
            return MatchingBlock([MatchingCostFactor(
                key_i, source, vmap, t_j if unary else key_j, min_inliers=5)])

        block = build()
        t_i, rows, held_at, looked_at = t_j, None, None, None
        with mock.patch.object(factor_graph, "match_terms",
                               wraps=factor_graph.match_terms) as spy, \
                mock.patch.object(vmap, "look_up", wraps=vmap.look_up) as look_up:
            for step, scale, cost_first in path:
                t_i = pose_retract(t_i, np.asarray(step) * scale
                                   * [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])
                values = {key_i: at_pose(t_i), key_j: at_pose(t_j)}
                t_ij = pose_compose(pose_inverse(t_j), t_i)
                if cost_first and rows is not None:
                    calls = spy.call_count, look_up.call_count
                    matching_factor_cost(block, values)  # on the held quadratic
                    assert (spy.call_count, look_up.call_count) == calls
                relook = looked_at is None or (
                    2.0 * np.sin(0.5 * rotation_angle(looked_at.rotation,
                                                      t_ij.rotation)) * reach
                    + np.linalg.norm(t_ij.translation - looked_at.translation)
                    > bound)
                changed = False
                if relook:
                    looked_at = t_ij
                    found = rows_of(vmap, (t_ij.rotation.matrix() @ source.point_rows).T
                                    + t_ij.translation)
                    changed = rows is None or not np.array_equal(found, rows)
                    if changed:
                        rows, held_at = found, t_ij
                calls = spy.call_count, look_up.call_count
                lin = linearize_matching(block, values)
                inliers = int(np.count_nonzero(rows >= 0))
                assert block.inliers[0] == inliers
                assert spy.call_count == calls[0] + (changed and inliers >= 5)
                assert look_up.call_count == calls[1] + relook
                assert matching_factor_cost(block, values) == lin.cost
                if inliers < 5:
                    assert not block.held[0] and lin.cost == 0.0
                    continue
                cost, g, h = frozen_reference(source, vmap, rows, held_at, t_ij,
                                              unary)
                assert lin.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
                assert np.abs(lin.g - g).max() <= 1e-12 * np.abs(g).max()
                assert np.abs(lin.h - h).max() <= 1e-12 * np.abs(h).max()
                if changed:
                    want = linearize_matching(build(), values)
                    assert lin.cost == want.cost
                    assert lin.g.tobytes() == want.g.tobytes()
                    assert lin.h.tobytes() == want.h.tobytes()


def reference_linearize(held, t_ij, target_fixed=False):
    """(g, h, cost) of one held quadratic at t_ij, formed with the 2-D
    product of every step of the stacked kernel: the per-factor oracle that
    a slice of the stack must equal bit for bit."""
    diff = np.empty((3, 4))
    diff[:, 0] = t_ij.translation
    diff[:, 1:] = t_ij.rotation.matrix()
    diff -= held.pose
    g = (diff @ held.to_change).reshape(12)
    qg = held.q @ g
    cost = float(held.cost - g @ (2.0 * held.s - qg))
    jac = (_JAC_MAP @ g + _JAC_OFFSET).reshape(12, 6)
    b_j = 2.0 * (jac.T @ (qg - held.s))
    half = jac.T @ (held.q @ jac)
    h_jj = half + half.T
    rmat = t_ij.rotation.matrix()
    adj = np.zeros((6, 6))
    adj[:3, :3] = adj[3:, 3:] = rmat
    adj[3:, :3] = so3_hat(t_ij.translation) @ rmat
    adj_t_h = adj.T @ h_jj
    if target_fixed:
        return -(adj.T @ b_j), adj_t_h @ adj, cost
    h = np.empty((12, 12))
    h[:6, :6] = adj_t_h @ adj
    h[:6, 6:] = -adj_t_h
    h[6:, :6] = h[:6, 6:].T
    h[6:, 6:] = h_jj
    return np.concatenate([-(adj.T @ b_j), b_j]), h, cost


class TestStackedKernel:
    def test_each_quadratic_equals_itself_alone_bit_for_bit(self):
        # five quadratics of different pairs, each held at its own relative
        # pose and taken at another; the ones marked fixed stand for unary
        # factors, which read the source pose's blocks of the same stack
        rng = np.random.default_rng(21)
        held, poses = [], []
        for seed in range(30, 35):
            source, vmap = conditioned_pair(seed)
            at = Se3Pose(so3_exp(rng.normal(scale=0.05, size=3)),
                         rng.normal(scale=0.05, size=3))
            held.append(terms_at(source, vmap, at))
            poses.append(pose_retract(at, rng.normal(scale=0.02, size=6)))
        fixed = [True, False, True, False, False]
        rots = np.stack([p.rotation.matrix() for p in poses])
        trans = np.stack([p.translation for p in poses])
        grad, hess, cost = linearize_from_terms(stack(held), rots, trans)
        costs = frozen_cost(stack(held), rots, trans)
        assert grad.shape == (5, 12) and hess.shape == (5, 12, 12)
        for k, (one, pose) in enumerate(zip(held, poses)):
            n = 6 if fixed[k] else 12
            g1, h1, c1 = linearize_from_terms(stack([one]), rots[k:k + 1],
                                              trans[k:k + 1])
            assert grad[k, :n].tobytes() == g1[0, :n].tobytes()
            assert hess[k, :n, :n].tobytes() == h1[0, :n, :n].tobytes()
            assert cost[k] == c1[0] == costs[k]
            assert frozen_cost(stack([one]), rots[k:k + 1], trans[k:k + 1])[0] == costs[k]
            g2, h2, c2 = reference_linearize(one, pose, fixed[k])
            assert grad[k, :n].tobytes() == g2.tobytes()
            assert hess[k, :n, :n].tobytes() == h2.tobytes()
            assert cost[k] == c2
