import numpy as np
import pytest

from limapper.errors import DegenerateConstraint
from limapper.geometry import (
    Gaussian3,
    Se3Pose,
    pose_apply,
    pose_compose,
    pose_inverse,
    pose_retract,
    so3_exp,
    so3_hat,
)
from limapper.preprocess import Frame, pack_voxel_keys
from limapper.registration import (
    GaussianVoxelMap,
    MatchingCostLinearization,
    build_voxelmap,
    d2d_error,
    linearize_matching_cost,
    match_terms,
    matching_cost,
    overlap_rate,
)


def make_frame(points, covs=None, rng=None, iso=0.01):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if covs is None:
        covs = np.tile(np.eye(3) * iso, (len(points), 1, 1))
    return Frame(points=points, stamps=np.zeros(len(points)), stamp=0.0,
                 covs=np.asarray(covs, dtype=float), deskewed=True)


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
        mean, c, count = vmap.cell([0, 0, 0])
        assert np.allclose(mean, [0.5, 0.5, 0.5])
        assert np.allclose(c, cov)
        assert count == 1

    def test_two_point_aggregation(self):
        cov = np.eye(3) * 0.05
        frame = make_frame([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], covs=[cov, cov])
        vmap = build_voxelmap(frame, 1.0)
        mean, c, count = vmap.cell([0, 0, 0])
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
        ia = np.lexsort(a.means.T)
        ib = np.lexsort(b.means.T)
        assert np.allclose(a.means[ia] + [1, 0, 0], b.means[ib], atol=1e-12)
        assert np.allclose(a.covs[ia], b.covs[ib], atol=1e-12)

    def test_cell_mean_inside_voxel_bounds(self):
        rng = np.random.default_rng(1)
        frame = make_frame(rng.uniform(-3, 3, (200, 3)))
        vmap = build_voxelmap(frame, 0.5)
        lows = vmap.occupied_indices() * 0.5
        assert np.all(vmap.means >= lows - 1e-12)
        assert np.all(vmap.means <= lows + 0.5 + 1e-12)

    def test_empty_frame(self):
        vmap = build_voxelmap(make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3))), 1.0)
        assert len(vmap) == 0


class TestD2dError:
    def test_zero_at_coincident_means(self):
        g = Gaussian3(np.array([1.0, 2.0, 3.0]), np.eye(3))
        err, d, _ = d2d_error(g, g, Se3Pose.identity())
        assert err == pytest.approx(0.0)
        assert np.allclose(d, 0.0)

    def test_hand_example(self):
        p = Gaussian3(np.array([1.0, 0.0, 0.0]), np.eye(3))
        v = Gaussian3(np.array([1.1, 0.0, 0.0]), np.eye(3))
        err, d, w = d2d_error(p, v, Se3Pose.identity())
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
    """np.unique plus np.add.at: the grouping the segment sums must match."""
    keys = pack_voxel_keys(frame.points, resolution)
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    means = np.zeros((uniq.size, 3))
    np.add.at(means, inverse, frame.points)
    means /= counts[:, None]
    centered = frame.points - means[inverse]
    scatter = frame.covs + np.einsum("ni,nj->nij", centered, centered)
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
        vmap = build_voxelmap(frame, resolution)
        keys, means, cell_covs, counts = reference_build_voxelmap(frame, resolution)
        assert counts.max() >= 8
        for got, want in ((vmap.keys, keys), (vmap.means, means),
                          (vmap.covs, cell_covs), (vmap.counts, counts)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMatchingCost:
    def test_self_match(self):
        rng = np.random.default_rng(3)
        frame = make_frame(rng.uniform(-2, 2, (100, 3)))
        vmap = build_voxelmap(frame, 0.5)
        cost, inliers = matching_cost(frame, vmap, Se3Pose.identity())
        assert inliers == 100
        assert cost < 100 * 3  # bounded; aggregates absorb the scatter

    def test_disjoint_clouds(self):
        a = make_frame([[0, 0, 0], [0.1, 0, 0]])
        b = make_frame([[100, 100, 100], [100.1, 100, 100]])
        vmap = build_voxelmap(b, 0.5)
        cost, inliers = matching_cost(a, vmap, Se3Pose.identity())
        assert (cost, inliers) == (0.0, 0)

    def test_single_pair_equals_d2d(self):
        cov = np.eye(3) * 0.05
        target = make_frame([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], covs=[cov, cov])
        vmap = build_voxelmap(target, 1.0)
        source = make_frame([[0.2, 0.1, 0.0]], covs=[cov])
        cost, inliers = matching_cost(source, vmap, Se3Pose.identity())
        assert inliers == 1
        mean, c, _ = vmap.cell([0, 0, 0])
        expected, _, _ = d2d_error(Gaussian3(source.points[0], cov),
                                   Gaussian3(mean, c), Se3Pose.identity())
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
        moved = pose_apply(t_ij, source.points)
        rows = vmap.lookup(moved)
        for i, row in enumerate(rows):
            if row < 0:
                continue
            err, _, _ = d2d_error(Gaussian3(source.points[i], source.covs[i]),
                                  Gaussian3(vmap.means[row], vmap.covs[row]), t_ij)
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
        rows = vmap.lookup(pose_apply(t_ij, source.points))
        if fixed_rows:
            # hold the rows found at t_ij and evaluate at a second pose
            t_ij = Se3Pose(so3_exp([0.32, -0.17, 0.2]), np.array([0.13, -0.02, 0.05]))
            assert not np.array_equal(rows, vmap.lookup(pose_apply(t_ij, source.points)))
            terms = match_terms(source, vmap, t_ij, rows)
        else:
            terms = match_terms(source, vmap, t_ij)
        assert np.array_equal(terms.rows, rows)
        hits = np.flatnonzero(rows >= 0)
        assert terms.inliers == hits.size > 50
        total = 0.0
        for k, i in enumerate(hits):
            err, d, weight = d2d_error(
                Gaussian3(source.points[i], source.covs[i]),
                Gaussian3(vmap.means[rows[i]], vmap.covs[rows[i]]), t_ij)
            assert np.allclose(terms.d[k], d, rtol=1e-12, atol=0.0)
            assert np.allclose(terms.weight[k], weight, rtol=1e-12,
                               atol=1e-12 * np.abs(weight).max())
            assert np.allclose(terms.wd[k], weight @ d, rtol=1e-12,
                               atol=1e-12 * np.abs(weight @ d).max())
            total += err
        assert terms.cost == pytest.approx(total, rel=1e-12)


class TestOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(5)
        frame = make_frame(rng.uniform(-2, 2, (50, 3)))
        vmap = build_voxelmap(frame, 0.5)
        assert overlap_rate(frame, vmap, Se3Pose.identity()) == 1.0

    def test_disjoint_overlap_zero(self):
        a = make_frame([[0, 0, 0]])
        b = make_frame([[50, 0, 0]])
        assert overlap_rate(a, build_voxelmap(b, 0.5), Se3Pose.identity()) == 0.0

    def test_counting_construction(self):
        target = make_frame([[float(i) + 0.5, 0.5, 0.5] for i in range(4)])
        vmap = build_voxelmap(target, 1.0)
        pts = [[float(i) + 0.5, 0.5, 0.5] for i in range(4)] + \
              [[float(i) + 0.5, 10.5, 0.5] for i in range(6)]
        source = make_frame(pts)
        assert overlap_rate(source, vmap, Se3Pose.identity()) == pytest.approx(0.4)

    def test_monotone_under_map_union(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3, 3, (100, 3))
        small = make_frame(pts[:40])
        big = make_frame(pts)
        query = make_frame(rng.uniform(-3, 3, (80, 3)))
        r_small = overlap_rate(query, build_voxelmap(small, 0.5), Se3Pose.identity())
        r_big = overlap_rate(query, build_voxelmap(big, 0.5), Se3Pose.identity())
        assert r_big >= r_small

    def test_empty_frame_zero(self):
        empty = make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3)))
        target = make_frame([[0, 0, 0]])
        assert overlap_rate(empty, build_voxelmap(target, 0.5), Se3Pose.identity()) == 0.0


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
    from limapper.preprocess import estimate_covariances, knn_search
    from dataclasses import replace

    frame = box_room_frame(rng, **kwargs)
    frame = replace(frame, covs=None, neighbors=knn_search(frame, 10))
    return estimate_covariances(frame)


class TestLinearization:
    def test_stationary_point_gradient(self):
        rng = np.random.default_rng(7)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        # self-match at identity: gradient balance at the aggregate means
        lin = linearize_matching_cost(frame, vmap, Se3Pose.identity(), Se3Pose.identity())
        # the full 12-dim gradient of a self-consistent pair is equal and
        # opposite between the two poses
        assert np.allclose(lin.b_i[3:], -lin.b_j[3:], atol=1e-8)

    def test_quadratic_expansion_oracle(self):
        # isotropic covariances make the weights pose-independent, so the
        # cost difference must match the (b, H) model to second order
        rng = np.random.default_rng(8)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        t_i = Se3Pose(so3_exp([0.01, -0.02, 0.03]), np.array([0.05, 0.02, -0.01]))
        t_j = Se3Pose.identity()
        # keep only source points whose transformed coordinates sit safely
        # inside their voxel, so tiny test perturbations cannot flip cells
        moved = pose_apply(t_i, frame.points)
        frac = moved / 0.5 - np.floor(moved / 0.5)
        safe = np.all((frac > 0.05) & (frac < 0.95), axis=1)
        frame = make_frame(frame.points[safe], covs=frame.covs[safe])
        lin = linearize_matching_cost(frame, vmap, t_i, t_j)
        h = np.block([[lin.h_ii, lin.h_ij], [lin.h_ij.T, lin.h_jj]])
        b = np.concatenate([lin.b_i, lin.b_j])
        for _ in range(5):
            xi = rng.normal(size=12)
            xi *= 1e-4 / np.linalg.norm(xi)
            c1, _ = matching_cost(
                frame, vmap,
                pose_compose(pose_inverse(pose_retract(t_j, xi[6:])),
                             pose_retract(t_i, xi[:6])))
            predicted = b @ xi + 0.5 * xi @ h @ xi
            actual = c1 - lin.cost
            assert actual == pytest.approx(predicted, rel=1e-3, abs=1e-12)

    def test_unary_hessian_psd(self):
        rng = np.random.default_rng(9)
        frame = box_room_frame(rng)
        vmap = build_voxelmap(frame, 0.5)
        lin = linearize_matching_cost(frame, vmap, Se3Pose.identity(),
                                      Se3Pose.identity(), target_fixed=True)
        assert lin.h_ij is None and lin.b_j is None
        evals = np.linalg.eigvalsh(0.5 * (lin.h_ii + lin.h_ii.T))
        assert evals.min() >= -1e-8 * max(1.0, evals.max())

    def test_full_hessian_psd_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            frame = box_room_frame(rng, n_per_wall=40)
            vmap = build_voxelmap(frame, 0.5)
            t_i = Se3Pose(so3_exp(rng.uniform(-0.05, 0.05, 3)), rng.uniform(-0.1, 0.1, 3))
            lin = linearize_matching_cost(frame, vmap, t_i, Se3Pose.identity())
            h = np.block([[lin.h_ii, lin.h_ij], [lin.h_ij.T, lin.h_jj]])
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
                rows = vmap.lookup(moved)
                out = []
                for p, row in zip(moved, rows):
                    if row >= 0:
                        out.append(vmap.means[row] - p)
                return np.concatenate(out) if out else np.zeros(0)

            r0 = residuals(t_i, t_j)
            if r0.size == 0:
                continue
            # analytic per-point Jacobians recomputed the same way the
            # linearization builds them
            tij = pose_compose(pose_inverse(t_j), t_i)
            rmat = tij.rotation.matrix()
            moved = pose_apply(tij, source.points)
            rows = vmap.lookup(moved)
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
        pairs = 0
        while pairs < 10:
            t_i = Se3Pose(so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-1, 1, 3))
            t_j = Se3Pose(so3_exp(rng.uniform(-0.3, 0.3, 3)), rng.uniform(-1, 1, 3))
            t_ij = pose_compose(pose_inverse(t_j), t_i)
            rmat = t_ij.rotation.matrix()
            moved = pose_apply(t_ij, frame.points)
            want = {k: 0.0 for k in ("h_ii", "h_ij", "h_jj", "b_i", "b_j")}
            for mu, cov, x0, row in zip(frame.points, frame.covs, moved,
                                        vmap.lookup(moved)):
                if row < 0:
                    continue
                _, d, w = d2d_error(Gaussian3(mu, cov),
                                    Gaussian3(vmap.means[row], vmap.covs[row]),
                                    t_ij)
                j_i = np.hstack([rmat @ so3_hat(mu), -rmat])
                j_j = np.hstack([-so3_hat(x0), np.eye(3)])
                want["h_ii"] += 2 * j_i.T @ w @ j_i
                want["h_ij"] += 2 * j_i.T @ w @ j_j
                want["h_jj"] += 2 * j_j.T @ w @ j_j
                want["b_i"] += 2 * j_i.T @ w @ d
                want["b_j"] += 2 * j_j.T @ w @ d
            try:
                binary = linearize_matching_cost(frame, vmap, t_i, t_j)
                unary = linearize_matching_cost(frame, vmap, t_i, t_j,
                                                target_fixed=True)
            except DegenerateConstraint:
                continue
            pairs += 1
            for name, value in want.items():
                scale = np.max(np.abs(value))
                got = getattr(binary, name)
                assert np.max(np.abs(got - value)) <= 1e-12 * scale, name
                if name in ("h_ii", "b_i"):
                    got = getattr(unary, name)
                    assert np.max(np.abs(got - value)) <= 1e-12 * scale, name
                else:
                    assert getattr(unary, name) is None

    def test_degenerate_constraint_raised(self):
        a = make_frame([[0, 0, 0]])
        b = make_frame([[50, 0, 0]])
        with pytest.raises(DegenerateConstraint):
            linearize_matching_cost(a, build_voxelmap(b, 0.5),
                                    Se3Pose.identity(), Se3Pose.identity())
