import math

import numpy as np
import pytest

from limapper.dataset_io import TrajectoryRecord, record_from_pose
from limapper.errors import InsufficientOverlap
from limapper.evaluation import compute_ate, umeyama_alignment
from limapper.geometry import Se3Pose, pose_compose, so3_exp


def straight_records(n, step=0.5):
    return [TrajectoryRecord(0.1 * i, np.array([step * i, 0.0, 0.0])) for i in range(n)]


class TestAte:
    def test_identical_zero(self):
        recs = straight_records(20)
        assert compute_ate(recs, recs).rmse == pytest.approx(0.0)

    def test_rigid_transform_removed_by_alignment(self):
        rng = np.random.default_rng(2)
        stamps = [0.1 * i for i in range(30)]
        poses = [Se3Pose(so3_exp(rng.uniform(-1, 1, 3)), rng.uniform(-5, 5, 3))
                 for _ in stamps]
        gt = [record_from_pose(t, pose) for t, pose in zip(stamps, poses)]
        g = Se3Pose(so3_exp([0.3, -0.2, 0.9]), np.array([4.0, -2.0, 1.0]))
        est = [record_from_pose(t, pose_compose(g, pose))
               for t, pose in zip(stamps, poses)]
        assert compute_ate(est, gt).rmse < 1e-9

    def test_displaced_vertices_survive_alignment(self):
        # square about the origin, two opposite vertices moved out along their
        # diagonal by 0.4: no rigid motion fits the change of shape better
        # than the identity, so rmse = sqrt(2 * 0.4^2 / 4)
        corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        gt = [TrajectoryRecord(float(i), np.array([x, y, 0.0]))
              for i, (x, y) in enumerate(corners)]
        est = list(gt)
        for i in (0, 2):
            out = 0.4 * gt[i].position / np.linalg.norm(gt[i].position)
            est[i] = TrajectoryRecord(float(i), gt[i].position + out)
        res = compute_ate(est, gt)
        assert res.rmse == pytest.approx(math.sqrt(2 * 0.4**2 / 4))

    def test_insufficient_overlap(self):
        gt = straight_records(10)
        est = [TrajectoryRecord(100.0 + r.stamp, r.position) for r in gt]
        with pytest.raises(InsufficientOverlap):
            compute_ate(est, gt)

    def test_umeyama_recovers_transform(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(40, 3))
        rot = so3_exp(rng.uniform(-2, 2, 3)).matrix()
        t = rng.uniform(-3, 3, 3)
        dst = src @ rot.T + t
        r2, t2 = umeyama_alignment(src, dst)
        assert np.allclose(r2, rot, atol=1e-9)
        assert np.allclose(t2, t, atol=1e-9)
