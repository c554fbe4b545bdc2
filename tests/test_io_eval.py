import math
from pathlib import Path

import numpy as np
import pytest

from limapper.dataset_io import (
    TrajectoryRecord,
    read_imu_csv,
    read_scan,
    read_trajectory,
    record_from_pose,
    write_imu_csv,
    write_scan,
    write_trajectory,
)
from limapper.errors import (
    InsufficientOverlap,
    OutOfOrder,
    ParseError,
)
from limapper.evaluation import compute_ate, umeyama_alignment
from limapper.geometry import Se3Pose, pose_compose, so3_exp
from limapper.imu import ImuSample
from limapper.preprocess import RawScan


class TestScanIo:
    def test_round_trip_bit_exact(self, tmp_path):
        pts = np.array([[1.5, -2.25, 3.125], [0.0, 0.5, -0.5], [10.0, 0.0, 1.0]],
                       dtype=np.float32).astype(float)
        scan = RawScan(pts, np.array([0.0, 0.01, 0.02]), 0.0, 0.1)
        path = str(tmp_path / "scan.bin")
        write_scan(scan, path)
        back = read_scan(path)
        assert np.array_equal(back.points, pts)
        assert np.array_equal(back.stamps, scan.stamps)

    def test_truncated_record_parse_error(self, tmp_path):
        scan = RawScan(np.ones((2, 3)), np.array([0.0, 0.01]), 0.0, 0.1)
        path = str(tmp_path / "scan.bin")
        write_scan(scan, path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-3])
        with pytest.raises(ParseError) as exc:
            read_scan(path)
        assert exc.value.offset == len(b"fields: x y z t\n") + 20

    def test_bad_header(self, tmp_path):
        path = str(tmp_path / "scan.bin")
        Path(path).write_bytes(b"fields: a b c\n")
        with pytest.raises(ParseError):
            read_scan(path)


class TestImuIo:
    def test_round_trip(self, tmp_path):
        samples = [ImuSample(0.0, np.array([0.1, 0.2, 9.8]), np.array([0.0, 0.01, 0.02])),
                   ImuSample(0.005, np.array([1e-7, -2e5, 9.8]), np.array([0.1, 0.0, 0.0]))]
        path = str(tmp_path / "imu.csv")
        write_imu_csv(samples, path)
        back = read_imu_csv(path)
        assert len(back) == 2
        assert back[0].stamp == 0.0
        assert np.allclose(back[1].accel, samples[1].accel)

    def test_scientific_notation(self, tmp_path):
        path = str(tmp_path / "imu.csv")
        Path(path).write_text("t,ax,ay,az,wx,wy,wz\n1.5e-3,1e-2,0,9.8e0,0,0,-1E-4\n")
        back = read_imu_csv(path)
        assert back[0].stamp == pytest.approx(1.5e-3)
        assert back[0].gyro[2] == pytest.approx(-1e-4)

    def test_missing_column(self, tmp_path):
        path = str(tmp_path / "imu.csv")
        Path(path).write_text("t,ax,ay,az,wx,wy,wz\n0.0,1,2,3,4,5\n")
        with pytest.raises(ParseError):
            read_imu_csv(path)

    def test_shuffled_rows_out_of_order(self, tmp_path):
        path = str(tmp_path / "imu.csv")
        Path(path).write_text("t,ax,ay,az,wx,wy,wz\n"
                              "0.01,0,0,9.8,0,0,0\n0.0,0,0,9.8,0,0,0\n")
        with pytest.raises(OutOfOrder):
            read_imu_csv(path)


class TestTrajectoryIo:
    def test_identity_line_format(self, tmp_path):
        path = str(tmp_path / "traj.txt")
        write_trajectory([record_from_pose(0.0, Se3Pose.identity())], path)
        line = Path(path).read_text().strip()
        assert line == "0.00000000 0 0 0 0 0 0 1"

    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        records = []
        for i in range(50):
            pose = Se3Pose(so3_exp(rng.uniform(-2, 2, 3)), rng.uniform(-100, 100, 3))
            records.append(record_from_pose(0.1 * i, pose))
        path = str(tmp_path / "traj.txt")
        write_trajectory(records, path)
        back = read_trajectory(path)
        assert len(back) == 50
        for a, b in zip(records, back):
            assert abs(a.stamp - b.stamp) < 1e-8
            assert np.allclose(a.position, b.position, atol=1e-6)
            assert np.allclose(a.orientation, b.orientation, atol=1e-8)

    def test_thousand_records_in_order(self, tmp_path):
        records = [record_from_pose(0.01 * i, Se3Pose.identity()) for i in range(1000)]
        path = str(tmp_path / "traj.txt")
        write_trajectory(records, path)
        back = read_trajectory(path)
        assert [r.stamp for r in back] == sorted(r.stamp for r in back)
        assert len(back) == 1000


def straight_records(n, step=0.5):
    return [TrajectoryRecord(0.1 * i, np.array([step * i, 0.0, 0.0]),
                             np.array([0.0, 0.0, 0.0, 1.0])) for i in range(n)]


class TestAte:
    def test_identical_zero(self):
        recs = straight_records(20)
        assert compute_ate(recs, recs).rmse == pytest.approx(0.0)

    def test_rigid_transform_removed_by_alignment(self):
        rng = np.random.default_rng(2)
        gt = [record_from_pose(0.1 * i, Se3Pose(so3_exp(rng.uniform(-1, 1, 3)),
                                                rng.uniform(-5, 5, 3)))
              for i in range(30)]
        g = Se3Pose(so3_exp([0.3, -0.2, 0.9]), np.array([4.0, -2.0, 1.0]))
        est = [record_from_pose(r.stamp, pose_compose(g, r.pose())) for r in gt]
        assert compute_ate(est, gt).rmse < 1e-9

    def test_displaced_vertex_no_alignment(self):
        # unit square, one vertex displaced by 0.4: rmse = sqrt(0.4^2 / 4)
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        gt = [TrajectoryRecord(float(i), np.array([x, y, 0.0]),
                               np.array([0, 0, 0, 1.0])) for i, (x, y) in enumerate(corners)]
        est = [TrajectoryRecord(r.stamp, r.position.copy(), r.orientation.copy())
               for r in gt]
        est[2] = TrajectoryRecord(2.0, est[2].position + np.array([0.4, 0.0, 0.0]),
                                  est[2].orientation)
        res = compute_ate(est, gt, align=False)
        assert res.rmse == pytest.approx(math.sqrt(0.4**2 / 4))

    def test_insufficient_overlap(self):
        gt = straight_records(10)
        est = [TrajectoryRecord(100.0 + r.stamp, r.position, r.orientation) for r in gt]
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
