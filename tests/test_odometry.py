import warnings

import numpy as np
import pytest

from limapper.config import PipelineConfig
from limapper.dataset_io import record_from_pose
from limapper.errors import ImuCoverageGap, RunFinished, VoxelKeyOutOfRange
from limapper.evaluation import compute_ate
from limapper.factor_graph import FactorGraph
from limapper.odometry import FALLBACK_VEL_BIAS_SIGMA, OdometryEstimator
from limapper.preprocess import RawScan
from limapper.synthetic import generate_synthetic_scene, square_loop_scene


@pytest.fixture(scope="module")
def loop_scene():
    # 14 scans; the sensor stands still for the bootstrap window, then
    # reaches 3 m/s within 0.5 s
    return generate_synthetic_scene(square_loop_scene(
        perimeter=40, speed=3.0, n_frames=12, seed=3, settle=0.6,
        ramp_time=0.5))


def imu_batches(scene, init_window, scans=None):
    """IMU samples up to each scan's end; the first batch also covers the
    stationary window the bootstrap needs."""
    batches, j = [], 0
    for k, scan in enumerate(scene.scans if scans is None else scans):
        horizon = scan.scan_end + (init_window if k == 0 else 0.0)
        start = j
        while j < len(scene.imu) and scene.imu[j].stamp <= horizon:
            j += 1
        batches.append(scene.imu[start:j])
    return batches


def run(scene, config=None, n_scans=None):
    est = OdometryEstimator(config)
    batches = imu_batches(scene, est.config.odometry.init_window)
    results = [est.process_frame(scan, batch)
               for scan, batch in zip(scene.scans[:n_scans], batches)]
    return est, results


def state_vector(state):
    return np.concatenate([state.pose.rotation.quat, state.pose.translation,
                           state.velocity, state.bias_accel, state.bias_gyro])


def outputs(est, results):
    """What a run hands back and keeps, in a form compared bit for bit."""
    per_scan = [(state_vector(r.state).tobytes(), r.warning,
                 [(m.frame_index, state_vector(m.state).tobytes(),
                   m.vel_bias_sigma.tobytes()) for m in r.marginalized])
                for r in results]
    keyframes = [(e["frame_index"], e["inserted"], e["dropped_low_overlap"])
                 for e in est.keyframe_events]
    return per_scan, keyframes, [f.kind for f in est.graph.factors]


class TestSquareLoop:
    def test_accurate_repeatable_and_quiet(self, loop_scene):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, first = run(loop_scene)
            _, second = run(loop_scene)
        assert len(first) == len(loop_scene.scans) == 14
        assert all(r.warning is None for r in first)
        records = [record_from_pose(r.state.stamp, r.state.pose) for r in first]
        assert compute_ate(records, loop_scene.ground_truth).rmse < 0.010
        for a, b in zip(first, second):
            assert np.array_equal(state_vector(a.state), state_vector(b.state))


class TestMarginalCovarianceFallback:
    @staticmethod
    def short_lag():
        config = PipelineConfig()
        config.odometry.smoothing_lag = 1  # the second scan emits the first
        return config

    def test_singular_window_gives_fallback_sigmas(self, loop_scene, monkeypatch):
        def singular(self, key):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(FactorGraph, "marginal_covariance", singular)
        _, results = run(loop_scene, self.short_lag(), n_scans=3)
        emitted = [m for r in results for m in r.marginalized]
        assert len(emitted) == 2
        for m in emitted:
            assert np.array_equal(m.vel_bias_sigma, FALLBACK_VEL_BIAS_SIGMA)

    def test_other_errors_propagate(self, loop_scene, monkeypatch):
        def broken(self, key):
            raise KeyError(key)

        monkeypatch.setattr(FactorGraph, "marginal_covariance", broken)
        with pytest.raises(KeyError):
            run(loop_scene, self.short_lag(), n_scans=3)


class TestRetryAfterFailure:
    """A scan that raises before it enters the graph can be sent again."""

    def test_retry_after_imu_gap_matches_clean_run(self, loop_scene):
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        pairs = list(zip(loop_scene.scans, batches))
        est = OdometryEstimator()
        results = [est.process_frame(scan, batch) for scan, batch in pairs[:8]]
        with pytest.raises(ImuCoverageGap):
            est.process_frame(loop_scene.scans[8], [])  # its IMU held back
        results += [est.process_frame(scan, batch) for scan, batch in pairs[8:]]
        assert outputs(est, results) == outputs(clean_est, clean)

    def test_retry_after_nan_point_matches_clean_run(self, loop_scene):
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        pairs = list(zip(loop_scene.scans, batches))
        est = OdometryEstimator()
        results = [est.process_frame(scan, batch) for scan, batch in pairs[:8]]
        scan = loop_scene.scans[8]
        points = scan.points.copy()
        points[17] = np.nan
        with pytest.raises(VoxelKeyOutOfRange):
            est.process_frame(RawScan(points, scan.stamps, scan.scan_start,
                                      scan.scan_end), batches[8])
        results += [est.process_frame(scan, batch) for scan, batch in pairs[8:]]
        assert outputs(est, results) == outputs(clean_est, clean)

    def test_retry_of_bootstrap_scan_matches_clean_run(self, loop_scene):
        # scan 5 is still at rest; the IMU from 0 s covers the bootstrap
        # window, and the first try stops at the scan's start, so the
        # bootstrap succeeds and the deskew fails
        scans = loop_scene.scans[5:]
        batches = imu_batches(loop_scene, PipelineConfig().odometry.init_window,
                              scans)
        clean_est = OdometryEstimator()
        clean = [clean_est.process_frame(scan, batch)
                 for scan, batch in zip(scans, batches)]
        est = OdometryEstimator()
        with pytest.raises(ImuCoverageGap):
            est.process_frame(scans[0], [s for s in batches[0]
                                         if s.stamp <= scans[0].scan_start])
        results = [est.process_frame(scan, batch)
                   for scan, batch in zip(scans, batches)]
        assert outputs(est, results) == outputs(clean_est, clean)


class TestFinish:
    def test_scan_after_finish_raises_and_changes_nothing(self, loop_scene):
        est, _ = run(loop_scene, n_scans=8)
        flushed = est.finish()
        assert [m.frame_index for m in flushed] == [3, 4, 5, 6, 7]
        before = (dict(est.graph.values), list(est.graph.factors),
                  list(est._imu), list(est.keyframes),
                  len(est.keyframe_events), est._next_index)
        batch = imu_batches(loop_scene, est.config.odometry.init_window)[8]
        with pytest.raises(RunFinished):
            est.process_frame(loop_scene.scans[8], batch)
        after = (dict(est.graph.values), list(est.graph.factors),
                 list(est._imu), list(est.keyframes),
                 len(est.keyframe_events), est._next_index)
        assert after == before
        assert est.finish() == []


class TestRecentFrameLinks:
    @staticmethod
    def binary_targets(scene, links):
        """Target frame indices of the binary matching factors added over 8
        scans, and the indices of every frame that became a keyframe."""
        config = PipelineConfig()
        config.odometry.recent_frame_links = links
        config.odometry.smoothing_lag = 10  # keep every factor in the graph
        est, _ = run(scene, config, n_scans=8)
        targets = [f.keys[1].index for f in est.graph.factors
                   if f.kind == "matching-cost-binary"]
        keyframes = {e["frame_index"] for e in est.keyframe_events
                     if e["inserted"]}
        return targets, keyframes

    def test_zero_links_only_keyframes(self, loop_scene):
        targets, keyframes = self.binary_targets(loop_scene, 0)
        assert targets and set(targets) <= keyframes
        one, keyframes_one = self.binary_targets(loop_scene, 1)
        assert not set(one) <= keyframes_one  # 1 links a non-keyframe
        assert len(targets) < len(one)
