import warnings

import numpy as np
import pytest

from limapper.config import PipelineConfig
from limapper.dataset_io import record_from_pose
from limapper.evaluation import compute_ate
from limapper.factor_graph import FactorGraph
from limapper.odometry import FALLBACK_VEL_BIAS_SIGMA, OdometryEstimator
from limapper.synthetic import generate_synthetic_scene, square_loop_scene


@pytest.fixture(scope="module")
def loop_scene():
    # 14 scans; the sensor stands still for the bootstrap window, then
    # reaches 3 m/s within 0.5 s
    return generate_synthetic_scene(square_loop_scene(
        perimeter=40, speed=3.0, n_frames=12, seed=3, settle=0.6,
        ramp_time=0.5))


def imu_batches(scene, init_window):
    """IMU samples up to each scan's end; the first batch also covers the
    stationary window the bootstrap needs."""
    batches, j = [], 0
    for k, scan in enumerate(scene.scans):
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
