import numpy as np
import pytest

from limapper.config import PipelineConfig
from limapper.errors import InvalidConfig, PipelineError
from limapper.factor_graph import LmSettings
from limapper.odometry import OdometryEstimator


class TestRejection:
    def test_validate_rejects_crossed_overlaps(self):
        config = PipelineConfig()
        config.odometry.keyframe_drop_overlap = 0.95
        with pytest.raises(ValueError, match="drop overlap"):
            config.validate()
        config = PipelineConfig()
        config.odometry.max_keyframes = 1
        with pytest.raises(ValueError, match="max_keyframes"):
            config.validate()

    def test_validate_recent_frame_links(self):
        config = PipelineConfig()
        config.odometry.recent_frame_links = 0  # link keyframes only
        config.validate()
        config.odometry.recent_frame_links = -1
        with pytest.raises(ValueError, match="recent_frame_links"):
            config.validate()


class TestBadValues:
    @pytest.mark.parametrize("section, name, value, match", [
        ("optimizer", "max_iterations", 0, "iteration caps"),
        # a float count let a raw TypeError escape every process_frame
        ("preprocess", "knn", 10.0, "integer"),
        ("odometry", "recent_frame_links", 2.0, "integer"),
        ("preprocess", "knn", 0, "knn"),
        ("preprocess", "knn", 1, "knn"),  # every covariance would be eps * I
        ("preprocess", "knn", 2, "knn"),  # every normal an arbitrary one
        ("preprocess", "plane_eps", 0.0, "plane_eps"),
        ("preprocess", "max_imu_gap", -0.02, "max_imu_gap"),
        ("preprocess", "downsample_resolution", float("nan"), "downsample_resolution"),
        # a NaN gravity let numpy's LinAlgError escape every process_frame
        ("imu", "gravity_z", float("nan"), "gravity_z"),
        # the bootstrap assumes gravity along -z: +g let the estimate climb
        ("imu", "gravity_z", 9.80665, "gravity_z"),
        ("imu", "gravity_z", 0.0, "gravity_z"),
        # a NaN window made every bootstrap raise InitializationMotion
        ("odometry", "init_window", float("nan"), "init_window"),
        ("odometry", "init_window", 0.0, "init_window"),
        # a NaN limit switched the bootstrap's motion check off
        ("odometry", "init_gyro_limit", float("nan"), "init_gyro_limit"),
        ("odometry", "init_gyro_limit", -0.05, "init_gyro_limit"),
    ])
    def test_validate_rejects(self, section, name, value, match):
        config = PipelineConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(ValueError, match=match):
            config.validate()

    def test_limits_themselves_pass(self):
        config = PipelineConfig()
        config.optimizer.max_iterations = 1
        config.preprocess.knn = np.int64(3)  # numpy's integers are counts too
        config.validate()

    def test_estimator_validates_its_config(self):
        # knn = 0 used to let numpy's zero-size reduction error escape
        # process_frame
        config = PipelineConfig()
        config.preprocess.knn = 0
        with pytest.raises(ValueError, match="knn"):
            OdometryEstimator(config)


class TestInvalidConfig:
    @pytest.mark.parametrize("section, name, value, key", [
        ("odometry", "keyframe_insert_overlap", 1.0, "odometry.keyframe_insert_overlap"),
        ("odometry", "keyframe_drop_overlap", 0.95, "odometry.keyframe_drop_overlap"),
        ("odometry", "max_keyframes", 1, "odometry.max_keyframes"),
        ("odometry", "smoothing_lag", 0, "odometry.smoothing_lag"),
        ("odometry", "recent_frame_links", -1, "odometry.recent_frame_links"),
        # with 0, every frame would link to an empty frame by an inert factor
        ("odometry", "min_inliers", 0, "odometry.min_inliers"),
        ("preprocess", "knn", 0, "preprocess.knn"),
        ("preprocess", "knn", 2, "preprocess.knn"),
        ("preprocess", "plane_eps", 0.0, "preprocess.plane_eps"),
        ("optimizer", "max_iterations", 0, "optimizer.max_iterations"),
        ("preprocess", "knn", 10.0, "preprocess.knn"),
        ("odometry", "max_keyframes", 20.0, "odometry.max_keyframes"),
        ("odometry", "recent_frame_links", 2.0, "odometry.recent_frame_links"),
        ("odometry", "smoothing_lag", 5.0, "odometry.smoothing_lag"),
        ("odometry", "min_inliers", 10.0, "odometry.min_inliers"),
        ("optimizer", "max_iterations", 15.0, "optimizer.max_iterations"),
        ("odometry", "voxel_resolution", 0.0, "odometry.voxel_resolution"),
        ("imu", "gyro_bias_walk", 0.0, "imu.gyro_bias_walk"),
        ("imu", "gravity_z", float("nan"), "imu.gravity_z"),
        ("odometry", "init_window", float("nan"), "odometry.init_window"),
        ("odometry", "init_gyro_limit", float("nan"), "odometry.init_gyro_limit"),
    ])
    def test_names_the_key(self, section, name, value, key):
        config = PipelineConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(InvalidConfig) as info:
            config.validate()
        assert isinstance(info.value, PipelineError)
        assert info.value.key == key
        assert str(info.value).startswith(key + ": ")

    def test_raised_by_the_estimator(self):
        config = PipelineConfig()
        config.imu.accel_noise_density = -0.02
        with pytest.raises(InvalidConfig, match="imu.accel_noise_density"):
            OdometryEstimator(config)


class TestClosedSections:
    @pytest.mark.parametrize("section, name", [
        ("odometry", "min_inlier"),  # misspelt: it would change nothing
        ("optimizer", "lambda_init"),  # a deleted key
        (None, "optimiser"),  # a misspelt section
    ])
    def test_unknown_key_raises(self, section, name):
        config = PipelineConfig()
        with pytest.raises(AttributeError):
            setattr(config if section is None else getattr(config, section), name, 50)

    def test_one_lm_cap(self):
        # a solve without settings runs the cap the pipeline runs
        assert LmSettings().max_iterations == PipelineConfig().optimizer.max_iterations
