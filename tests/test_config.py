import numpy as np
import pytest

from limapper.config import PipelineConfig
from limapper.errors import InvalidConfig, PipelineError
from limapper.factor_graph import LmSettings
from limapper.odometry import OdometryEstimator


class TestBadValues:
    @pytest.mark.parametrize("section, name, value, match", [
        ("optimizer", "max_iterations", 0, "iteration caps"),
        ("preprocess", "max_imu_gap", -0.02, "max_imu_gap"),
        ("preprocess", "downsample_resolution", float("nan"), "downsample_resolution"),
        # a NaN window made every bootstrap raise InitializationMotion
        ("odometry", "init_window", float("nan"), "init_window"),
        ("odometry", "init_window", 0.0, "init_window"),
    ])
    def test_validate_rejects(self, section, name, value, match):
        config = PipelineConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(ValueError, match=match):
            config.validate()

    def test_limits_themselves_pass(self):
        config = PipelineConfig()
        config.optimizer.max_iterations = np.int64(1)  # numpy's integers are counts too
        config.validate()

    def test_estimator_validates_its_config(self):
        config = PipelineConfig()
        config.odometry.voxel_resolution = 0.0
        with pytest.raises(ValueError, match="voxel_resolution"):
            OdometryEstimator(config)


class TestInvalidConfig:
    @pytest.mark.parametrize("section, name, value, key", [
        ("optimizer", "max_iterations", 0, "optimizer.max_iterations"),
        ("optimizer", "max_iterations", 15.0, "optimizer.max_iterations"),
        ("odometry", "voxel_resolution", 0.0, "odometry.voxel_resolution"),
        ("imu", "gyro_bias_walk", 0.0, "imu.gyro_bias_walk"),
        ("odometry", "init_window", float("nan"), "odometry.init_window"),
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
