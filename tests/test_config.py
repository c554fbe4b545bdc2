import pytest

from limapper.config import PipelineConfig
from limapper.errors import InvalidConfig, ParseError, PipelineError
from limapper.factor_graph import LmSettings
from limapper.odometry import OdometryEstimator


def write(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    return str(path)


class TestFileRoundTrip:
    def test_every_key_survives(self, tmp_path):
        config = PipelineConfig()
        config.preprocess.knn = 12
        config.odometry.keyframe_insert_overlap = 0.85
        config.imu.gravity_z = -9.81
        config.optimizer.rel_cost_tol = 2.5e-7
        path = str(tmp_path / "pipeline.cfg")
        config.to_file(path)
        loaded = PipelineConfig.from_file(path)
        assert loaded == config
        assert isinstance(loaded.optimizer, LmSettings)
        assert isinstance(loaded.preprocess.knn, int)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "# window\n\nodometry.smoothing_lag = 7  # frames\n")
        assert PipelineConfig.from_file(path).odometry.smoothing_lag == 7


class TestRejection:
    @pytest.mark.parametrize("line", [
        "odometry.no_such_key = 1",  # unknown key
        "mapping.voxel_resolution = 1.0",  # unknown section
        "max_keyframes = 20",  # missing section prefix
        "preprocess.knn = ten",  # not an integer
        "odometry.smoothing_lag",  # no '='
    ])
    def test_parse_errors_name_the_line(self, tmp_path, line):
        path = write(tmp_path, "odometry.max_keyframes = 20\n" + line + "\n")
        with pytest.raises(ParseError) as info:
            PipelineConfig.from_file(path)
        assert info.value.path == path
        assert info.value.offset == 2

    @pytest.mark.parametrize("line, section", [
        ("local.max_frames = 15", "local"),
        ("global.optimize_every = 5", "global"),
    ])
    def test_removed_sections_are_unknown(self, tmp_path, line, section):
        path = write(tmp_path, "odometry.max_keyframes = 20\n" + line + "\n")
        with pytest.raises(ParseError,
                           match=f"^line 2: unknown section '{section}'$") as info:
            PipelineConfig.from_file(path)
        assert info.value.offset == 2

    @pytest.mark.parametrize("key", [
        "optimizer.dense_threshold",
        "odometry.imu_factors_enabled",
        "odometry.matching_factors_enabled",
    ])
    def test_removed_keys_are_unknown(self, tmp_path, key):
        with pytest.raises(ParseError, match="unknown key"):
            PipelineConfig.from_file(write(tmp_path, f"{key} = 1\n"))

    def test_validate_rejects_crossed_overlaps(self, tmp_path):
        path = write(tmp_path, "odometry.keyframe_drop_overlap = 0.95\n")
        with pytest.raises(ValueError, match="drop overlap"):
            PipelineConfig.from_file(path)
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
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_floats_are_parse_errors(self, tmp_path, raw):
        # a NaN lambda_init used to make optimize_lm loop forever
        path = write(tmp_path, f"odometry.smoothing_lag = 5\noptimizer.lambda_init = {raw}\n")
        with pytest.raises(ParseError, match="finite") as info:
            PipelineConfig.from_file(path)
        assert info.value.offset == 2

    @pytest.mark.parametrize("section, name, value, match", [
        ("optimizer", "max_iterations", 0, "iteration caps"),
        ("optimizer", "lambda_init", 0.0, "lambda_init"),
        ("optimizer", "lambda_init", float("nan"), "lambda_init"),
        ("optimizer", "lambda_init", 1e13, "lambda_init"),  # above lambda_max
        ("optimizer", "lambda_max", float("nan"), "lambda_init"),
        ("optimizer", "rel_cost_tol", -1e-6, "rel_cost_tol"),
        ("optimizer", "update_tol", float("nan"), "update_tol"),
        ("preprocess", "knn", 0, "knn"),
        ("preprocess", "knn", 1, "knn"),  # every covariance would be eps * I
        ("preprocess", "knn", 2, "knn"),  # every normal an arbitrary one
        ("preprocess", "plane_eps", 0.0, "plane_eps"),
        ("preprocess", "max_imu_gap", -0.02, "max_imu_gap"),
        ("preprocess", "downsample_resolution", float("nan"), "downsample_resolution"),
    ])
    def test_validate_rejects(self, section, name, value, match):
        config = PipelineConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(ValueError, match=match):
            config.validate()

    def test_limits_themselves_pass(self):
        config = PipelineConfig()
        config.optimizer.max_iterations = 1
        config.optimizer.rel_cost_tol = 0.0
        config.optimizer.update_tol = 0.0
        config.preprocess.knn = 3
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
        ("optimizer", "lambda_init", 1e13, "optimizer.lambda_init"),
        ("optimizer", "lambda_max", float("nan"), "optimizer.lambda_max"),
        ("optimizer", "update_tol", -1.0, "optimizer.update_tol"),
        ("odometry", "voxel_resolution", 0.0, "odometry.voxel_resolution"),
        ("imu", "gyro_bias_walk", 0.0, "imu.gyro_bias_walk"),
    ])
    def test_names_the_key(self, section, name, value, key):
        config = PipelineConfig()
        setattr(getattr(config, section), name, value)
        with pytest.raises(InvalidConfig) as info:
            config.validate()
        assert isinstance(info.value, PipelineError)
        assert info.value.key == key
        assert str(info.value).startswith(key + ": ")

    def test_from_file_and_estimator(self, tmp_path):
        path = write(tmp_path, "odometry.smoothing_lag = 0\n")
        with pytest.raises(InvalidConfig, match="odometry.smoothing_lag"):
            PipelineConfig.from_file(path)
        config = PipelineConfig()
        config.imu.accel_noise_density = -0.02
        with pytest.raises(InvalidConfig, match="imu.accel_noise_density"):
            OdometryEstimator(config)
