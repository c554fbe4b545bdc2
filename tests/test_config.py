import pytest

from limapper.config import PipelineConfig
from limapper.errors import ParseError
from limapper.factor_graph import LmSettings


def write(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    return str(path)


class TestFileRoundTrip:
    def test_every_key_survives(self, tmp_path):
        config = PipelineConfig()
        config.preprocess.knn = 12
        config.odometry.keyframe_insert_overlap = 0.85
        config.global_mapping.imu_enabled = False
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
        "global.imu_enabled = maybe",  # not a boolean
        "preprocess.knn = ten",  # not an integer
        "odometry.smoothing_lag",  # no '='
    ])
    def test_parse_errors_name_the_line(self, tmp_path, line):
        path = write(tmp_path, "odometry.max_keyframes = 20\n" + line + "\n")
        with pytest.raises(ParseError) as info:
            PipelineConfig.from_file(path)
        assert info.value.path == path
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
