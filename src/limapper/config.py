"""Pipeline configuration: one dataclass per stage, gathered in
``PipelineConfig``.

A key names a field by its section, a field of ``PipelineConfig``, and its
name within it (``odometry.max_keyframes``); ``InvalidConfig`` carries one.
The ``imu`` section is the estimator's one noise record,
``imu.ImuNoiseParams``, and the ``optimizer`` section is
``factor_graph.LmSettings``.  Every section is a slotted dataclass, so
setting a key that is no field (misspelt or deleted) raises AttributeError.
``validate`` checks every threshold against its documented range.  There is
no file format: a configuration file comes with the entry point that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from .errors import InvalidConfig
from .factor_graph import LmSettings
from .imu import ImuNoiseParams


@dataclass(slots=True)
class PreprocessConfig:
    downsample_resolution: float = 0.25  # m
    knn: int = 10
    plane_eps: float = 1e-3
    max_imu_gap: float = 0.02  # s


@dataclass(slots=True)
class OdometryConfig:
    voxel_resolution: float = 0.5  # m, per-frame voxel maps
    keyframe_insert_overlap: float = 0.90
    keyframe_drop_overlap: float = 0.05
    max_keyframes: int = 20
    recent_frame_links: int = 3  # 0 links keyframes only
    smoothing_lag: int = 5
    min_inliers: int = 10
    init_window: float = 0.5  # s of stationary IMU for bootstrapping
    init_gyro_limit: float = 0.05  # rad/s


@dataclass(slots=True)
class PipelineConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    odometry: OdometryConfig = field(default_factory=OdometryConfig)
    imu: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    optimizer: LmSettings = field(default_factory=LmSettings)

    def validate(self) -> None:
        """Raise InvalidConfig, naming the key, for the first value out of
        range.  Comparisons are written so that NaN fails them, and a count
        must be an integer (numpy's too)."""
        pre, odo, opt = self.preprocess, self.odometry, self.optimizer
        for key, value in (("preprocess.knn", pre.knn),
                           ("odometry.max_keyframes", odo.max_keyframes),
                           ("odometry.recent_frame_links", odo.recent_frame_links),
                           ("odometry.smoothing_lag", odo.smoothing_lag),
                           ("odometry.min_inliers", odo.min_inliers),
                           ("optimizer.max_iterations", opt.max_iterations)):
            _require(isinstance(value, Integral), key, "must be an integer")
        _require(0.0 < odo.keyframe_insert_overlap < 1.0,
                 "odometry.keyframe_insert_overlap", "insert overlap must lie in (0, 1)")
        _require(0.0 < odo.keyframe_drop_overlap < odo.keyframe_insert_overlap,
                 "odometry.keyframe_drop_overlap",
                 "need 0 < drop overlap < insert overlap < 1")
        _require(odo.max_keyframes >= 2, "odometry.max_keyframes",
                 "max_keyframes must be at least 2")
        _require(odo.smoothing_lag >= 1, "odometry.smoothing_lag",
                 "window sizes must be positive")
        _require(odo.recent_frame_links >= 0, "odometry.recent_frame_links",
                 "recent_frame_links must not be negative")
        _require(odo.min_inliers >= 1, "odometry.min_inliers",
                 "a matching factor needs at least 1 inlier")
        for name in ("init_window", "init_gyro_limit"):
            _require(getattr(odo, name) > 0, f"odometry.{name}", "must be positive")
        # a plane through a point's neighbourhood needs 3 points to be defined
        _require(pre.knn >= 3, "preprocess.knn", "knn must be at least 3")
        for name in ("downsample_resolution", "plane_eps", "max_imu_gap"):
            _require(getattr(pre, name) > 0, f"preprocess.{name}", "must be positive")
        _require(opt.max_iterations >= 1, "optimizer.max_iterations",
                 "LM iteration caps must be at least 1")
        _require(odo.voxel_resolution > 0, "odometry.voxel_resolution", "must be positive")
        for name in ("accel_noise_density", "gyro_noise_density",
                     "accel_bias_walk", "gyro_bias_walk"):
            _require(getattr(self.imu, name) > 0, f"imu.{name}", "must be positive")
        # the bootstrap aligns the specific force with +z, so gravity points down
        _require(self.imu.gravity_z < 0, "imu.gravity_z", "gravity must point along -z")


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise InvalidConfig(key, message)

