"""Pipeline configuration: one dataclass per stage, gathered in
``PipelineConfig``.

A key names a field by its section, a field of ``PipelineConfig``, and its
name within it (``odometry.voxel_resolution``); ``InvalidConfig`` carries
one.  A key exists for a sensor setting, for a scene-scale setting, or for a
value that a caller outside the tests sets differently.  Anything else is a
module constant of the stage that reads it (the estimator's rules are those
of ``odometry.py``, and gravity is ``imu.GRAVITY``).  The ``imu`` section is
the estimator's one noise record, ``imu.ImuNoiseParams``, which holds the
sensor's noise densities and bias walks, and the ``optimizer`` section is
``factor_graph.LmSettings``.  Every section is a slotted dataclass, so
setting a key that is no field (misspelt or deleted) raises AttributeError.
``validate`` checks every key against its documented range.  There is no
file format: a configuration file comes with the entry point that reads it.
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
    max_imu_gap: float = 0.02  # s


@dataclass(slots=True)
class OdometryConfig:
    voxel_resolution: float = 0.5  # m, per-frame voxel maps
    init_window: float = 0.5  # s of stationary IMU for bootstrapping


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
        _require(isinstance(opt.max_iterations, Integral), "optimizer.max_iterations",
                 "must be an integer")
        _require(odo.init_window > 0, "odometry.init_window", "must be positive")
        for name in ("downsample_resolution", "max_imu_gap"):
            _require(getattr(pre, name) > 0, f"preprocess.{name}", "must be positive")
        _require(opt.max_iterations >= 1, "optimizer.max_iterations",
                 "LM iteration caps must be at least 1")
        _require(odo.voxel_resolution > 0, "odometry.voxel_resolution", "must be positive")
        for name in ("accel_noise_density", "gyro_noise_density",
                     "accel_bias_walk", "gyro_bias_walk"):
            _require(getattr(self.imu, name) > 0, f"imu.{name}", "must be positive")


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise InvalidConfig(key, message)
