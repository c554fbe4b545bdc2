"""Pipeline configuration: one flat key-value document covering every stage.

Keys use dotted section prefixes, the field names of ``PipelineConfig``
(``odometry.max_keyframes = 20``).  Unknown keys are rejected and all
thresholds validated against their documented ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidConfig, ParseError
from .factor_graph import LmSettings
from .imu import ImuNoiseParams


@dataclass
class PreprocessConfig:
    downsample_resolution: float = 0.25  # m
    knn: int = 10
    plane_eps: float = 1e-3
    max_imu_gap: float = 0.02  # s


@dataclass
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


@dataclass
class ImuConfig:
    accel_noise_density: float = 0.02
    gyro_noise_density: float = 0.002
    accel_bias_walk: float = 2e-4
    gyro_bias_walk: float = 2e-5
    gravity_z: float = -9.80665


@dataclass
class PipelineConfig:
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    odometry: OdometryConfig = field(default_factory=OdometryConfig)
    imu: ImuConfig = field(default_factory=ImuConfig)
    # window solves start warm; cap the tail
    optimizer: LmSettings = field(default_factory=lambda: LmSettings(max_iterations=15))

    def validate(self) -> None:
        """Raise InvalidConfig, naming the key, for the first value out of
        range.  Comparisons are written so that NaN fails them."""
        pre, odo, opt = self.preprocess, self.odometry, self.optimizer
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
        # a plane through a point's neighbourhood needs 3 points to be defined
        _require(pre.knn >= 3, "preprocess.knn", "knn must be at least 3")
        for name in ("downsample_resolution", "plane_eps", "max_imu_gap"):
            _require(getattr(pre, name) > 0, f"preprocess.{name}", "must be positive")
        _require(opt.max_iterations >= 1, "optimizer.max_iterations",
                 "LM iteration caps must be at least 1")
        lambdas = "need 0 < optimizer.lambda_init < optimizer.lambda_max"
        _require(opt.lambda_init > 0, "optimizer.lambda_init", lambdas)
        _require(opt.lambda_max > 0, "optimizer.lambda_max", lambdas)
        _require(opt.lambda_init < opt.lambda_max, "optimizer.lambda_init", lambdas)
        for name in ("rel_cost_tol", "update_tol"):
            _require(getattr(opt, name) >= 0, f"optimizer.{name}", "must not be negative")
        _require(odo.voxel_resolution > 0, "odometry.voxel_resolution", "must be positive")
        for name in ("accel_noise_density", "gyro_noise_density",
                     "accel_bias_walk", "gyro_bias_walk"):
            _require(getattr(self.imu, name) > 0, f"imu.{name}", "must be positive")

    def noise_params(self) -> ImuNoiseParams:
        return ImuNoiseParams(
            accel_noise_density=self.imu.accel_noise_density,
            gyro_noise_density=self.imu.gyro_noise_density,
            accel_bias_walk=self.imu.accel_bias_walk,
            gyro_bias_walk=self.imu.gyro_bias_walk,
            gravity=np.array([0.0, 0.0, self.imu.gravity_z]),
        )

    # -- flat key-value mapping ------------------------------------------------

    def apply(self, key: str, raw_value: str) -> None:
        if "." not in key:
            raise ParseError(f"key {key!r} is missing its section prefix")
        section_name, _, field_name = key.partition(".")
        if section_name not in {f.name for f in fields(self)}:
            raise ParseError(f"unknown section {section_name!r}")
        section = getattr(self, section_name)
        matching = {f.name: f for f in fields(section)}
        if field_name not in matching:
            raise ParseError(f"unknown key {key!r}")
        ftype = matching[field_name].type
        value = _convert(raw_value, ftype, key)
        setattr(section, field_name, value)

    def items(self):
        for sec in fields(self):
            section = getattr(self, sec.name)
            for f in fields(section):
                yield f"{sec.name}.{f.name}", getattr(section, f.name)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        cfg = cls()
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"line {lineno}: expected 'key = value'",
                                     path=path, offset=lineno)
                key, _, raw = line.partition("=")
                try:
                    cfg.apply(key.strip(), raw.strip())
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}", path=path,
                                     offset=lineno)
        cfg.validate()
        return cfg

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            for key, value in self.items():
                fh.write(f"{key} = {value}\n")


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise InvalidConfig(key, message)


def _convert(raw: str, ftype: str, key: str):
    ftype = str(ftype)
    try:
        if "int" in ftype:
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ParseError(f"{key}: cannot parse {raw!r} as {ftype}")
    if not math.isfinite(value):
        raise ParseError(f"{key}: {raw!r} is not a finite number")
    return value
