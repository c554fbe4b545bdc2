"""Pipeline configuration: one flat key-value document covering every stage.

Keys use dotted section prefixes (``odometry.max_keyframes = 20``).  Unknown
keys are rejected and all thresholds validated against their documented
ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError
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
    lm_max_iterations: int = 15  # window solves start warm; cap the tail


@dataclass
class LocalMappingConfig:
    insert_overlap: float = 0.90
    max_frames: int = 15
    min_first_last_overlap: float = 0.05
    velocity_prior_sigma: float = 0.5  # m/s, fallback when no marginal is given
    bias_prior_sigma: float = 0.05
    merged_downsample_resolution: float = 0.4  # m, merged-cloud thinning
    voxel_resolution: float = 0.5  # m, per-frame maps inside the submap graph


@dataclass
class GlobalMappingConfig:
    voxel_resolution: float = 1.0  # m, submap-level maps
    factor_overlap_min: float = 0.05
    optimize_every: int = 5  # submap insertions per optimization pass
    imu_enabled: bool = True
    relative_sigma: float = 1e-3  # stiffness of submap/endpoint coupling


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
    local: LocalMappingConfig = field(default_factory=LocalMappingConfig)
    global_mapping: GlobalMappingConfig = field(default_factory=GlobalMappingConfig)
    imu: ImuConfig = field(default_factory=ImuConfig)
    optimizer: LmSettings = field(default_factory=LmSettings)

    _SECTIONS = {
        "preprocess": "preprocess",
        "odometry": "odometry",
        "local": "local",
        "global": "global_mapping",
        "imu": "imu",
        "optimizer": "optimizer",
    }

    def validate(self) -> None:
        if not (0.0 < self.odometry.keyframe_drop_overlap
                < self.odometry.keyframe_insert_overlap < 1.0):
            raise ValueError("need 0 < drop overlap < insert overlap < 1")
        if self.odometry.max_keyframes < 2:
            raise ValueError("max_keyframes must be at least 2")
        if not (0.0 < self.local.min_first_last_overlap
                < self.local.insert_overlap < 1.0):
            raise ValueError("need 0 < first/last overlap < insert overlap < 1")
        if self.local.max_frames < 1 or self.odometry.smoothing_lag < 1:
            raise ValueError("window sizes must be positive")
        if self.odometry.recent_frame_links < 0:
            raise ValueError("recent_frame_links must not be negative")
        if self.preprocess.knn < 1:
            raise ValueError("preprocess.knn must be at least 1")
        # comparisons written so that NaN fails them
        for name in ("downsample_resolution", "plane_eps", "max_imu_gap"):
            if not getattr(self.preprocess, name) > 0:
                raise ValueError(f"preprocess.{name} must be positive")
        opt = self.optimizer
        if opt.max_iterations < 1 or self.odometry.lm_max_iterations < 1:
            raise ValueError("LM iteration caps must be at least 1")
        if not 0.0 < opt.lambda_init < opt.lambda_max:
            raise ValueError("need 0 < optimizer.lambda_init < optimizer.lambda_max")
        for name in ("rel_cost_tol", "update_tol"):
            if not getattr(opt, name) >= 0:
                raise ValueError(f"optimizer.{name} must not be negative")
        for cfg, name in ((self.odometry, "voxel_resolution"),
                          (self.global_mapping, "voxel_resolution"),
                          (self.local, "voxel_resolution")):
            if getattr(cfg, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.global_mapping.factor_overlap_min < 1.0):
            raise ValueError("global overlap gate must lie in (0, 1)")
        self.noise_params()

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
        attr = self._SECTIONS.get(section_name)
        if attr is None:
            raise ParseError(f"unknown section {section_name!r}")
        section = getattr(self, attr)
        matching = {f.name: f for f in fields(section)}
        if field_name not in matching:
            raise ParseError(f"unknown key {key!r}")
        ftype = matching[field_name].type
        value = _convert(raw_value, ftype, key)
        setattr(section, field_name, value)

    def items(self):
        for section_name, attr in self._SECTIONS.items():
            section = getattr(self, attr)
            for f in fields(section):
                yield f"{section_name}.{f.name}", getattr(section, f.name)

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
                if isinstance(value, bool):
                    value = "true" if value else "false"
                fh.write(f"{key} = {value}\n")


def _convert(raw: str, ftype: str, key: str):
    ftype = str(ftype)
    if "bool" in ftype:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ParseError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if "int" in ftype:
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ParseError(f"{key}: cannot parse {raw!r} as {ftype}")
    if not math.isfinite(value):
        raise ParseError(f"{key}: {raw!r} is not a finite number")
    return value
