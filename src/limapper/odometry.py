"""Frontend estimator: keyframe-based fixed-lag smoothing over a sliding
window of frame states.

Each incoming scan is predicted forward with the IMU, deskewed, annotated
with covariances, and tied into the window graph with a preintegrated-motion
factor to the previous frame, matching-cost factors to the last few frames
and to every keyframe (unary against keyframes whose states have been
marginalized out), then the window is re-optimized.  Frames leaving the lag
window are folded into a dense marginal prior and handed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .errors import InitializationMotion, NotConverged, OutOfOrder, RunFinished
from .factor_graph import (
    FactorGraph,
    ImuFactor,
    Key,
    MatchingCostFactor,
    PriorFactor,
    frame_key,
)
from .geometry import (
    Rotation,
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    so3_exp,
)
from .imu import ImuSample, predict_state, preintegrate
from .preprocess import (
    Frame,
    RawScan,
    deskew,
    estimate_covariances,
    frame_from_scan,
    knn_search,
    voxel_downsample,
)
from .registration import GaussianVoxelMap, build_voxelmap, overlap_rate

# velocity and bias prior strengths handed downstream when the window's
# normal equations cannot be factorized
FALLBACK_VEL_BIAS_SIGMA = np.concatenate([np.full(3, 0.5), np.full(6, 0.05)])


def initialize_from_rest(samples, gravity, window: float = 0.5,
                         gyro_limit: float = 0.05, stamp: float | None = None
                         ) -> SensorState:
    """Bootstrap orientation and biases from stationary IMU data.

    Aligns the mean specific force with the gravity reaction (roll/pitch
    only, yaw zero), takes the gyro mean as gyro bias, and attributes any
    leftover specific-force magnitude to the accelerometer bias.
    """
    if not samples:
        raise InitializationMotion("no IMU samples for initialization")
    t0 = samples[0].stamp
    window_samples = [s for s in samples if s.stamp <= t0 + window]
    if not window_samples or window_samples[-1].stamp - t0 < window - 1e-6:
        raise InitializationMotion(
            f"need {window}s of IMU data, have "
            f"{window_samples[-1].stamp - t0 if window_samples else 0:.3f}s")
    gyro = np.array([s.gyro for s in window_samples])
    # average short chunks so white noise does not masquerade as motion
    n_chunks = max(1, len(gyro) // 20)
    for chunk in np.array_split(gyro, n_chunks):
        if np.linalg.norm(chunk.mean(axis=0)) > gyro_limit:
            raise InitializationMotion("gyro activity above the stationary limit")
    accel = np.array([s.accel for s in window_samples])
    mean_a = accel.mean(axis=0)
    mean_g = gyro.mean(axis=0)
    g_norm = float(np.linalg.norm(gravity))

    up = mean_a / np.linalg.norm(mean_a)  # gravity reaction direction, body
    target = np.array([0.0, 0.0, 1.0])
    cross = np.cross(up, target)
    s = np.linalg.norm(cross)
    c = float(up @ target)
    if s < 1e-12:
        rot = Rotation.identity() if c > 0 else so3_exp([math.pi, 0.0, 0.0])
    else:
        rot = so3_exp(cross / s * math.atan2(s, c))
    bias_accel = mean_a - rot.inverse().apply(target * g_norm)
    return SensorState(
        pose=Se3Pose(rot, np.zeros(3)),
        velocity=np.zeros(3),
        bias_accel=bias_accel,
        bias_gyro=mean_g,
        stamp=t0 if stamp is None else stamp,
    )


def keyframe_score(i: int, overlaps: np.ndarray) -> float:
    """Removal score of keyframe i given the pairwise overlap matrix.

    High score means redundant: well overlapped with the latest keyframe and
    with the other retained keyframes.  The first and latest keyframes are
    not scored.
    """
    m = overlaps.shape[0]
    total = 0.0
    for j in range(1, m - 1):
        if j != i:
            total += 1.0 - overlaps[i, j]
    return float(overlaps[i, m - 1] * total)


@dataclass(eq=False)
class WindowFrame:
    """One scan in the odometry window.

    A keyframe is a window frame that stays on as a matching target after
    it is marginalized; the keyframe set holds the same objects as the
    window, so membership tests go by identity.
    """

    index: int
    pre_frame: Frame | None  # pre-deskew cloud; None once handed downstream
    frame: Frame  # deskewed, covariances attached
    voxelmap: GaussianVoxelMap | None  # None for an empty frame
    state: SensorState  # window estimate; final once marginalized
    scan_start: float
    scan_end: float
    marginalized: bool = False

    @property
    def key(self) -> Key:
        return frame_key(self.index)


@dataclass
class MarginalizedFrame:
    """Frame leaving the odometry window, handed to local mapping.

    Keeps the pre-deskew cloud (with neighbor lists) so the receiving stage
    can re-deskew against the refined state estimate.
    """

    frame_index: int
    frame: Frame  # pre-deskew, downsampled, neighbors attached
    state: SensorState
    vel_bias_sigma: np.ndarray  # (9,) prior strengths for velocity and bias
    scan_start: float
    scan_end: float


@dataclass
class OdometryResult:
    state: SensorState
    marginalized: list
    warning: str | None = None


class OdometryEstimator:
    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.config.validate()
        self.noise = self.config.noise_params()
        self.gravity = self.noise.gravity
        self.graph = FactorGraph()
        self.keyframes: list[WindowFrame] = []
        self.keyframe_events: list[dict] = []
        self._window: list[WindowFrame] = []  # oldest first
        self._imu: list[ImuSample] = []
        self._next_index = 0
        self._last_scan_start = -math.inf
        self._initialized = False
        self._finished = False

    # -- helpers ---------------------------------------------------------------

    def _push_imu(self, samples) -> None:
        for s in samples:
            if not self._imu or s.stamp > self._imu[-1].stamp:
                self._imu.append(s)
        # keep the buffer bounded: only the current inter-frame span and the
        # initialization window are ever read back
        if self._initialized and self._window:
            horizon = self._window[-1].scan_start - 1.0
            drop = 0
            while drop < len(self._imu) - 1 and self._imu[drop + 1].stamp < horizon:
                drop += 1
            if drop:
                del self._imu[:drop]

    def _imu_between(self, t0: float, t1: float):
        pad = 2.0 * self.config.preprocess.max_imu_gap
        return [s for s in self._imu if t0 - pad <= s.stamp <= t1 + pad]

    def _prepare(self, scan: RawScan) -> Frame:
        cfg = self.config.preprocess
        frame = frame_from_scan(voxel_downsample(scan, cfg.downsample_resolution))
        if len(frame) >= cfg.knn:
            frame = replace(frame, neighbors=knn_search(frame, cfg.knn))
        return frame

    def _finish_frame(self, pre_frame: Frame, state: SensorState) -> Frame:
        """Deskew with the predicted state and attach covariances."""
        cfg = self.config.preprocess
        if len(pre_frame) == 0:
            return replace(pre_frame, deskewed=True,
                           covs=np.zeros((0, 3, 3)))
        samples = self._imu_between(pre_frame.stamp, pre_frame.scan_end)
        frame = deskew(pre_frame, samples, state, gravity=self.gravity,
                       max_gap=cfg.max_imu_gap)
        if frame.neighbors is None:
            return replace(frame, covs=np.zeros((len(frame), 3, 3)))
        return estimate_covariances(frame, cfg.plane_eps)

    def _overlap(self, a: WindowFrame, b: WindowFrame) -> float:
        """Fraction of a's points in occupied voxels of b's map."""
        rel = pose_compose(pose_inverse(b.state.pose), a.state.pose)
        return overlap_rate(a.frame, b.voxelmap, rel)

    # -- main entry --------------------------------------------------------------

    def process_frame(self, scan: RawScan, imu_samples) -> OdometryResult:
        """Add one scan to the window and re-optimize it.

        A scan that raises before it enters the graph leaves the estimator
        as it was, apart from buffering its IMU samples, so it can be sent
        again with more IMU data.
        """
        if self._finished:
            raise RunFinished("finish() ended this run; use a new estimator")
        if scan.scan_start <= self._last_scan_start:
            raise OutOfOrder(
                f"scan at {scan.scan_start:.6f} does not follow "
                f"{self._last_scan_start:.6f}")
        self._push_imu(imu_samples)
        cfg = self.config.odometry

        pre_frame = self._prepare(scan)
        if not self._initialized:
            state = initialize_from_rest(
                self._imu, self.gravity, window=cfg.init_window,
                gyro_limit=cfg.init_gyro_limit, stamp=scan.scan_start)
            pre = None
        else:
            prev = self._window[-1]
            pre = preintegrate(self._imu_between(prev.scan_start, scan.scan_start),
                               prev.scan_start, scan.scan_start,
                               prev.state.bias, self.noise,
                               max_gap=self.config.preprocess.max_imu_gap)
            state = predict_state(prev.state, pre, self.gravity)

        frame = self._finish_frame(pre_frame, state)
        vmap = build_voxelmap(frame, cfg.voxel_resolution) if len(frame) else None
        rec = WindowFrame(index=self._next_index, pre_frame=pre_frame,
                          frame=frame, voxelmap=vmap, state=state,
                          scan_start=scan.scan_start, scan_end=scan.scan_end)
        self._next_index += 1
        self._last_scan_start = scan.scan_start
        self._initialized = True
        self.graph.add_variable(rec.key, state)

        if pre is None:
            # bootstrap: anchor the first state completely
            info = np.concatenate([np.full(6, 1e6), np.full(3, 1e4),
                                   np.full(6, 1e4)])
            self.graph.add_factor(PriorFactor(rec.key, state, info))
        else:
            self.graph.add_factor(ImuFactor(
                self._window[-1].key, rec.key, pre, self.gravity,
                walk_information=self._walk_information(pre.dt_total)))

        if len(frame):
            self._add_matching_factors(rec)

        settings = replace(self.config.optimizer, max_iterations=min(
            self.config.optimizer.max_iterations, cfg.lm_max_iterations))
        snapshot = dict(self.graph.values)
        warning = None
        try:
            self.graph.optimize_lm(settings)
        except NotConverged:
            warning = "optimizer did not converge; prediction retained"
            self.graph.values = snapshot
        self._window.append(rec)
        for f in self._window:
            f.state = self.graph.values[f.key]

        if len(frame):
            self._keyframe_update(rec)

        marginalized = self._marginalize_old_frames()
        return OdometryResult(state=rec.state, marginalized=marginalized,
                              warning=warning)

    def finish(self) -> list:
        """Flush: marginalize and emit every frame still in the window.
        This ends the run: process_frame raises RunFinished afterwards."""
        self._finished = True
        out = []
        while self._window:
            out.append(self._emit_oldest())
        return out

    # -- factors -------------------------------------------------------------------

    def _walk_information(self, dt: float) -> np.ndarray:
        dt = max(dt, 1e-3)
        return np.concatenate([
            np.full(3, 1.0 / (self.noise.accel_bias_walk**2 * dt)),
            np.full(3, 1.0 / (self.noise.gyro_bias_walk**2 * dt)),
        ])

    def _add_matching_factors(self, rec: WindowFrame) -> None:
        """Link rec to the recent frames (newest first), then to the
        keyframes not linked already.

        A marginalized keyframe that any point of rec hits gets a unary
        factor; a window frame with at least min_inliers hits gets a binary
        one.
        """
        cfg = self.config.odometry
        recent = [f for f in self._window[::-1][:cfg.recent_frame_links]
                  if f.voxelmap is not None]
        targets = recent + [kf for kf in self.keyframes if kf not in recent]
        for target in targets:
            rel = pose_compose(pose_inverse(target.state.pose), rec.state.pose)
            moved = rec.frame.points @ rel.rotation.matrix().T + rel.translation
            hits = int(np.count_nonzero(target.voxelmap.lookup(moved) >= 0))
            if target.marginalized:
                if hits:
                    self.graph.add_factor(MatchingCostFactor(
                        rec.key, rec.frame, target.voxelmap,
                        fixed_target_pose=target.state.pose,
                        min_inliers=cfg.min_inliers))
            elif hits >= cfg.min_inliers:
                self.graph.add_factor(MatchingCostFactor(
                    rec.key, rec.frame, target.voxelmap, key_target=target.key,
                    min_inliers=cfg.min_inliers))

    # -- keyframes --------------------------------------------------------------------

    def _keyframe_update(self, rec: WindowFrame) -> None:
        cfg = self.config.odometry
        event = {"frame_index": rec.index, "inserted": False,
                 "dropped_low_overlap": [], "removed_by_score": None}
        if not self.keyframes or (
                self._overlap(rec, self.keyframes[-1])
                < cfg.keyframe_insert_overlap):
            event["inserted"] = True
            # rule 1: drop keyframes barely overlapping the new one
            kept = []
            for kf in self.keyframes:
                if self._overlap(kf, rec) < cfg.keyframe_drop_overlap:
                    event["dropped_low_overlap"].append(kf.index)
                else:
                    kept.append(kf)
            self.keyframes = kept + [rec]
            # rule 2: scored removal keeps the set bounded
            if len(self.keyframes) > cfg.max_keyframes:
                overlaps = self._overlap_matrix()
                m = len(self.keyframes)
                scores = np.full(m, np.inf)
                for i in range(1, m - 1):
                    scores[i] = keyframe_score(i, overlaps)
                victim = int(np.argmin(scores))
                event["removed_by_score"] = {
                    "keyframe_ids": [kf.index for kf in self.keyframes],
                    "overlaps": overlaps,
                    "scores": scores.copy(),
                    "removed": self.keyframes[victim].index,
                }
                del self.keyframes[victim]
        self.keyframe_events.append(event)

    def _overlap_matrix(self) -> np.ndarray:
        m = len(self.keyframes)
        out = np.zeros((m, m))
        for i, kf_i in enumerate(self.keyframes):
            for j, kf_j in enumerate(self.keyframes):
                if i != j:
                    out[i, j] = self._overlap(kf_i, kf_j)
        return out

    # -- marginalization -------------------------------------------------------------------

    def _marginalize_old_frames(self) -> list:
        out = []
        while len(self._window) > self.config.odometry.smoothing_lag:
            out.append(self._emit_oldest())
        return out

    def _emit_oldest(self) -> MarginalizedFrame:
        rec = self._window.pop(0)
        try:
            cov = self.graph.marginal_covariance(rec.key)
            sigmas = np.sqrt(np.clip(np.diag(cov)[6:15], 1e-12, None))
        except np.linalg.LinAlgError:
            sigmas = FALLBACK_VEL_BIAS_SIGMA.copy()
        self.graph.marginalize([rec.key])
        rec.marginalized = True
        out = MarginalizedFrame(
            frame_index=rec.index, frame=rec.pre_frame, state=rec.state,
            vel_bias_sigma=sigmas, scan_start=rec.scan_start,
            scan_end=rec.scan_end)
        rec.pre_frame = None  # a keyframe keeps only what matching reads
        return out
