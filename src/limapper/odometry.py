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
from .errors import (
    InitializationMotion,
    NonFiniteStamp,
    NotConverged,
    OutOfOrder,
    RunFinished,
)
from .factor_graph import (
    FactorGraph,
    ImuFactor,
    Key,
    MatchingCostFactor,
    PriorFactor,
    frame_key,
    matching_hits,
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
    leftover specific-force magnitude to the accelerometer bias.  Raises
    InitializationMotion, naming the cause, when the window does not qualify;
    it is marked ``unusable`` unless the window is only too short.
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
    accel = np.array([s.accel for s in window_samples])
    if not (np.isfinite(gyro).all() and np.isfinite(accel).all()):
        raise InitializationMotion("non-finite IMU sample in the init window",
                                   unusable=True)
    # average short chunks so white noise does not masquerade as motion
    n_chunks = max(1, len(gyro) // 20)
    for chunk in np.array_split(gyro, n_chunks):
        if np.linalg.norm(chunk.mean(axis=0)) > gyro_limit:
            raise InitializationMotion("gyro activity above the stationary limit",
                                       unusable=True)
    mean_a = accel.mean(axis=0)
    mean_g = gyro.mean(axis=0)
    g_norm = float(np.linalg.norm(gravity))
    a_norm = float(np.linalg.norm(mean_a))
    if not 0.0 < a_norm < math.inf:
        raise InitializationMotion(
            f"mean specific force {a_norm:g}: no gravity direction", unusable=True)

    up = mean_a / a_norm  # gravity reaction direction, body
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


def finite_samples(samples, stamp_only: bool = False) -> tuple[list, int]:
    """The samples whose stamp, accel and gyro are all finite (only the
    stamp, if stamp_only), and the count of the others."""
    values = np.array([[s.stamp, *s.accel, *s.gyro] for s in samples],
                      dtype=float).reshape(-1, 7)
    finite = np.isfinite(values[:, :1] if stamp_only else values).all(axis=1)
    return [s for s, ok in zip(samples, finite) if ok], int((~finite).sum())


def check_stamps(scan: RawScan) -> None:
    """Raise NonFiniteStamp unless the scan's span and point stamps are
    finite."""
    for name, value in (("scan_start", scan.scan_start), ("scan_end", scan.scan_end)):
        if not math.isfinite(value):
            raise NonFiniteStamp(f"{name} is {value}")
    bad = np.flatnonzero(~np.isfinite(scan.stamps))
    if bad.size:
        raise NonFiniteStamp(
            f"{bad.size} point stamps are not finite, the first at point "
            f"{bad[0]}: {scan.stamps[bad[0]]}")


@dataclass(eq=False)
class WindowFrame:
    """One scan in the odometry window.

    A keyframe is a window frame that stays on as a matching target after
    it is marginalized; the keyframe set holds the same objects as the
    window, so membership tests go by identity.  The scan span is read from
    ``frame``, and an empty frame has an empty voxel map.
    """

    index: int
    pre_frame: Frame | None  # pre-deskew cloud; None once handed downstream
    frame: Frame  # deskewed, covariances attached
    voxelmap: GaussianVoxelMap
    state: SensorState  # window estimate; final once marginalized
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


@dataclass
class OdometryResult:
    state: SensorState
    marginalized: list
    warning: str | None = None


class OdometryEstimator:
    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.config.validate()
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

    def _push_imu(self, samples) -> int:
        """Buffer the samples newer than the last buffered one, leaving out
        those with a non-finite stamp and, once the run has started, those
        with any non-finite value; return the count left out.  Before the
        bootstrap, a sample with a non-finite accel or gyro value is
        buffered, so that the bootstrap names its window unusable."""
        samples, dropped = finite_samples(samples, stamp_only=not self._initialized)
        for s in samples:
            if not self._imu or s.stamp > self._imu[-1].stamp:
                self._imu.append(s)
        # keep the buffer bounded: only the current inter-frame span and the
        # initialization window are ever read back
        if self._initialized and self._window:
            horizon = self._window[-1].frame.scan_start - 1.0
            drop = 0
            while drop < len(self._imu) - 1 and self._imu[drop + 1].stamp < horizon:
                drop += 1
            if drop:
                del self._imu[:drop]
        return dropped

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
        samples = self._imu_between(pre_frame.scan_start, pre_frame.scan_end)
        frame = deskew(pre_frame, samples, state, gravity=self.config.imu.gravity,
                       max_gap=cfg.max_imu_gap)
        if frame.neighbors is None:
            # fewer points than knn: no neighbourhood to fit, so take the
            # flat-neighbourhood fallback of estimate_covariances
            n = len(frame)
            return replace(frame, covs=np.tile(cfg.plane_eps * np.eye(3), (n, 1, 1)),
                           degenerate=np.ones(n, dtype=bool))
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
        again with more IMU data.  A bootstrap that finds its samples
        unusable drops every buffered sample instead, so that the scan can
        be sent again with new samples, also ones of the same stamps.
        IMU samples with a non-finite stamp are left out, and after the
        bootstrap so are those with a non-finite value; the scan's warning
        gives their count.
        """
        if self._finished:
            raise RunFinished("finish() ended this run; use a new estimator")
        check_stamps(scan)
        if scan.scan_start <= self._last_scan_start:
            raise OutOfOrder(
                f"scan at {scan.scan_start:.6f} does not follow "
                f"{self._last_scan_start:.6f}")
        dropped = self._push_imu(imu_samples)
        cfg = self.config.odometry

        pre_frame = self._prepare(scan)
        if not self._initialized:
            try:
                state = initialize_from_rest(
                    self._imu, self.config.imu.gravity, window=cfg.init_window,
                    gyro_limit=cfg.init_gyro_limit, stamp=scan.scan_start)
            except InitializationMotion as exc:
                if exc.unusable:
                    self._imu.clear()
                raise
            # the window is finite; samples after it may not be
            self._imu, late = finite_samples(self._imu)
            dropped += late
            pre = None
        else:
            prev = self._window[-1]
            t_prev = prev.frame.scan_start
            pre = preintegrate(self._imu_between(t_prev, scan.scan_start),
                               t_prev, scan.scan_start,
                               prev.state.bias, self.config.imu,
                               max_gap=self.config.preprocess.max_imu_gap)
            state = predict_state(prev.state, pre, self.config.imu.gravity)

        frame = self._finish_frame(pre_frame, state)
        rec = WindowFrame(index=self._next_index, pre_frame=pre_frame, frame=frame,
                          voxelmap=build_voxelmap(frame, cfg.voxel_resolution),
                          state=state)
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
                self._window[-1].key, rec.key, pre, self.config.imu.gravity,
                walk_information=self._walk_information(pre.dt_total)))

        self._add_matching_factors(rec)

        snapshot = dict(self.graph.values)
        warnings = []
        if dropped:
            warnings.append(f"left out {dropped} IMU sample(s) with a non-finite value")
        try:
            self.graph.optimize_lm(self.config.optimizer)
        except NotConverged:
            warnings.append("optimizer did not converge; prediction retained")
            self.graph.values = snapshot
        self._window.append(rec)
        for f in self._window:
            f.state = self.graph.values[f.key]

        if len(frame):
            self._keyframe_update(rec)

        marginalized = self._marginalize_old_frames()
        return OdometryResult(state=rec.state, marginalized=marginalized,
                              warning="; ".join(warnings) or None)

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
            np.full(3, 1.0 / (self.config.imu.accel_bias_walk**2 * dt)),
            np.full(3, 1.0 / (self.config.imu.gyro_bias_walk**2 * dt)),
        ])

    def _add_matching_factors(self, rec: WindowFrame) -> None:
        """Link rec to the recent frames (newest first), then to the
        keyframes not linked already.

        A marginalized keyframe that any point of rec hits gets a unary
        factor; a window frame with at least min_inliers hits gets a binary
        one.  The hits come from each candidate factor's own first lookup,
        all at relative poses formed in one stacked pass, and the solve's
        opening cost and first linearization reuse the terms of that lookup.
        """
        cfg = self.config.odometry
        recent = self._window[::-1][:cfg.recent_frame_links]
        targets = recent + [kf for kf in self.keyframes if kf not in recent]
        candidates, needed = [], []
        for target in targets:
            if target.marginalized:
                candidates.append(MatchingCostFactor(
                    rec.key, rec.frame, target.voxelmap,
                    fixed_target_pose=target.state.pose,
                    min_inliers=cfg.min_inliers))
                needed.append(1)
            else:
                candidates.append(MatchingCostFactor(
                    rec.key, rec.frame, target.voxelmap, key_target=target.key,
                    min_inliers=cfg.min_inliers))
                needed.append(cfg.min_inliers)
        hits = matching_hits(candidates, self.graph.values)
        for factor, need, found in zip(candidates, needed, hits):
            if found >= need:
                self.graph.add_factor(factor)

    # -- keyframes --------------------------------------------------------------------

    def _keyframe_update(self, rec: WindowFrame) -> None:
        """Apply the three keyframe rules to rec, forming each overlap
        o(a, b) (the fraction of a's points in b's occupied voxels) once.

        Insertion: rec becomes a keyframe if the set is empty or
        o(rec, newest keyframe), one overlap, is below
        keyframe_insert_overlap.  Rule 1: each keyframe k whose o(k, rec)
        is below keyframe_drop_overlap leaves the set; one overlap per
        keyframe.  Rule 2: if the set of m then exceeds max_keyframes, the
        inner keyframe k (neither the oldest nor rec) of least score
        o(k, rec) * sum of (1 - o(k, j)) over the other inner keyframes j
        leaves it, the first on a tie.  It reuses rule 1's o(k, rec) and
        forms the (m-2)(m-3) ordered pairs of inner keyframes.
        """
        cfg = self.config.odometry
        event = {"frame_index": rec.index, "inserted": False,
                 "dropped_low_overlap": [], "removed_by_score": None}
        if not self.keyframes or (
                self._overlap(rec, self.keyframes[-1])
                < cfg.keyframe_insert_overlap):
            event["inserted"] = True
            # rule 1: drop keyframes barely overlapping the new one
            to_rec = [self._overlap(kf, rec) for kf in self.keyframes]
            kept = []
            for kf, o in zip(self.keyframes, to_rec):
                if o < cfg.keyframe_drop_overlap:
                    event["dropped_low_overlap"].append(kf.index)
                else:
                    kept.append((kf, o))
            self.keyframes = [kf for kf, _ in kept] + [rec]
            # rule 2: scored removal keeps the set bounded
            if len(self.keyframes) > cfg.max_keyframes:
                inner = kept[1:]
                scores = []
                for kf, o in inner:
                    total = 0.0
                    for other, _ in inner:
                        if other is not kf:
                            total += 1.0 - self._overlap(kf, other)
                    scores.append(o * total)
                victim = 1 + scores.index(min(scores))  # inner starts at 1
                event["removed_by_score"] = {
                    "keyframe_ids": [kf.index for kf in self.keyframes],
                    "removed": self.keyframes[victim].index,
                }
                del self.keyframes[victim]
        self.keyframe_events.append(event)

    # -- marginalization -------------------------------------------------------------------

    def _marginalize_old_frames(self) -> list:
        out = []
        while len(self._window) > self.config.odometry.smoothing_lag:
            out.append(self._emit_oldest())
        return out

    def _emit_oldest(self) -> MarginalizedFrame:
        """Hand the oldest frame downstream; it leaves the window only once
        marginalize succeeded, so a failure keeps window and graph in step."""
        rec = self._window[0]
        try:
            cov = self.graph.marginal_covariance(rec.key)
            sigmas = np.sqrt(np.clip(np.diag(cov)[6:15], 1e-12, None))
        except np.linalg.LinAlgError:
            sigmas = FALLBACK_VEL_BIAS_SIGMA.copy()
        self.graph.marginalize([rec.key])
        del self._window[0]
        rec.marginalized = True
        out = MarginalizedFrame(
            frame_index=rec.index, frame=rec.pre_frame, state=rec.state,
            vel_bias_sigma=sigmas)
        rec.pre_frame = None  # a keyframe keeps only what matching reads
        return out
