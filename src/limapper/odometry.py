"""Frontend estimator: keyframe-based fixed-lag smoothing over a sliding
window of frame states.

Each incoming scan is predicted forward with the IMU, deskewed, annotated
with covariances, and tied into the window graph with a preintegrated-motion
factor to the previous frame, matching-cost factors to the last few frames
and to the keyframes that it hits at least ``MIN_INLIERS`` times (unary
against keyframes whose states have been marginalized out), then the window
is re-optimized.  Frames leaving the lag window are folded into a dense
marginal prior; a keyframe among them stays on as a matching target.
Nothing is handed downstream until a local mapping stage exists to read
it.

The estimator's rules are the module constants below, not config keys: the
paper's odometry is one design, and a change to one changes the numbers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .errors import InitializationMotion, NotConverged, OutOfOrder
from .factor_graph import (
    FactorGraph,
    ImuFactor,
    MarginalPriorFactor,
    MatchingBlock,
    MatchingCostFactor,
    linked,
)
from .geometry import (
    Rotation,
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    so3_exp,
)
from .imu import GRAVITY, ImuSample, predict_state, preintegrate
from .preprocess import (
    Frame,
    RawScan,
    deskew,
    estimate_covariances,
    knn_search,
    voxel_downsample,
)
from .registration import GaussianVoxelMap, build_voxelmap, overlap_rate

# neighbours per point for its covariance; a plane through a point's
# neighbourhood needs 3 points to be defined
KNN = 10
# a scan whose overlap with the newest keyframe is below the insert overlap
# becomes a keyframe, and a keyframe whose overlap with it is below the drop
# overlap leaves the set: 0 < drop < insert < 1
KEYFRAME_INSERT_OVERLAP = 0.90
KEYFRAME_DROP_OVERLAP = 0.05
# at least 2: scored removal keeps the oldest keyframe and the newest
MAX_KEYFRAMES = 20
# newest window frames each scan is linked to; 0 links keyframes only
RECENT_FRAME_LINKS = 3
# frames in the window, at least 1
SMOOTHING_LAG = 5
# hits a target needs for a matching factor, at least 1: with 0, every
# frame would link to an empty frame by an inert factor
MIN_INLIERS = 10
# rad/s; the bootstrap's stationary check compares each chunk's mean gyro
# with it, so it is positive
INIT_GYRO_LIMIT = 0.05


def initialize_from_rest(samples, window: float, stamp: float) -> SensorState:
    """Bootstrap orientation and biases from stationary IMU data.

    Aligns the mean specific force with the gravity reaction (roll/pitch
    only, yaw zero), takes the gyro mean as gyro bias, and attributes any
    leftover specific-force magnitude to the accelerometer bias.  The window
    is stationary when no chunk's mean gyro exceeds INIT_GYRO_LIMIT.  Raises
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
        if np.linalg.norm(chunk.mean(axis=0)) > INIT_GYRO_LIMIT:
            raise InitializationMotion("gyro activity above the stationary limit",
                                       unusable=True)
    mean_a = accel.mean(axis=0)
    mean_g = gyro.mean(axis=0)
    g_norm = float(np.linalg.norm(GRAVITY))
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
        stamp=stamp,
    )


def finite_samples(samples, stamp_only: bool = False) -> tuple[list, int]:
    """The samples whose stamp, accel and gyro are all finite (only the
    stamp, if stamp_only), and the count of the others."""
    values = np.array([[s.stamp, *s.accel, *s.gyro] for s in samples],
                      dtype=float).reshape(-1, 7)
    finite = np.isfinite(values[:, :1] if stamp_only else values).all(axis=1)
    return [s for s, ok in zip(samples, finite) if ok], int((~finite).sum())


@dataclass(eq=False)
class WindowFrame:
    """One scan in the odometry window.

    A keyframe is a window frame that stays on as a matching target after
    it is marginalized; the keyframe set holds the same objects as the
    window, so membership tests go by identity.  The index keys the frame's
    state in the window graph while it is there; a frame whose index the
    graph no longer holds is marginalized, and keeps only its voxel map and
    the points and span of ``frame``.  The scan span is read from
    ``frame``, and an empty frame has an empty voxel map.
    """

    index: int
    frame: Frame  # deskewed (no stamps), covariances until marginalized; no kNN rows
    voxelmap: GaussianVoxelMap
    state: SensorState  # window estimate; final once marginalized


@dataclass
class OdometryResult:
    state: SensorState
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

    # -- helpers ---------------------------------------------------------------

    def _push_imu(self, samples) -> int:
        """Buffer the samples in stamp order, whatever order they come in,
        leaving out those with a non-finite stamp and, once the run has
        started, those with any non-finite value; return the count left
        out.  A sample replaces the buffered one of its stamp, if any, so
        the last copy of a stamp wins and a scan sent again with clean
        samples mends what it buffered before.  Before the bootstrap, a
        sample with a non-finite accel or gyro value is buffered, so that
        the bootstrap names its window unusable."""
        samples, dropped = finite_samples(samples, stamp_only=not self._window)
        for s in samples:
            i = bisect.bisect_left(self._imu, s.stamp, key=lambda b: b.stamp)
            if i < len(self._imu) and self._imu[i].stamp == s.stamp:
                self._imu[i] = s
            else:
                self._imu.insert(i, s)
        # keep the buffer bounded: only the current inter-frame span and the
        # initialization window are ever read back; the last sample before
        # the horizon stays, and every later one
        if self._window:
            horizon = self._window[-1].frame.scan_start - 1.0
            before = bisect.bisect_left(self._imu, horizon, key=lambda b: b.stamp)
            del self._imu[:max(before - 1, 0)]
        return dropped

    def _imu_between(self, t0: float, t1: float):
        pad = 2.0 * self.config.preprocess.max_imu_gap
        return [s for s in self._imu if t0 - pad <= s.stamp <= t1 + pad]

    def _finish_frame(self, pre_frame: Frame, neighbors, state: SensorState) -> Frame:
        """Deskew with the predicted state and attach covariances fitted to
        the kNN rows of pre_frame, None for fewer than KNN points."""
        samples = self._imu_between(pre_frame.scan_start, pre_frame.scan_end)
        frame = deskew(pre_frame, samples, state, self.config.preprocess.max_imu_gap)
        return estimate_covariances(frame, neighbors)

    def _overlap(self, a: WindowFrame, b: WindowFrame) -> float:
        """Fraction of a's points in occupied voxels of b's map or in their
        face neighbours."""
        rel = pose_compose(pose_inverse(b.state.pose), a.state.pose)
        return overlap_rate(a.frame, b.voxelmap, rel)

    # -- main entry --------------------------------------------------------------

    def process_frame(self, scan: RawScan, imu_samples) -> OdometryResult:
        """Add one scan to the window and re-optimize it.

        The scan is prepared, then committed.  Preparing builds its window
        frame, voxel map, anchoring factor and matching links, and touches
        nothing but the IMU buffer; the commit adds the variable, the
        factors and the window entry, and raises no PipelineError.  So a
        scan that raises before its commit leaves the estimator as it was,
        apart from buffering its IMU samples, and can be sent again with
        more IMU data or with clean copies of its samples.  The solve, the
        keyframe update and the marginalization of the frames past the lag
        follow the commit; a solve that does not converge changes no
        estimate, and the warning says so.  A bootstrap that finds its
        samples unusable drops every buffered sample instead, so that the
        scan can be sent again with new samples, also ones of the same
        stamps.  The IMU buffer keeps every sample handed over in stamp
        order, whatever order the batches bring them in, and the last copy
        of a stamp wins.  Samples with a non-finite stamp are left out, and
        after the bootstrap so are those with a non-finite value; the
        scan's warning gives their count.  RawScan checked the scan's own
        stamps when it was built.
        """
        last = self._window[-1].frame.scan_start if self._window else -math.inf
        if scan.scan_start <= last:
            raise OutOfOrder(
                f"scan at {scan.scan_start:.6f} does not follow {last:.6f}")
        rec, anchor, links, dropped = self._prepare(scan, imu_samples)

        self.graph.add_variable(rec.index, rec.state)
        self.graph.add_factor(anchor)
        self.graph.add_links(links)
        self._window.append(rec)

        warnings = []
        if dropped:
            warnings.append(f"left out {dropped} IMU sample(s) with a non-finite value")
        try:
            self.graph.optimize_lm(self.config.optimizer)
        except NotConverged:
            # a failed solve leaves the graph's values as they were
            warnings.append("optimizer did not converge; prediction retained")
        for f in self._window:
            f.state = self.graph.values[f.index]

        if len(rec.frame):
            self._keyframe_update(rec)

        self._marginalize_old_frames()
        return OdometryResult(state=rec.state, warning="; ".join(warnings) or None)

    def _prepare(self, scan: RawScan, imu_samples
                 ) -> tuple[WindowFrame, ImuFactor | MarginalPriorFactor, MatchingBlock, int]:
        """The scan's window frame, the factor that ties it in (a prior at
        the bootstrap or an IMU factor to the newest frame), the block of
        its matching links and the count of IMU samples left out.  It
        buffers the samples and touches nothing else of the estimator."""
        dropped = self._push_imu(imu_samples)
        cfg = self.config.odometry
        pre_cfg = self.config.preprocess
        pre_frame = voxel_downsample(scan, pre_cfg.downsample_resolution)
        neighbors = (knn_search(pre_frame, KNN)  # kept only for the covariances
                     if len(pre_frame) >= KNN else None)
        if not self._window:
            try:
                state = initialize_from_rest(self._imu, window=cfg.init_window,
                                             stamp=scan.scan_start)
            except InitializationMotion as exc:
                if exc.unusable:
                    self._imu.clear()
                raise
            # the window is finite; samples after it may not be
            self._imu, late = finite_samples(self._imu)
            dropped += late
            # bootstrap: the marginal prior of an empty past pins the first state
            index = 0
            info = np.r_[np.full(6, 1e6), np.full(9, 1e4)]
            anchor = MarginalPriorFactor([index], {index: state}, np.diag(2 * info),
                                         np.zeros(15))
        else:
            prev = self._window[-1]
            index = prev.index + 1
            t_prev = prev.frame.scan_start
            pre = preintegrate(self._imu_between(t_prev, scan.scan_start),
                               t_prev, scan.scan_start,
                               prev.state.bias, self.config.imu,
                               max_gap=pre_cfg.max_imu_gap)
            state = predict_state(prev.state, pre)
            anchor = ImuFactor(prev.index, index, pre)

        frame = self._finish_frame(pre_frame, neighbors, state)
        rec = WindowFrame(index=index, frame=frame,
                          voxelmap=build_voxelmap(frame, cfg.voxel_resolution),
                          state=state)
        return rec, anchor, self._matching_links(rec), dropped

    # -- factors -------------------------------------------------------------------

    def _matching_links(self, rec: WindowFrame) -> MatchingBlock:
        """The block of the matching links of rec to the recent frames
        (newest first), then to the keyframes not linked already.

        Each target gets a candidate factor, binary to a window frame's
        state and unary to a marginalized keyframe's fixed pose, and
        ``linked`` keeps the candidates that hold terms after their first
        look-up: those that hit their target at least MIN_INLIERS times.
        The look-ups are all at relative poses formed in one stacked pass,
        and the block's rows carry their terms into the graph, for the
        solve's opening cost and first linearization.
        """
        recent = self._window[::-1][:RECENT_FRAME_LINKS]
        targets = recent + [kf for kf in self.keyframes if kf not in recent]
        candidates = [MatchingCostFactor(
            rec.index, rec.frame, t.voxelmap,
            t.index if t.index in self.graph.values else t.state.pose,
            min_inliers=MIN_INLIERS) for t in targets]
        return linked(candidates, {**self.graph.values, rec.index: rec.state})

    # -- keyframes --------------------------------------------------------------------

    def _keyframe_update(self, rec: WindowFrame) -> None:
        """Apply the three keyframe rules to rec, forming each overlap
        o(a, b) once: the fraction of a's points whose voxel, or one of its
        six face neighbours, is occupied in b's map.  On sparse scans the
        points of a wall lie about a voxel apart, so counting only the
        points in occupied voxels would read below the insert threshold on
        nearly every scan and fill the set with the last few scans.

        Every target b is a keyframe, or rec as it joins the set, so only
        keyframes' maps form the near-key table that the overlap searches;
        each forms it once, on its first overlap, and drops it with the map.

        Insertion: rec becomes a keyframe if the set is empty or
        o(rec, newest keyframe), one overlap, is below
        KEYFRAME_INSERT_OVERLAP.  Rule 1: each keyframe k whose o(k, rec)
        is below KEYFRAME_DROP_OVERLAP leaves the set; one overlap per
        keyframe.  Rule 2: if the set of m then exceeds MAX_KEYFRAMES, the
        inner keyframe k (neither the oldest nor rec) of least score
        o(k, rec) * sum of (1 - o(k, j)) over the other inner keyframes j
        leaves it, the first on a tie.  It reuses rule 1's o(k, rec) and
        forms the (m-2)(m-3) ordered pairs of inner keyframes.
        """
        event = {"frame_index": rec.index, "inserted": False,
                 "dropped_low_overlap": [], "removed_by_score": None}
        if not self.keyframes or (
                self._overlap(rec, self.keyframes[-1])
                < KEYFRAME_INSERT_OVERLAP):
            event["inserted"] = True
            # rule 1: drop keyframes barely overlapping the new one
            to_rec = [self._overlap(kf, rec) for kf in self.keyframes]
            kept = []
            for kf, o in zip(self.keyframes, to_rec):
                if o < KEYFRAME_DROP_OVERLAP:
                    event["dropped_low_overlap"].append(kf.index)
                else:
                    kept.append((kf, o))
            self.keyframes = [kf for kf, _ in kept] + [rec]
            # rule 2: scored removal keeps the set bounded
            if len(self.keyframes) > MAX_KEYFRAMES:
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

    def _marginalize_old_frames(self) -> None:
        """Fold the frames past the lag into the marginal prior, oldest
        first.  A frame leaves the window only once marginalize succeeded,
        so a failure keeps window and graph in step."""
        while len(self._window) > SMOOTHING_LAG:
            rec = self._window[0]
            self.graph.marginalize([rec.index])
            del self._window[0]
            # a keyframe is only a target map, and the overlap reads its
            # points: it keeps the points and span, and drops its covariances
            rec.frame = replace(rec.frame, cov_rows=None)
