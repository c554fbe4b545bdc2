import copy
import gc
import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from limapper import factor_graph, odometry, preprocess
from limapper.config import PipelineConfig
from limapper.dataset_io import record_from_pose
from limapper.errors import (
    DisconnectedGraph,
    ImuCoverageGap,
    InitializationMotion,
    MalformedScan,
    NonFiniteCovariance,
    NonFiniteStamp,
    OutOfOrder,
    PipelineError,
    VoxelKeyOutOfRange,
)
from limapper.evaluation import compute_ate
from limapper.factor_graph import FactorGraph, MarginalPriorFactor
from limapper.geometry import state_local, state_retract
from limapper.imu import ImuSample
from limapper.odometry import OdometryEstimator
from limapper.preprocess import RawScan
from limapper.registration import match_terms, overlap_rate
from limapper.synthetic import generate_synthetic_scene, square_loop_scene
from run import state_vector
from test_preprocess import assert_row_storage, covs_of
from workloads import dense_spec, imu_batches, loop_spec


@pytest.fixture(scope="module")
def loop_scene():
    # 14 scans; the sensor stands still for the bootstrap window, then
    # reaches 3 m/s within 0.5 s
    return generate_synthetic_scene(square_loop_scene(
        perimeter=40, speed=3.0, n_frames=12, seed=3, settle=0.6,
        ramp_time=0.5))


def run(scene, n_scans=None):
    est = OdometryEstimator()
    batches = imu_batches(scene, est.config.odometry.init_window)
    results = [est.process_frame(scan, batch)
               for scan, batch in zip(scene.scans[:n_scans], batches)]
    return est, results


def outputs(est, results):
    """What a run hands back and keeps, in a form compared bit for bit."""
    per_scan = [(state_vector(r.state).tobytes(), r.warning) for r in results]
    keyframes = [(e["frame_index"], e["inserted"], e["dropped_low_overlap"])
                 for e in est.keyframe_events]
    return (per_scan, keyframes, [f.kind for f in est.graph.factors],
            list(est.graph.values))


def fingerprint(est):
    """What a scan that raises must leave as it was: the graph's variables
    by key and state object, its factors, its matching block (the factor
    handles of its rows in order, the row count and its terms stack), the
    window with each frame's state object, the keyframes and the keyframe
    events.  Each state and the stack are held next to their ids, so that
    an id cannot pass to a new object."""
    block = est.graph.matching
    return ([(k, id(v), v) for k, v in est.graph.values.items()],
            list(est.graph.factors),
            (list(block.factors), block.held.size, id(block.terms), block.terms),
            [(f, id(f.state), f.state) for f in est._window],
            list(est.keyframes), repr(est.keyframe_events))


class TestSquareLoop:
    def test_accurate_repeatable_and_quiet(self, loop_scene):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, first = run(loop_scene)
            _, second = run(loop_scene)
        assert len(first) == len(loop_scene.scans) == 14
        assert all(r.warning is None for r in first)
        records = [record_from_pose(r.state.stamp, r.state.pose) for r in first]
        assert compute_ate(records, loop_scene.ground_truth).rmse < 0.010
        for a, b in zip(first, second):
            assert np.array_equal(state_vector(a.state), state_vector(b.state))


def keyframe_digest(events):
    """sha256 of the keyframe decisions: per scan, whether it was inserted,
    the keyframes dropped for low overlap, and the set and the victim of a
    removal by score.  Overlap values and scores are left out, so that only
    a change of decisions moves it."""
    digest = hashlib.sha256()
    for e in events:
        removal = e["removed_by_score"]
        digest.update(repr((
            e["frame_index"], e["inserted"], e["dropped_low_overlap"],
            None if removal is None
            else (removal["keyframe_ids"], removal["removed"]))).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_scene():
    # 37 scans of the noisy loop
    return generate_synthetic_scene(loop_spec(1, 35))


class TestGoldenLoop:
    def test_past_the_warm_up(self, golden_scene):
        # 37 scans of the noisy loop.  Measured before frozen matching
        # weights: ATE 3.2707 mm; the bound is that plus 10 %.  Since the
        # overlap counts face-neighbour voxels it reads 3.3522 mm, and a
        # keyframe is inserted at scan 0, then at every third scan from
        # scan 11 on (every scan but 1-7 before), so the set of 20 does not
        # fill and TestKeyframeScoring takes rule 2
        est, first = run(golden_scene)
        again, second = run(golden_scene)
        assert len(first) == 37 and all(r.warning is None for r in first)
        assert outputs(est, first) == outputs(again, second)
        records = [record_from_pose(r.state.stamp, r.state.pose) for r in first]
        assert compute_ate(records, golden_scene.ground_truth).rmse < 3.6e-3
        inserted = [e["frame_index"] for e in est.keyframe_events if e["inserted"]]
        assert inserted == [0, *range(11, 37, 3)]
        assert keyframe_digest(est.keyframe_events) == (
            "3f0caf592cbbddb6898f0824eb488eed4a9d81be945282d592a748c1af82464b")


class TestBootstrapAnchor:
    def test_costs_the_weighted_offset_bit_for_bit(self, loop_scene):
        # the first state is anchored by the marginal prior of an empty
        # past, whose cost is r.diag(info).r at the offset r, to the bit
        est, _ = run(loop_scene, n_scans=1)
        (anchor,) = est.graph.factors
        assert isinstance(anchor, MarginalPriorFactor) and anchor.keys == (0,)
        info = np.r_[np.full(6, 1e6), np.full(9, 1e4)]
        state = anchor.lin_values[0]
        rng = np.random.default_rng(31)
        for _ in range(50):
            moved = state_retract(state, rng.normal(size=15) * 10.0 ** rng.uniform(-8, -1))
            r = state_local(moved, state)
            assert anchor.cost({0: moved}) == float(r @ np.diag(info) @ r)

    def test_the_graph_holds_one_prior_after_every_scan(self):
        # the anchor is consumed by the first marginalization, and each
        # marginal prior by the next one
        scene = generate_synthetic_scene(loop_spec(1, 20))
        est = OdometryEstimator()
        batches = imu_batches(scene, est.config.odometry.init_window)
        for scan, batch in zip(scene.scans, batches):
            est.process_frame(scan, batch)
            assert sum(isinstance(f, MarginalPriorFactor) for f in est.graph.factors) == 1


class TestMarginalizedKeyframes:
    def test_keep_only_points_and_span(self, loop_scene):
        # a keyframe is only a target map once marginalized, and the overlap
        # reads its points; the covariances go with the state.  No frame
        # holds kNN rows, which the search hands to the covariance estimate,
        # or stamps, which only the deskew reads
        est, _ = run(loop_scene)
        marginalized = [kf for kf in est.keyframes
                        if kf.index not in est.graph.values]
        assert marginalized and len(marginalized) < len(est.keyframes)
        for rec in est._window + est.keyframes:
            frame = rec.frame
            assert not hasattr(frame, "neighbors")
            arrays = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
            assert all(a.dtype == float for a in arrays)
            assert (frame.cov_rows is None) == (rec in marginalized)
            assert_row_storage(frame)
            assert frame.stamps is None and len(frame) > 0
            assert frame.scan_start < frame.scan_end


class TestMemoryBudget:
    def test_bytes_held_after_a_dense_replay(self):
        # 8 scans of the 512x32-ray loop leave 5 window frames of about 5k
        # points, 96 bytes each (points and covariances), their voxel maps
        # and factors, and one keyframe.  The estimator held 4.75 MB; stamps
        # kept on the frames (8 bytes a point) made 5.00 MB, and kNN rows
        # kept as well (80 bytes a point) 7.00 MB
        scene = generate_synthetic_scene(dense_spec(1, 8))  # not traced
        gc.collect()
        tracemalloc.start()
        try:
            est, _ = run(scene)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(est._window) == 5
        assert held < 1.1 * 4.75e6, f"{held / 1e6:.3f} MB"


class TestKeyframeScoring:
    def test_scored_removal_forms_only_the_overlaps_it_reads(
            self, golden_scene, monkeypatch):
        # an insertion forms o(new, newest keyframe) and o(k, new) for each
        # keyframe k it found; a removal by score reuses those and adds the
        # (m-2)(m-3) ordered pairs of inner keyframes of the m it then has.
        # A set of 4 is full after the scene's fourth insertion, so each of
        # the six insertions after it removes a keyframe by score
        calls = []

        def counted(*args):
            calls[-1] += 1
            return overlap_rate(*args)

        monkeypatch.setattr(odometry, "overlap_rate", counted)
        monkeypatch.setattr(odometry, "MAX_KEYFRAMES", 4)
        est = OdometryEstimator()
        batches = imu_batches(golden_scene, est.config.odometry.init_window)
        checked = 0
        for scan, batch in zip(golden_scene.scans, batches):
            before = len(est.keyframes)
            calls.append(0)
            est.process_frame(scan, batch)
            removal = est.keyframe_events[-1]["removed_by_score"]
            if removal:
                m = len(removal["keyframe_ids"])
                assert m == 5
                assert calls[-1] == 1 + before + (m - 2) * (m - 3)
                checked += 1
        assert checked == 6


class TestFailedMarginalization:
    def test_window_and_graph_stay_in_step(self, loop_scene, monkeypatch):
        def disconnected(self, keys):
            raise DisconnectedGraph("probe")

        monkeypatch.setattr(FactorGraph, "marginalize", disconnected)
        # the second scan marginalizes the first
        monkeypatch.setattr(odometry, "SMOOTHING_LAG", 1)
        est = OdometryEstimator()
        batches = imu_batches(loop_scene, est.config.odometry.init_window)
        est.process_frame(loop_scene.scans[0], batches[0])
        with pytest.raises(DisconnectedGraph):
            est.process_frame(loop_scene.scans[1], batches[1])
        # the frame that could not be marginalized is still in both
        assert [f.index for f in est._window] == list(est.graph.values)
        assert est._window[0].index == 0


class TestWindow:
    def test_holds_the_graph_keys_and_frames_past_the_lag_leave_once_in_order(
            self, loop_scene):
        est = OdometryEstimator()
        lag = odometry.SMOOTHING_LAG
        batches = imu_batches(loop_scene, est.config.odometry.init_window)
        left, before = [], []
        for k, (scan, batch) in enumerate(zip(loop_scene.scans, batches)):
            est.process_frame(scan, batch)
            window = [f.index for f in est._window]
            assert window == list(est.graph.values)
            assert len(window) <= lag
            left += [i for i in before + [k] if i not in window]
            before = window
        assert left == list(range(len(loop_scene.scans) - lag))


class TestImuFaultAfterBootstrap:
    @pytest.mark.parametrize("scan, stamp, fault", [
        (10, 1.05, "nan gyro"),
        (10, 1.05, "inf accel"),
        # the bootstrap batch runs past the 0.5 s window the bootstrap reads
        (0, 0.55, "nan gyro"),
    ])
    def test_sample_is_left_out_and_every_scan_processed(
            self, loop_scene, scan, stamp, fault):
        batches = imu_batches(loop_scene, PipelineConfig().odometry.init_window)
        batch = batches[scan]
        i = next(i for i, s in enumerate(batch) if abs(s.stamp - stamp) < 1e-9)
        s = batch[i]
        batches[scan] = batch[:i] + [ImuSample(
            s.stamp, np.full(3, np.inf) if fault == "inf accel" else s.accel,
            np.full(3, np.nan) if fault == "nan gyro" else s.gyro)] + batch[i + 1:]
        est = OdometryEstimator()
        results = [est.process_frame(sc, b) for sc, b in zip(loop_scene.scans, batches)]
        assert [r.warning for r in results] == [
            "left out 1 IMU sample(s) with a non-finite value" if k == scan else None
            for k in range(len(loop_scene.scans))]
        assert all(np.isfinite(state_vector(r.state)).all() for r in results)
        records = [record_from_pose(r.state.stamp, r.state.pose) for r in results]
        assert compute_ate(records, loop_scene.ground_truth).rmse < 0.010


class TestNonFiniteImuStamp:
    @pytest.mark.parametrize("scan", [0, 10])
    def test_sample_is_left_out_and_the_run_matches_a_clean_one(
            self, loop_scene, scan):
        # before the fix a NaN stamp leading the first batch entered the
        # empty buffer, every later sample failed the newer-stamp test, and
        # the bootstrap raised on every scan
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        s = batches[scan][0]
        batches[scan] = [ImuSample(np.nan, s.accel, s.gyro)] + batches[scan]
        est = OdometryEstimator()
        results = [est.process_frame(sc, b) for sc, b in zip(loop_scene.scans, batches)]
        assert [r.warning for r in results] == [
            "left out 1 IMU sample(s) with a non-finite value" if k == scan else None
            for k in range(len(loop_scene.scans))]
        assert [state_vector(r.state).tobytes() for r in results] == [
            state_vector(r.state).tobytes() for r in clean]


def batches_past_end(scene, init_window, lead, resend=0):
    """The scene's IMU samples handed over with each scan up to ``lead``
    past its end, the first batch also covering the bootstrap window; each
    later batch starts with copies of the last ``resend`` samples of the
    one before."""
    batches, j, imu = [], 0, scene.imu
    for k, scan in enumerate(scene.scans):
        horizon = scan.scan_end + lead + (init_window if k == 0 else 0.0)
        start = j
        while j < len(imu) and imu[j].stamp <= horizon:
            j += 1
        again = [ImuSample(s.stamp, s.accel, s.gyro)
                 for s in imu[max(start - resend, 0):start]]
        batches.append(again + imu[start:j])
    return batches


# orders in which one batch can bring its samples
ARRIVALS = {
    "reversed": lambda batch: batch[::-1],
    "newest first": lambda batch: batch[-1:] + batch[:-1],
    "first two swapped": lambda batch: [batch[1], batch[0]] + batch[2:],
    "last copied 100 s ahead": lambda batch: batch + [
        ImuSample(batch[-1].stamp + 100.0, batch[-1].accel, batch[-1].gyro)],
}


class TestImuBatchBoundaries:
    @pytest.mark.parametrize("lead, resend, arrival", [
        *(pytest.param(lead, resend, None, id=f"{lead}-{resend}") for lead, resend in [
            (0.0005, 0), (0.05, 0), (0.2, 0),
            (0.0, 5),  # the boundaries of imu_batches, each batch re-sending a tail
        ]),
        # the boundaries of imu_batches, the batch of scan 8 in another order
        *(pytest.param(0.0, 0, arrival, id=arrival) for arrival in ARRIVALS),
    ])
    def test_do_not_change_the_states(self, loop_scene, lead, resend, arrival):
        # the estimator reads its buffer by stamp, so where one batch ends
        # and the next begins, a tail sent twice, and the order in which a
        # batch brings its samples change nothing
        clean_est, clean = run(loop_scene)
        est = OdometryEstimator()
        batches = batches_past_end(loop_scene, est.config.odometry.init_window, lead,
                                   resend)
        if arrival:
            batches[8] = ARRIVALS[arrival](batches[8])
        stamps = [[s.stamp for s in batch] for batch in batches]
        assert stamps != [[s.stamp for s in batch] for batch in
                          imu_batches(loop_scene, est.config.odometry.init_window)]
        results = [est.process_frame(scan, batch)
                   for scan, batch in zip(loop_scene.scans, batches)]
        assert outputs(est, results) == outputs(clean_est, clean)


class TestRetryAfterFailure:
    """A scan that raises before it enters the graph can be sent again."""

    def test_retry_after_imu_gap_matches_clean_run(self, loop_scene):
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        pairs = list(zip(loop_scene.scans, batches))
        est = OdometryEstimator()
        results = [est.process_frame(scan, batch) for scan, batch in pairs[:8]]
        with pytest.raises(ImuCoverageGap):
            est.process_frame(loop_scene.scans[8], [])  # its IMU held back
        results += [est.process_frame(scan, batch) for scan, batch in pairs[8:]]
        assert outputs(est, results) == outputs(clean_est, clean)

    def test_retry_after_nan_point_matches_clean_run(self, loop_scene):
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        pairs = list(zip(loop_scene.scans, batches))
        est = OdometryEstimator()
        results = [est.process_frame(scan, batch) for scan, batch in pairs[:8]]
        scan = loop_scene.scans[8]
        points = scan.points.copy()
        points[17] = np.nan
        with pytest.raises(VoxelKeyOutOfRange):
            est.process_frame(RawScan(points, scan.stamps, scan.scan_start,
                                      scan.scan_end), batches[8])
        results += [est.process_frame(scan, batch) for scan, batch in pairs[8:]]
        assert outputs(est, results) == outputs(clean_est, clean)

    @pytest.mark.parametrize("where", ["point stamp", "scan_start", "scan_end"])
    def test_retry_after_nan_stamp_matches_clean_run(self, loop_scene, where):
        clean_est, clean = run(loop_scene)
        batches = imu_batches(loop_scene, clean_est.config.odometry.init_window)
        pairs = list(zip(loop_scene.scans, batches))
        est = OdometryEstimator()
        results = [est.process_frame(scan, batch) for scan, batch in pairs[:8]]
        scan = loop_scene.scans[8]
        stamps = scan.stamps.copy()
        span = [scan.scan_start, scan.scan_end]
        if where == "point stamp":
            stamps[17] = np.nan
        else:
            span[where == "scan_end"] = np.nan
        buffered = list(est._imu)
        with pytest.raises(NonFiniteStamp, match="point 17" if where == "point stamp"
                           else where):
            est.process_frame(RawScan(scan.points, stamps, *span), batches[8])
        assert est._imu == buffered  # rejected before anything is buffered
        results += [est.process_frame(scan, batch) for scan, batch in pairs[8:]]
        assert outputs(est, results) == outputs(clean_est, clean)

    def test_retry_of_bootstrap_scan_matches_clean_run(self, loop_scene):
        # scan 5 is still at rest; the IMU from 0 s covers the bootstrap
        # window, and the first try stops at the scan's start, so the
        # bootstrap succeeds and the deskew fails
        # the scene from scan 5 on, with all its IMU samples
        later = replace(loop_scene, scans=loop_scene.scans[5:])
        scans = later.scans
        batches = imu_batches(later, PipelineConfig().odometry.init_window)
        clean_est = OdometryEstimator()
        clean = [clean_est.process_frame(scan, batch)
                 for scan, batch in zip(scans, batches)]
        est = OdometryEstimator()
        with pytest.raises(ImuCoverageGap):
            est.process_frame(scans[0], [s for s in batches[0]
                                         if s.stamp <= scans[0].scan_start])
        results = [est.process_frame(scan, batch)
                   for scan, batch in zip(scans, batches)]
        assert outputs(est, results) == outputs(clean_est, clean)

    @pytest.mark.parametrize("fault, cause", [
        ("zero accel", "no gravity direction"),
        ("nan gyro", "non-finite"),
        ("inf accel", "non-finite"),
    ])
    def test_unusable_bootstrap_imu_raises_and_changes_nothing(
            self, loop_scene, fault, cause):
        # a RuntimeWarning fails the test too (see pyproject.toml)
        batch = imu_batches(loop_scene, PipelineConfig().odometry.init_window)[0]
        accel = {"zero accel": np.zeros(3), "inf accel": np.full(3, np.inf)}
        bad = [ImuSample(s.stamp, accel.get(fault, s.accel),
                         np.full(3, np.nan) if fault == "nan gyro" else s.gyro)
               for s in batch]
        est = OdometryEstimator()
        before = fingerprint(est)
        with pytest.raises(InitializationMotion, match=cause):
            est.process_frame(loop_scene.scans[0], bad)
        assert fingerprint(est) == before
        assert est._imu == []  # the unusable samples are dropped
        # so the scan goes through when it comes again with intact samples
        # of the same stamps, as on a fresh estimator
        clean = OdometryEstimator()
        want = clean.process_frame(loop_scene.scans[0], batch)
        got = est.process_frame(loop_scene.scans[0], batch)
        assert outputs(est, [got]) == outputs(clean, [want])


    def test_short_bootstrap_window_keeps_its_samples(self, loop_scene):
        # a window that is only too short yet is not unusable: its samples
        # stay buffered, and the rest of the window completes it
        batch = imu_batches(loop_scene, PipelineConfig().odometry.init_window)[0]
        head = [s for s in batch if s.stamp < 0.2]
        est = OdometryEstimator()
        with pytest.raises(InitializationMotion, match="need") as raised:
            est.process_frame(loop_scene.scans[0], head)
        assert not raised.value.unusable
        assert est._imu == head
        clean = OdometryEstimator()
        want = clean.process_frame(loop_scene.scans[0], batch)
        got = est.process_frame(loop_scene.scans[0], batch[len(head):])
        assert outputs(est, [got]) == outputs(clean, [want])


def faulty_scan(scene, k, batch, fault):
    """Scan k of the scene and its IMU batch, with the fault put in."""
    scan = scene.scans[k]
    points, stamps = scan.points, scan.stamps
    if fault == "nan point":
        points = points.copy()
        points[17] = np.nan
    elif fault == "no imu":
        batch = []
    elif fault == "half imu":
        batch = batch[:len(batch) // 2]
    elif fault == "accel x1e8":
        batch = [ImuSample(s.stamp, s.accel * 1e8, s.gyro) for s in batch]
    elif fault == "accel +1e200":
        batch = [ImuSample(s.stamp, s.accel + 1e200, s.gyro) for s in batch]
    elif fault == "stamps at start, accel before x1e11":
        stamps = np.full_like(stamps, scan.scan_start)
        batch = [ImuSample(s.stamp, s.accel * 1e11 if s.stamp < scan.scan_start
                           else s.accel, s.gyro) for s in batch]
    elif fault == "span reversed":
        return RawScan(points, stamps, scan.scan_end, scan.scan_start), batch
    elif fault == "resent":
        return scene.scans[k - 1], batch
    return RawScan(points, stamps, scan.scan_start, scan.scan_end), batch


class TestFaultLeavesNoTrace:
    @pytest.mark.parametrize("fault", [
        "nan point", "no imu", "half imu", "accel x1e8",
        # finite, but the deskewed points are so far out that their
        # neighbourhood covariances overflow; eigh raised LinAlgError
        "accel +1e200",
        # it raises VoxelKeyOutOfRange from the look-ups of its matching
        # links, the last step before the commit
        "stamps at start, accel before x1e11",
        # the scan is at fault, not its IMU batch
        "span reversed",
        # scan 7 sent again after scan 7, with the next batch
        "resent",
    ])
    def test_raises_and_leaves_the_estimator_as_it_was(self, loop_scene, fault):
        # the faulty batch's samples stay buffered until the scan is sent
        # again with its clean batch, whose samples replace them
        clean_est, clean = run(loop_scene)
        est, results = run(loop_scene, n_scans=8)
        batches = imu_batches(loop_scene, est.config.odometry.init_window)
        before, imu = fingerprint(est), list(est._imu)
        # the preintegration of absurd accelerations overflows, a warning that
        # the tests turn into an error before the estimator can raise its own
        quiet = {"over": "ignore", "invalid": "ignore"} if fault == "accel +1e200" else {}
        with pytest.raises(PipelineError) as info, np.errstate(**quiet):
            est.process_frame(*faulty_scan(loop_scene, 8, batches[8], fault))
        assert fingerprint(est) == before
        if fault == "accel +1e200":
            assert isinstance(info.value, NonFiniteCovariance)
        if fault == "span reversed":
            scan = loop_scene.scans[8]
            assert isinstance(info.value, MalformedScan)
            assert str(info.value) == (f"scan_end {scan.scan_start} comes before "
                                       f"scan_start {scan.scan_end}")
        if fault == "resent":
            assert isinstance(info.value, OutOfOrder)
        if fault in ("span reversed", "resent"):
            # the stamps and their order are checked before any sample is
            # buffered
            assert [id(s) for s in est._imu] == [id(s) for s in imu]
        results += [est.process_frame(scan, batch)
                    for scan, batch in zip(loop_scene.scans[8:], batches[8:])]
        assert outputs(est, results) == outputs(clean_est, clean)


class TestFailedSolve:
    def test_keeps_the_prediction_and_every_other_state(self, loop_scene):
        est, _ = run(loop_scene, n_scans=8)
        batches = imu_batches(loop_scene, est.config.odometry.init_window)
        before = [(f, f.state) for f in est._window]
        predicted, predict_state = [], odometry.predict_state

        def predict(*args):
            predicted.append(predict_state(*args))
            return predicted[-1]

        steps, damped_step = [], factor_graph._damped_step

        def first_step_only(*args):
            # the solve takes its first step, then every damped step fails,
            # so the damping passes its limit after the estimate has moved
            steps.append(damped_step(*args) if not steps else None)
            return steps[-1]

        with mock.patch.object(factor_graph, "_damped_step", first_step_only), \
                mock.patch.object(odometry, "predict_state", predict):
            result = est.process_frame(loop_scene.scans[8], batches[8])
        assert result.warning == "optimizer did not converge; prediction retained"
        assert state_vector(result.state).tobytes() == state_vector(predicted[0]).tobytes()
        assert all(f.state is state for f, state in before)
        assert all(est.graph.values[f.index] is f.state for f in est._window)
        after = est.process_frame(loop_scene.scans[9], batches[9])
        assert after.warning is None and np.isfinite(state_vector(after.state)).all()


class TestRecentFrameLinks:
    @staticmethod
    def binary_targets(scene, links):
        """Target frame indices of the binary matching factors added over 8
        scans, and the indices of every frame that became a keyframe."""
        # a lag of 10 keeps every factor in the graph
        with mock.patch.object(odometry, "RECENT_FRAME_LINKS", links), \
                mock.patch.object(odometry, "SMOOTHING_LAG", 10):
            est, _ = run(scene, n_scans=8)
        targets = [f.keys[1] for f in est.graph.factors
                   if f.kind == "matching-cost-binary"]
        keyframes = {e["frame_index"] for e in est.keyframe_events
                     if e["inserted"]}
        return targets, keyframes

    def test_zero_links_only_keyframes(self, loop_scene):
        targets, keyframes = self.binary_targets(loop_scene, 0)
        assert targets and set(targets) <= keyframes
        one, keyframes_one = self.binary_targets(loop_scene, 1)
        assert not set(one) <= keyframes_one  # 1 links a non-keyframe
        assert len(targets) < len(one)


class TestSparseFrame:
    def test_frame_below_knn_gets_flat_fallback_covariances(self, loop_scene):
        # too few points for a neighbourhood: the frame takes the fallback
        # of a flat neighbourhood, PLANE_EPS * I, instead of zero matrices
        # whose voxel map cannot be inverted
        est, _ = run(loop_scene, n_scans=6)
        scan = loop_scene.scans[6]
        keep = np.linspace(0, len(scan.points) - 1, 5).astype(int)
        batch = imu_batches(loop_scene, est.config.odometry.init_window)[6]
        est.process_frame(RawScan(scan.points[keep], scan.stamps[keep],
                                  scan.scan_start, scan.scan_end), batch)
        rec = est._window[-1]
        eps = preprocess.PLANE_EPS
        assert len(rec.frame) == 5 < odometry.KNN
        assert np.array_equal(covs_of(rec.frame), np.tile(eps * np.eye(3), (5, 1, 1)))
        assert_row_storage(rec.frame)
        rot, trans = np.eye(3), np.zeros(3)
        _, rows = rec.voxelmap.look_up(rec.frame.point_rows, rot, trans)
        terms = match_terms(rec.frame, rec.voxelmap, rot, trans, rows)
        assert terms.inliers == 5
        assert np.all(np.isfinite(terms.q)) and np.all(np.isfinite(terms.s))
        assert np.isfinite(terms.cost)

    def test_matching_links_need_hits(self, loop_scene):
        # one rule for both kinds: five points hit each target about five
        # times, too few for a binary factor to the recent frames or a unary
        # one to the marginalized keyframe; twenty points hit the keyframe
        # at least MIN_INLIERS times and link to it
        est, _ = run(loop_scene, n_scans=6)
        scan = loop_scene.scans[6]
        batch = imu_batches(loop_scene, est.config.odometry.init_window)[6]
        binary = ["matching-cost-binary"] * odometry.RECENT_FRAME_LINKS
        for count, links in ((5, []), (20, binary + ["matching-cost-unary"])):
            keep = np.linspace(0, len(scan.points) - 1, count).astype(int)
            trial = copy.deepcopy(est)
            trial.process_frame(RawScan(scan.points[keep], scan.stamps[keep],
                                        scan.scan_start, scan.scan_end), batch)
            key = trial._window[-1].index
            assert [f.kind for f in trial.graph.factors
                    if f.kind.startswith("matching-cost") and f.keys[0] == key] == links


class TestTracedBindings:
    def test_matching_goes_through_the_factor_graph_bindings(self):
        # the benchmark's tracer times matching by replacing these two
        # module globals of factor_graph; a call that bypassed them would
        # leave its per-layer spans silently empty
        scene = generate_synthetic_scene(loop_spec(1, 4))
        with mock.patch.object(factor_graph, "match_terms",
                               wraps=factor_graph.match_terms) as terms, \
                mock.patch.object(factor_graph, "linearize_from_terms",
                                  wraps=factor_graph.linearize_from_terms) as lin:
            run(scene)
        assert terms.call_count > 0 and lin.call_count > 0
