import copy
import functools
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from limapper.errors import (
    DisconnectedGraph,
    DuplicateVariable,
    UnderConstrainedGraph,
    UnknownVariable,
)
from limapper import factor_graph, imu as imu_module
from limapper.factor_graph import (
    FactorGraph,
    FactorLinearization,
    ImuBlock,
    ImuFactor,
    LmSettings,
    MarginalPriorFactor,
    MatchingBlock,
    MatchingCostFactor,
    RELOOK_FRACTION,
    _Placement,
    _accumulate,
    _layout,
    linked,
)
from limapper.geometry import (
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    pose_local,
    pose_retract,
    so3_exp,
    state_local,
    state_retract,
)
from limapper.imu import (
    GRAVITY,
    ImuNoiseParams,
    ImuSample,
    preintegrate,
)
from limapper.registration import FrozenTerms, GaussianVoxelMap, build_voxelmap
from limapper.synthetic import generate_synthetic_scene

from test_geometry import identity_pose, pose_apply, zero_state
from test_imu import MAX_GAP, per_factor_imu_residual, propagate_state
from test_odometry import run
from test_preprocess import covs_of
from test_registration import (
    at_pose,
    box_room_frame_plane_covs,
    conditioned_pair,
    linearize_matching,
    make_frame,
    matching_cost,
    matching_factor_cost,
    reference_linearize,
    held_terms,
    rows_of,
    terms_at,
    terms_bytes,
)
from workloads import loop_spec

NOISE = ImuNoiseParams()
# bias random-walk variance per axis of the IMU factors below, whose
# information is its inverse, 1e4
WALK = np.full(6, 1e-4)
# a stationary IMU long enough for the longest chain below
STILL_SAMPLES = [ImuSample(t, -GRAVITY, np.zeros(3)) for t in np.arange(0, 6.21, 0.005)]


def random_state(rng, stamp=0.0):
    return SensorState(
        pose=Se3Pose(so3_exp(rng.uniform(-1, 1, 3)), rng.uniform(-3, 3, 3)),
        velocity=rng.uniform(-1, 1, 3),
        bias_accel=rng.uniform(-0.05, 0.05, 3),
        bias_gyro=rng.uniform(-0.05, 0.05, 3),
        stamp=stamp,
    )


def record_costs(graph):
    """Make graph.total_cost append every value it returns to a list."""
    costs = []
    total_cost = graph.total_cost

    def recording(values=None):
        costs.append(total_cost(values))
        return costs[-1]

    graph.total_cost = recording
    return costs


def state_prior(key, value, information):
    """A prior r.diag(information).r on the variable's offset r from value:
    the marginal prior of an empty past, as the odometry anchors its first
    state."""
    info = np.asarray(information, dtype=float)
    return MarginalPriorFactor([key], {key: value}, np.diag(2.0 * info), np.zeros(15))


def hold_motion(graph, key):
    """Anchor a variable's velocity and bias at their values with a prior
    that has zero information on its pose."""
    graph.add_factor(state_prior(key, graph.values[key], np.r_[np.zeros(6), np.ones(9)]))


def prior_bowl():
    rng = np.random.default_rng(2)
    target = random_state(rng)
    g = FactorGraph()
    g.add_variable(0, state_retract(target, rng.uniform(-0.3, 0.3, 15)))
    g.add_factor(state_prior(0, target, np.full(15, 100.0)))
    return g, target


def two_pose_registration(anchor=np.full(15, 1e6)):
    """Frame 1 registered to frame 0, whose state the prior information
    ``anchor`` holds at zero, with frame 1's velocity and bias held."""
    rng = np.random.default_rng(3)
    cloud = box_room_frame_plane_covs(rng, n_per_wall=150)
    vmap = build_voxelmap(cloud, 0.5)
    true_rel = Se3Pose(so3_exp([0.02, -0.03, 0.3]), np.array([0.4, -0.2, 0.1]))
    # frame observed from the displaced pose: points in its own frame
    moved_pts = pose_apply(pose_inverse(true_rel), cloud.points)
    moved = make_frame(moved_pts, covs=covs_of(cloud))
    g = FactorGraph()
    g.add_variable(0, zero_state())
    perturb = np.concatenate([rng.normal(size=3) * (5 * np.pi / 180 / np.sqrt(3)),
                              rng.normal(size=3) * (0.1 / np.sqrt(3))])
    g.add_variable(1, at_pose(pose_retract(true_rel, perturb)))
    g.add_factor(state_prior(0, zero_state(), anchor))
    g.add_links(MatchingBlock([MatchingCostFactor(1, moved, vmap, 0, min_inliers=10)]))
    hold_motion(g, 1)
    return g, true_rel


class TestContainer:
    def test_add_and_read_back(self):
        g = FactorGraph()
        rng = np.random.default_rng(0)
        x = random_state(rng)
        g.add_variable(0, x)
        assert g.values[0] is x

    def test_duplicate_key_rejected(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        with pytest.raises(DuplicateVariable):
            g.add_variable(0, zero_state())

    def test_dangling_factor_rejected(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        with pytest.raises(UnknownVariable):
            g.add_factor(state_prior(1, zero_state(), np.ones(15)))

    def test_parallel_factors_both_retained(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_factor(state_prior(0, zero_state(), np.ones(15)))
        g.add_factor(state_prior(0, zero_state(), np.ones(15)))
        assert len(g.factors) == 2

    def test_unconstrained_variable_rejected(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_variable(1, zero_state())
        g.add_factor(state_prior(0, zero_state(), np.ones(15)))
        with pytest.raises(UnderConstrainedGraph):
            g.optimize_lm()

    def test_a_matching_link_enters_only_through_add_links(self):
        g, _ = two_pose_registration()
        link = g.matching.factors[0]
        factors, matching = list(g.factors), g.matching
        with pytest.raises(TypeError, match="add_links"):
            g.add_factor(MatchingCostFactor(link.keys[0], link.source, link.target_map,
                                            link.keys[1], min_inliers=10))
        assert g.factors == factors and g.matching is matching
        assert matching.factors == [link] and len(matching.live) == len(matching.terms.cost) == 1

    def test_unanchored_component_rejected(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_variable(1, zero_state(1.0))
        g.add_factor(imu_factor(0, 1, still_link(0)))
        with pytest.raises(UnderConstrainedGraph):
            g.optimize_lm()


class TestOptimize:
    def test_prior_bowl_converges_exactly(self):
        g, target = prior_bowl()
        res = g.optimize_lm()
        assert res.final_cost < 1e-18
        assert np.linalg.norm(state_local(g.values[0], target)) < 1e-9

    def test_two_pose_registration_recovers_truth(self):
        g, true_rel = two_pose_registration()
        g.optimize_lm()
        err = pose_local(g.values[1].pose, true_rel)
        assert np.linalg.norm(err[3:]) < 1e-3
        assert np.linalg.norm(err[:3]) < 1e-3

    def test_prior_bowl_counters(self):
        g, _ = prior_bowl()
        costs = record_costs(g)
        res = g.optimize_lm()
        assert res.converged
        assert res.initial_cost == costs[0]
        assert res.cost_evaluations == len(costs) - 1
        # without correspondences the cost of an accepted candidate is the
        # cost at the next linearization, so rejections show in the sequence
        current, rejected = costs[0], 0
        for c in costs[1:]:
            if c < current:
                current = c
            else:
                rejected += 1
        assert res.rejected_steps == rejected
        assert res.final_cost == current
        assert res.cost_evaluations - res.rejected_steps <= res.iterations

    def test_two_pose_registration_counters(self):
        g, _ = two_pose_registration()
        costs = record_costs(g)
        res = g.optimize_lm()
        assert res.converged
        assert res.initial_cost == costs[0]
        assert res.cost_evaluations == len(costs) - 1
        assert 0 <= res.rejected_steps <= res.cost_evaluations
        # at most one accepted candidate per linearization
        assert res.cost_evaluations - res.rejected_steps <= res.iterations
        assert res.final_cost < res.initial_cost

    def test_stops_when_correspondences_cycle(self):
        # the target flips at every linearization and holds in between, like
        # a point crossing back and forth between two voxels: every step is
        # accepted, but no linearization finds a lower cost than the first
        class FlippingPrior(MarginalPriorFactor):
            def __init__(self, key, a, b, information):
                super().__init__([key], {key: a}, np.diag(2.0 * information),
                                 np.zeros(15))
                self.targets = (a, b)
                self.flips = 0

            def linearize(self, values):
                self.lin_values = {self.keys[0]: self.targets[self.flips % 2]}
                self._last = None  # its offset was from the other target
                self.flips += 1
                return super().linearize(values)

        a = zero_state()
        b = at_pose(Se3Pose(a.pose.rotation, np.array([0.1, 0.0, 0.0])))
        g = FactorGraph()
        g.add_variable(0, at_pose(Se3Pose(a.pose.rotation,
                                                     np.array([0.04, 0.0, 0.0]))))
        g.add_factor(FlippingPrior(0, a, b, np.full(15, 100.0)))
        res = g.optimize_lm()
        assert res.converged
        assert res.iterations == 3
        assert res.rejected_steps == 0

    def test_solve_at_its_optimum_rejects_the_zero_step(self):
        # the step at an optimum is zero: it is costed, does not lower the
        # cost, and ends the solve as a negligible rejected step
        target = random_state(np.random.default_rng(2))
        g = FactorGraph()
        g.add_variable(0, target)
        g.add_factor(state_prior(0, target, np.full(15, 100.0)))
        res = g.optimize_lm()
        assert res.converged
        assert (res.iterations, res.cost_evaluations, res.rejected_steps) == (1, 1, 1)
        assert res.initial_cost == res.final_cost == 0.0
        assert g.values[0] is target

    def test_iteration_cap_is_not_convergence(self):
        g, _ = prior_bowl()
        res = g.optimize_lm(LmSettings(max_iterations=1))
        assert res.iterations == 1
        assert not res.converged
        assert res.final_cost < res.initial_cost

    def test_pure_imu_chain_matches_propagation(self):
        rng = np.random.default_rng(4)
        rate = 200.0
        samples = []
        for k in range(81):
            t = k / rate
            samples.append(ImuSample(
                t, -GRAVITY + np.array([0.4 * np.sin(5 * t), 0.2, 0.0]),
                np.array([0.0, 0.0, 0.5])))
        state0 = zero_state()
        # ground truth by dense propagation
        states = [state0]
        bounds = [0.0, 0.2, 0.4]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s = states[-1]
            seg = [x for x in samples if lo - 1e-9 <= x.stamp <= hi + 1e-9]
            for a, b in zip(seg[:-1], seg[1:]):
                s = propagate_state(s, a, b.stamp - a.stamp)
            states.append(s)

        g = FactorGraph()
        g.add_variable(0, state0)
        g.add_factor(state_prior(0, state0, np.full(15, 1e8)))
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            pre = preintegrate(samples, lo, hi, np.zeros(6), NOISE, MAX_GAP)
            init = state_retract(states[i + 1], rng.uniform(-0.05, 0.05, 15))
            g.add_variable(i + 1, init)
            g.add_factor(imu_factor(i, i + 1, pre))
        g.optimize_lm()
        for i in (1, 2):
            err = state_local(g.values[i], states[i])
            assert np.linalg.norm(err[:9]) < 1e-6

    def test_monotone_cost_and_determinism(self):
        def build():
            rng = np.random.default_rng(5)
            target = random_state(rng)
            g = FactorGraph()
            g.add_variable(0, state_retract(target, rng.uniform(-1, 1, 15)))
            g.add_factor(state_prior(0, target, np.full(15, 10.0)))
            g.add_variable(1, random_state(rng))
            g.add_factor(state_prior(1, target, np.full(15, 5.0)))
            return g

        graph_a, graph_b = build(), build()
        a, b = graph_a.optimize_lm(), graph_b.optimize_lm()
        assert a.iterations == b.iterations
        assert a.final_cost == b.final_cost
        for k in graph_a.values:
            assert np.array_equal(graph_a.values[k].pose.translation,
                                  graph_b.values[k].pose.translation)


def face_pair():
    """(source, map) on 0.5 m voxels: twelve occupied voxels, one source
    point near the middle of each, and one source point on the x = 0 face
    of voxel (0, 0, 0), whose neighbour across that face is empty."""
    rng = np.random.default_rng(13)
    cells = np.array([[i, j, k] for i in range(3) for j in range(2)
                      for k in range(2)], dtype=float)
    centers = (cells + 0.5) * 0.5
    target = make_frame(np.repeat(centers, 8, axis=0)
                        + rng.uniform(-0.2, 0.2, (8 * len(centers), 3)))
    on_face = np.array([[0.0, 0.2, 0.3]])
    source = make_frame(np.vstack(
        [centers + rng.uniform(-0.1, 0.1, centers.shape), on_face]))
    return source, build_voxelmap(target, 0.5)


def shifted(x, y=0.0):
    """A state at the translation (x, y, 0), unrotated."""
    return {0: at_pose(Se3Pose(identity_pose().rotation, np.array([x, y, 0.0])))}


class TestMatchingCostFactor:
    def test_cost_keeps_correspondences_of_last_linearization(self):
        source, vmap = face_pair()
        f = MatchingCostFactor(0, source, vmap, identity_pose(), min_inliers=10)
        block = MatchingBlock([f])
        at = {0: zero_state()}
        # a nudge far inside the look-up bound and one just past it; each
        # moves the point on the face out of its voxel
        bound = RELOOK_FRACTION * vmap.resolution
        near, far = shifted(-1e-7), shifted(-1.2 * bound)

        linearize_matching(block, at)
        assert block.inliers[0] == len(source)
        rows = rows_of(vmap, source.points)
        c0 = matching_factor_cost(block, at)
        assert abs(matching_factor_cost(block, near) - c0) < 1e-6 * c0
        for nudged in (near, far):
            pose = nudged[0].pose
            # the cost stays on the rows of the last linearization, where
            # the weights of an unrotated pose are those it formed
            kept = terms_at(source, vmap, pose, rows).cost
            assert matching_factor_cost(block, nudged) == pytest.approx(kept, rel=1e-12)
            # a fresh lookup at the nudged pose loses the point on the face
            fresh, inliers = matching_cost(source, vmap, pose)
            assert inliers == len(source) - 1
            assert abs(fresh - kept) > 1e-3 * kept

        # inside the bound a linearization keeps the rows
        lin = linearize_matching(block, near)
        assert block.inliers[0] == len(source)
        assert lin.cost == pytest.approx(
            terms_at(source, vmap, near[0].pose, rows).cost, rel=1e-12)
        # past it, it looks up again and the point on the face is lost
        fresh = matching_cost(source, vmap, far[0].pose)[0]
        lin = linearize_matching(block, far)
        assert block.inliers[0] == len(source) - 1
        assert lin.cost == pytest.approx(fresh, rel=1e-12)
        assert matching_factor_cost(block, far) == pytest.approx(fresh, rel=1e-12)

    def test_looks_up_again_only_past_the_bound(self):
        # a move inside the bound since the last look-up makes none and
        # keeps the held terms; a move past it looks up, and forms new
        # terms only when a row changed
        source, vmap = face_pair()
        f = MatchingCostFactor(0, source, vmap, identity_pose(), min_inliers=10)
        block = MatchingBlock([f])
        bound = RELOOK_FRACTION * vmap.resolution
        with mock.patch.object(vmap, "look_up", wraps=vmap.look_up) as look_up, \
                mock.patch.object(factor_graph, "match_terms",
                                  wraps=factor_graph.match_terms) as terms:

            def linearize_at(values, looks, forms):
                linearize_matching(block, values)
                assert (look_up.call_count, terms.call_count) == (looks, forms)

            linearize_at({0: zero_state()}, 1, 1)
            held = terms_bytes(block)
            # inside the bound the point on the face keeps its row, which a
            # look-up there would not find
            linearize_at(shifted(-0.9 * bound), 1, 1)
            assert terms_bytes(block) == held and block.inliers[0] == len(source)
            # past the bound, along the face: every row stays
            linearize_at(shifted(0.0, 1.1 * bound), 2, 1)
            assert terms_bytes(block) == held and block.inliers[0] == len(source)
            # the bound counts from that last look-up
            linearize_at(shifted(-0.9 * bound, 1.1 * bound), 2, 1)
            assert terms_bytes(block) == held
            linearize_at(shifted(-1.2 * bound, 1.1 * bound), 3, 2)
            assert terms_bytes(block) != held and block.inliers[0] == len(source) - 1
            # a turn about the origin by an angle a moves a point at the
            # frame's reach by up to 2 sin(a / 2) reach
            for ratio, looks in ((0.9, 3), (1.1, 4)):
                angle = 2.0 * np.arcsin(ratio * bound / (2.0 * source.reach))
                turned = Se3Pose(so3_exp([0.0, 0.0, angle]),
                                 np.array([-1.2 * bound, 1.1 * bound, 0.0]))
                linearize_matching(block, {0: at_pose(turned)})
                assert look_up.call_count == looks

    @given(seed=st.integers(0, 2**32 - 1),
           moves=st.lists(st.tuples(
               st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
               st.sampled_from([0.1, 0.3, 1.0])), min_size=1, max_size=8))
    def test_skipped_look_up_moves_no_point_past_the_bound(self, seed, moves):
        # whenever a linearization makes no look-up, no source point moved
        # more than RELOOK_FRACTION of a voxel since the last look-up; each
        # move turns the frame by up to sqrt(3) s bound / reach and shifts
        # it by up to sqrt(3) s bound, for s = 0.1, 0.3 or 1
        source, vmap = conditioned_pair(seed)
        f = MatchingCostFactor(0, source, vmap, identity_pose(), min_inliers=5)
        block = MatchingBlock([f])
        bound = RELOOK_FRACTION * vmap.resolution
        scale = np.array([bound / source.reach] * 3 + [bound] * 3)
        pose = looked_at = identity_pose()
        with mock.patch.object(vmap, "look_up", wraps=vmap.look_up) as look_up:
            linearize_matching(block, {0: at_pose(pose)})
            for step, size in moves:
                pose = pose_retract(pose, np.asarray(step) * size * scale)
                calls = look_up.call_count
                linearize_matching(block, {0: at_pose(pose)})
                if look_up.call_count > calls:
                    looked_at = pose
                    continue
                moved = ((pose.rotation.matrix() - looked_at.rotation.matrix())
                         @ source.point_rows).T + (pose.translation
                                                   - looked_at.translation)
                assert np.linalg.norm(moved, axis=1).max() <= bound * (1 + 1e-9)

    def test_below_min_inliers_contributes_nothing(self, monkeypatch):
        # every lookup or evaluation the factors make goes through this
        calls = []
        original = factor_graph.match_terms

        def spy(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(factor_graph, "match_terms", spy)
        rng = np.random.default_rng(14)
        target = make_frame(rng.uniform(0.05, 0.45, (40, 3)))
        vmap = build_voxelmap(target, 0.5)
        # three points in the map's one voxel, eight far outside it
        source = make_frame(np.vstack([rng.uniform(0.1, 0.4, (3, 3)),
                                       rng.uniform(5.0, 6.0, (8, 3))]))
        f = MatchingCostFactor(0, source, vmap, identity_pose(), min_inliers=10)
        block = MatchingBlock([f])
        at = {0: zero_state()}
        assert linearize_matching(block, at).cost == 0.0
        assert not block.held[0] and block.inliers[0] == 3
        # the count of the lookup says that the factor is below its minimum,
        # so no terms are formed, and no cost makes a pass over the points:
        # neither at the lookup's pose nor at one where a lookup would find
        # no point
        assert calls == []
        assert matching_factor_cost(block, at) == 0.0
        away = {0: at_pose(Se3Pose(identity_pose().rotation,
                                              np.array([2.0, 0.0, 0.0])))}
        assert matching_cost(source, vmap, away[0].pose)[1] == 0
        calls.clear()
        assert matching_factor_cost(block, away) == 0.0
        assert calls == [] and block.inliers[0] == 3

        calls.clear()
        empty = make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3)))
        for g in (MatchingCostFactor(0, empty, vmap, identity_pose(), min_inliers=10),
                  MatchingCostFactor(0, source, build_voxelmap(empty, 0.5),
                                     identity_pose(), min_inliers=10)):
            block = MatchingBlock([g])
            assert linearize_matching(block, at).cost == 0.0 and not block.held[0]
            assert matching_factor_cost(block, at) == 0.0 and block.inliers[0] == 0
        assert calls == []

    @pytest.mark.parametrize("target, keys, grounding, kind", [
        (1, (0, 1), False, "matching-cost-binary"),
        (identity_pose(), (0,), True, "matching-cost-unary")], ids=["key", "pose"])
    def test_linked_at_min_inliers_only(self, target, keys, grounding, kind):
        # a candidate is linked exactly when its first look-up finds
        # min_inliers hits, whether its target is a state key or a fixed
        # pose; the target alone sets the keys, grounding and kind
        rng = np.random.default_rng(14)
        vmap = build_voxelmap(make_frame(rng.uniform(0.05, 0.45, (40, 3))), 0.5)
        # min_inliers - 1 and min_inliers points in the map's one voxel,
        # eight far outside it
        below, at = (MatchingCostFactor(
            0, make_frame(np.vstack([rng.uniform(0.1, 0.4, (n, 3)),
                                     rng.uniform(5.0, 6.0, (8, 3))])),
            vmap, target, min_inliers=10) for n in (9, 10))
        values = {0: zero_state(), 1: zero_state()}
        assert linked([below], values).factors == []
        kept = linked([below, at], values)
        assert kept.factors == [at] and kept.inliers.tolist() == [10]
        block = MatchingBlock([below, at])
        block.costs(values)  # the first look-ups
        assert block.inliers.tolist() == [9, 10] and block.held.tolist() == [False, True]
        for f in (below, at):
            assert (f.keys, f.grounding, f.kind) == (keys, grounding, kind)
            assert f.fixed_target_pose is (target if grounding else None)


def imu_factor(i, j, pre):
    """An IMU factor on the preintegration, with the bias walk WALK."""
    return ImuFactor(i, j, pre._replace(walk=WALK))


@functools.cache
def still_link(i):
    """Preintegrated stationary IMU over [i, i + 1] s."""
    return preintegrate(STILL_SAMPLES, float(i), i + 1.0, np.zeros(6), NOISE, MAX_GAP)


def translation_chain(n, rng, prior_translation, prior_velocity, prior_info):
    """n states one second apart, from random initials, linked by a
    stationary IMU, with a prior on the first state's translation and
    velocity.  Rotations and biases are pinned hard at identity/zero, so the
    remaining translation/velocity problem is exactly linear-Gaussian."""
    g = FactorGraph()
    pin = np.zeros(15)
    pin[0:3] = 1e12
    pin[9:15] = 1e12
    for i in range(n):
        s = SensorState(
            pose=Se3Pose(so3_exp(np.zeros(3)), rng.uniform(-1, 1, 3)),
            velocity=rng.uniform(-1, 1, 3),
            bias_accel=np.zeros(3), bias_gyro=np.zeros(3), stamp=float(i))
        g.add_variable(i, s)
        g.add_factor(state_prior(i, zero_state(float(i)), pin))
    info = np.zeros(15)
    info[3:9] = prior_info
    prior_target = SensorState(
        pose=Se3Pose(so3_exp(np.zeros(3)), np.asarray(prior_translation, dtype=float)),
        velocity=np.asarray(prior_velocity, dtype=float),
        bias_accel=np.zeros(3), bias_gyro=np.zeros(3), stamp=0.0)
    g.add_factor(state_prior(0, prior_target, info))
    for i in range(n - 1):
        g.add_factor(imu_factor(i, i + 1, still_link(i)))
    return g


class TestMarginalization:
    def _translation_chain(self):
        return translation_chain(3, np.random.default_rng(11), [1.0, 2.0, 3.0],
                                 [0.1, 0.0, -0.1], [50.0] * 3 + [20.0] * 3)

    def test_linear_chain_marginalization_exact(self):
        full = self._translation_chain()
        full.optimize_lm()

        reduced = self._translation_chain()
        reduced.marginalize([0])
        reduced.optimize_lm()
        for i in (1, 2):
            err = state_local(reduced.values[i], full.values[i])
            assert np.linalg.norm(err) < 1e-9

    def test_reduced_chain_cost_equals_batch_optimum(self):
        # the prior carries the cost the removed factors keep, so the reduced
        # chain's cost is the full chain's, zero up to rounding, not -751
        reduced = self._translation_chain()
        reduced.marginalize([0])
        red_res = reduced.optimize_lm()
        assert abs(red_res.final_cost) < 1e-9 * red_res.initial_cost

        def conflicting_chain():
            # a prior on the last state that the chain cannot meet, so the
            # optimum costs well above zero
            g = self._translation_chain()
            info = np.zeros(15)
            info[3:9] = [30.0] * 3 + [5.0] * 3
            target = SensorState(Se3Pose(so3_exp(np.zeros(3)), np.array([0.5, -1.0, 2.0])),
                                 np.array([0.3, 0.2, 0.0]), np.zeros(3), np.zeros(3), 2.0)
            g.add_factor(state_prior(2, target, info))
            return g

        full_res = conflicting_chain().optimize_lm()
        reduced = conflicting_chain()
        reduced.marginalize([0])
        red_res = reduced.optimize_lm()
        assert full_res.final_cost > 10.0
        assert red_res.final_cost > 0.0
        assert abs(red_res.final_cost - full_res.final_cost) <= 1e-9 * full_res.final_cost

    def test_prior_linearizes_on_one_delta_with_the_cost_of_cost(self):
        g = self._translation_chain()
        prior = g.marginalize([0])
        values = {k: state_retract(v, np.random.default_rng(12).uniform(-0.1, 0.1, 15))
                  for k, v in g.values.items()}
        deltas = []
        delta = prior._delta
        prior._delta = lambda vals: deltas.append(delta(vals)) or deltas[-1]
        lin = prior.linearize(values)
        assert len(deltas) == 1
        assert lin.cost == prior.cost(values)
        assert np.array_equal(lin.g, prior.gradient + prior.hessian @ deltas[0])

    def test_marginal_prior_information_psd(self):
        g = self._translation_chain()
        prior = g.marginalize([0])
        evals = np.linalg.eigvalsh(prior.hessian)
        assert evals.min() >= -1e-8 * max(1.0, evals.max())

    def test_unary_only_key_folds_to_constant(self):
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_variable(1, zero_state(1.0))
        g.add_factor(state_prior(0, zero_state(), np.full(15, 10.0)))
        target = state_retract(zero_state(1.0), np.full(15, 0.1))
        g.add_factor(state_prior(1, target, np.full(15, 10.0)))
        g.optimize_lm()
        before = g.values[1]
        prior = g.marginalize([0])
        assert prior.keys == ()
        g.optimize_lm()
        err = state_local(g.values[1], before)
        assert np.linalg.norm(err) < 1e-12

    def test_reoptimize_after_marginalizing_at_optimum(self):
        g = self._translation_chain()
        g.optimize_lm()
        snapshot = dict(g.values)
        g.marginalize([0])
        res = g.optimize_lm()
        assert res.iterations <= 2
        for i in (1, 2):
            err = state_local(g.values[i], snapshot[i])
            assert np.linalg.norm(err) < 1e-8

    def test_nonlinear_fixed_lag_consistency(self):
        # marginalizing at a converged estimate must not move the optimum
        rng = np.random.default_rng(12)
        g = FactorGraph()
        states = [random_state(rng, 0.0)]
        g.add_variable(0, states[0])
        g.add_factor(state_prior(0, states[0], np.full(15, 1e6)))
        samples = [ImuSample(t, -GRAVITY + [0.1, 0, 0], [0, 0, 0.2])
                   for t in np.arange(0, 1.01, 0.005)]
        pre = preintegrate(samples, 0.0, 1.0, np.zeros(6), NOISE, MAX_GAP)
        nxt = state_retract(states[0], rng.uniform(-0.1, 0.1, 15))
        g.add_variable(1, nxt)
        g.add_factor(imu_factor(0, 1, pre))
        g.add_factor(state_prior(1, nxt, np.r_[np.zeros(9), np.full(6, 100.0)]))
        g.optimize_lm()
        first = g.values[1]
        g.marginalize([0])
        g.optimize_lm()
        err = state_local(g.values[1], first)
        assert np.linalg.norm(err) < 1e-8

    def test_marginal_covariance_is_a_block_of_the_held_inverse(self):
        g = self._translation_chain()
        g.optimize_lm()
        h, slices = g._normal
        inverse = np.linalg.inv(h)
        for i in range(3):
            sl = slices[i]
            want = inverse[sl, sl]
            got = g.marginal_covariance(i)
            assert np.abs(got - want).max() < 1e-12

    def test_marginal_covariance_survives_marginalization(self):
        # the held system is the solve's, so marginalizing frame 0 afterwards
        # changes none of the other blocks
        g = self._translation_chain()
        g.optimize_lm()
        before = {i: g.marginal_covariance(i) for i in (1, 2)}
        g.marginalize([0])
        for i in (1, 2):
            assert np.array_equal(g.marginal_covariance(i), before[i])

    def test_marginal_covariance_of_a_key_added_after_the_solve(self):
        g = self._translation_chain()
        with pytest.raises(UnknownVariable):
            g.marginal_covariance(0)  # no solve yet
        g.optimize_lm()
        g.add_variable(3, zero_state(3.0))
        with pytest.raises(UnknownVariable):
            g.marginal_covariance(3)


def record_cholesky(monkeypatch):
    """Make the graph's Cholesky factorization append, per call, whether it
    raised."""
    raised = []
    cho_factor = factor_graph._cho_factor

    def recording(*args, **kwargs):
        try:
            out = cho_factor(*args, **kwargs)
        except np.linalg.LinAlgError:
            raised.append(True)
            raise
        raised.append(False)
        return out

    monkeypatch.setattr(factor_graph, "_cho_factor", recording)
    return raised


class TestMarginalizationEdges:
    def test_variable_without_factors_is_refused_before_any_change(self):
        g = translation_chain(2, np.random.default_rng(13), [0.0] * 3, [0.0] * 3,
                              [10.0] * 6)
        g.add_variable(2, zero_state(2.0))  # no factor
        values, factors = dict(g.values), list(g.factors)
        with pytest.raises(DisconnectedGraph, match="variables without factors") as info:
            g.marginalize([0])
        assert isinstance(info.value.__cause__, UnderConstrainedGraph)
        assert list(g.values) == list(values)
        assert all(g.values[k] is v for k, v in values.items())
        assert g.factors == factors

    @staticmethod
    def chain():
        return translation_chain(3, np.random.default_rng(13), [0.0] * 3, [0.0] * 3,
                                 [10.0] * 6)

    def test_a_repeated_key_counts_once(self):
        twice, once = self.chain(), self.chain()
        a, b = twice.marginalize([1, 1]), once.marginalize([1])
        assert a.keys == b.keys == (0, 2)
        assert a.hessian.tobytes() == b.hessian.tobytes()
        assert a.gradient.tobytes() == b.gradient.tobytes()
        assert a.constant == b.constant
        for g in (twice, once):
            assert list(g.values) == [0, 2]
            assert (len(g.priors), len(g.imu.factors)) == (4, 0)
        assert [f.kind for f in twice.factors] == [f.kind for f in once.factors]

    def test_an_empty_list_changes_nothing(self):
        g = self.chain()
        values, factors, priors = dict(g.values), list(g.factors), list(g.priors)
        imu_rows = g.imu.factors
        prior = g.marginalize([])
        assert prior.keys == () and prior.constant == 0.0
        assert prior.hessian.shape == (0, 0) and prior.gradient.shape == (0,)
        assert list(g.values) == list(values)
        assert all(g.values[k] is v for k, v in values.items())
        assert g.factors == factors and g.priors == priors and g.imu.factors is imu_rows

    def test_unobserved_velocity_and_bias_fold_through_the_jitter(self, monkeypatch):
        # frame 0 keeps its pose prior and its matching factor, but nothing
        # informs its velocity or biases, so their block of H is zero
        g, _ = two_pose_registration(anchor=np.r_[np.full(6, 1e6), np.zeros(9)])
        raised = record_cholesky(monkeypatch)
        prior = g.marginalize([0])
        assert raised == [True, False]
        assert prior.keys == (1,)
        assert np.all(np.isfinite(prior.hessian)) and np.all(np.isfinite(prior.gradient))
        assert np.isfinite(prior.constant)
        evals = np.linalg.eigvalsh(prior.hessian)
        assert evals.max() > 0 and evals.min() >= -1e-8 * evals.max()

    def test_marginal_covariance_of_a_singular_held_system(self, monkeypatch):
        # a rank-one prior with every diagonal entry set: the damped solve
        # converges, and the undamped H it holds has no Cholesky factor
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_factor(MarginalPriorFactor([0], dict(g.values),
                                         np.ones((15, 15)), np.zeros(15)))
        assert g.optimize_lm().converged
        raised = record_cholesky(monkeypatch)
        cov = g.marginal_covariance(0)
        assert raised == [True, False]
        assert cov.shape == (15, 15) and np.all(np.isfinite(cov))


class TestCholesky:
    @pytest.mark.parametrize("n", [15, 90, 120])
    def test_factor_and_solve_equal_scipys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = a @ a.T + n * np.eye(n)
        ref = scipy.linalg.cho_factor(a, lower=True)
        c = factor_graph._cho_factor(a)
        assert c.tobytes() == ref[0].tobytes()
        for b in (rng.normal(size=n), rng.normal(size=(n, 15))):
            assert (factor_graph._cho_solve(c, b).tobytes()
                    == scipy.linalg.cho_solve(ref, b).tobytes())
        g, damping = rng.normal(size=n), rng.uniform(0.0, 1.0, n)
        damped = scipy.linalg.cho_factor(a + np.diag(damping), lower=True)
        assert (factor_graph._damped_step(a, g, damping).tobytes()
                == scipy.linalg.cho_solve(damped, -g).tobytes())

    def test_a_matrix_that_is_not_finite_is_refused(self):
        # LAPACK factors a NaN without an error; the check before it does not
        a = np.eye(6)
        a[2, 2] = np.nan
        assert factor_graph._damped_step(a, np.ones(6), np.ones(6)) is None
        with pytest.raises(ValueError):
            factor_graph._cholesky(a)

    def test_a_matrix_that_is_not_positive_definite_takes_the_jitter(self, monkeypatch):
        a = np.ones((6, 6))  # rank one
        raised = record_cholesky(monkeypatch)
        c = factor_graph._cholesky(a)
        assert raised == [True, False]
        jittered = scipy.linalg.cho_factor(a + 1e-9 * np.eye(6), lower=True)
        assert c.tobytes() == jittered[0].tobytes()


class TestMarginalizationProperties:
    @given(n=st.integers(3, 6), data=st.data(),
           seed=st.integers(0, 2**32 - 1),
           translation=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
           velocity=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           log_info=st.lists(st.floats(1.0, 4.0), min_size=6, max_size=6))
    def test_marginalizing_a_prefix_keeps_the_batch_optimum(
            self, n, data, seed, translation, velocity, log_info):
        k = data.draw(st.integers(1, n - 1), label="marginalized")
        info = 10.0 ** np.asarray(log_info)
        batch = translation_chain(n, np.random.default_rng(seed), translation,
                                  velocity, info)
        batch.optimize_lm()
        g = translation_chain(n, np.random.default_rng(seed), translation,
                              velocity, info)
        # as in the fixed-lag window, marginalize one state at a time at the
        # estimate of a solve, here one cut short after two iterations.  At
        # the initial values, or with prior strengths below 10, the marginal
        # prior's cost cancels so far from zero that its rounding hides
        # errors above the bound from the re-solve's acceptance test,
        # whatever the marginalization.
        g.optimize_lm(LmSettings(max_iterations=2))
        for i in range(k):
            g.marginalize([i])
        g.optimize_lm()
        for i in range(k, n):
            err = state_local(g.values[i], batch.values[i])
            assert np.linalg.norm(err) < 1e-8


def imu_block(factors) -> ImuBlock:
    """A block of the IMU factors' rows, in their order."""
    block = ImuBlock()
    for f in factors:
        block.add(f)
    return block


def linearize_imu(f, values) -> FactorLinearization:
    """One IMU factor linearized by the stacked pass of a block that holds
    that factor alone."""
    grad, hess, costs = imu_block([f]).linearize(values)
    return FactorLinearization(grad[0], hess[0], costs[0])


def reference_imu_lin(f, values):
    """(g, h, cost) of one IMU factor from the per-factor oracle, weighted
    with 2-D products."""
    r, j_i, j_j = per_factor_imu_residual(values[f.keys[0]], values[f.keys[1]],
                                          f.pre, GRAVITY)
    jac = np.hstack([j_i, j_j])
    w = 2.0 * jac.T @ f.information
    return w @ r, w @ jac, float(r @ f.information @ r)


def reference_lin(f, values, block):
    """(g, h, cost) of one factor linearized alone; an IMU factor by the
    per-factor oracle, a matching factor by the 2-D per-factor kernel on
    the terms the block holds in its row, at the relative pose that
    ``pose_compose`` forms, and (None, None, 0.0) without terms."""
    if isinstance(f, ImuFactor):
        return reference_imu_lin(f, values)
    if not isinstance(f, MatchingCostFactor):
        return f.linearize(values)
    held = held_terms(block, f)
    if held is None:
        return None, None, 0.0
    t_j = f.fixed_target_pose if f.grounding else values[f.keys[1]].pose
    t_ij = pose_compose(pose_inverse(t_j), values[f.keys[0]].pose)
    return reference_linearize(held, t_ij, f.grounding)


def kind_order(f) -> int:
    """Where the assembly takes a factor's kind: the factors that linearize
    alone (the priors), then the IMU factors, then the binary and the unary
    matching factors."""
    if isinstance(f, MatchingCostFactor):
        return 3 if f.grounding else 2
    return 1 if isinstance(f, ImuFactor) else 0


def reference_assembly(factors, values, slices, dim, block):
    """Oracle: (H, g, cost) with every factor linearized alone, visited in
    kind order (factor order within a kind), its block placed one key pair
    at a time and its cost summed in that order; a matching factor on the
    terms of its row of the block.  A matching block covers the pose, the
    leading 6 components, of each key; every other block all 15."""
    h, g, cost = np.zeros((dim, dim)), np.zeros(dim), 0.0
    for f in sorted(factors, key=kind_order):
        g_f, h_f, c_f = reference_lin(f, values, block)
        cost += c_f
        if h_f is None:
            continue
        n = 6 if isinstance(f, MatchingCostFactor) else 15
        places = [(slice(slices[k].start, slices[k].start + n), slice(a * n, a * n + n))
                  for a, k in enumerate(f.keys)]
        for sys_a, blk_a in places:
            g[sys_a] += g_f[blk_a]
            for sys_b, blk_b in places:
                h[sys_a, sys_b] += h_f[blk_a, blk_b]
    return h, g, cost


def reference_cost(f, values, block):
    if isinstance(f, (ImuFactor, MatchingCostFactor)):
        return reference_lin(f, values, block)[2]
    return f.cost(values)


def assemble(graph, values, slices, dim):
    """(H, g, cost) of the assembly of the graph's stores at the values."""
    stores = graph.priors, graph.imu, graph.matching
    return _accumulate(*stores, values, _Placement(*stores, slices, dim))


class TestStackedAssembly:
    @pytest.fixture(scope="class")
    def window(self):
        """The graph after 22 scans of the seed-1 loop, with a link of an
        empty source and one below its min_inliers added last."""
        est, _ = run(generate_synthetic_scene(loop_spec(1, 20)), n_scans=22)
        graph = est.graph
        matching = graph.matching.factors
        binary = next(f for f in matching if not f.grounding)
        unary = next(f for f in matching if f.grounding)
        empty = make_frame(np.zeros((0, 3)), covs=np.zeros((0, 3, 3)))
        graph.add_links(MatchingBlock([MatchingCostFactor(
            binary.keys[0], empty, binary.target_map, binary.keys[1], min_inliers=10)]))
        graph.add_links(MatchingBlock([MatchingCostFactor(
            unary.keys[0], unary.source, unary.target_map, unary.fixed_target_pose,
            min_inliers=10**9)]))
        return graph

    def test_accumulate_and_total_cost_equal_a_per_factor_reference(self, window):
        kinds = {f.kind for f in window.factors}
        assert {"matching-cost-unary", "matching-cost-binary"} <= kinds
        values, block = window.values, window.matching
        slices, dim = _layout(values)
        h, g, cost = assemble(window, values, slices, dim)
        # the reference reads the terms the assembly's lookups left held
        h_ref, g_ref, cost_ref = reference_assembly(window.factors, values,
                                                    slices, dim, block)
        assert h.tobytes() == h_ref.tobytes()
        assert g.tobytes() == g_ref.tobytes()
        assert cost == cost_ref
        empty, starved = (block.factors.index(f) for f in window.factors[-2:])
        assert block.inliers[empty] == 0 and not block.held[empty]
        assert block.inliers[starved] > 0 and not block.held[starved]
        # a candidate step costs on the held terms, without a lookup
        rng = np.random.default_rng(4)
        step = {k: state_retract(v, rng.normal(scale=1e-3, size=15))
                for k, v in values.items()}
        for at in (values, step):
            assert window.total_cost(at) == sum(
                (reference_cost(f, at, block)
                 for f in sorted(window.factors, key=kind_order)), 0.0)

    def test_assembly_ignores_how_the_kinds_are_interleaved(self, window):
        # every factor that is not a matching one moved behind the matching
        # ones, the factors of each kind in their own order; the links come
        # with their rows, so both graphs hold the same matching state
        moved = FactorGraph()
        for k, v in window.values.items():
            moved.add_variable(k, v)
        moved.add_links(window.matching)
        for f in window.factors:
            if not isinstance(f, MatchingCostFactor):
                moved.add_factor(f)
        assert moved.factors != window.factors
        slices, dim = _layout(window.values)
        h, g, cost = assemble(window, window.values, slices, dim)
        h_moved, g_moved, cost_moved = assemble(moved, window.values, slices, dim)
        assert h.tobytes() == h_moved.tobytes()
        assert g.tobytes() == g_moved.tobytes()
        assert cost == cost_moved
        assert window.total_cost(window.values) == moved.total_cost(moved.values)

    def test_marginalization_assembles_as_the_per_key_pair_loop(
            self, window, monkeypatch):
        graph = copy.deepcopy(window)
        assembled = factor_graph._accumulate
        oldest = next(iter(graph.values))
        involved = [f for f in graph.factors if oldest in f.keys]
        # the layout of marginalize: the removed key, then the retained ones
        # in the order the graph holds their factors
        slices, dim = _layout([oldest, *dict.fromkeys(
            k for f in involved for k in f.keys if k != oldest)])
        checked = []

        def compare(priors, imu, matching, values, placement):
            h, g, cost = assembled(priors, imu, matching, values, placement)
            factors = priors + imu.factors + matching.factors
            h_ref, g_ref, cost_ref = reference_assembly(factors, values, slices, dim,
                                                        matching)
            checked.append((h.tobytes() == h_ref.tobytes(),
                            g.tobytes() == g_ref.tobytes(), cost == cost_ref))
            return h, g, cost

        monkeypatch.setattr(factor_graph, "_accumulate", compare)
        assert {f.kind for f in involved} >= {"imu-preintegration",
                                              "marginal-prior",
                                              "matching-cost-binary"}
        rows = len(graph.matching.factors), len(graph.imu.factors), len(graph.priors)
        graph.marginalize([oldest])
        assert checked == [(True, True, True)]
        # the rows of the removed factors leave their stores with them, and
        # the new prior joins the priors
        assert (len(graph.matching.factors), len(graph.imu.factors),
                len(graph.priors)) == (
            rows[0] - sum(isinstance(f, MatchingCostFactor) for f in involved),
            rows[1] - sum(isinstance(f, ImuFactor) for f in involved),
            rows[2] + 1 - sum(isinstance(f, MarginalPriorFactor) for f in involved))
        for store in (graph.matching.factors, graph.imu.factors, graph.priors):
            assert all(oldest not in f.keys for f in store)
        assert graph.imu.pre.cov.shape[0] == len(graph.imu.factors)
        assert graph.imu.information.shape[0] == len(graph.imu.factors)

    def test_stacked_imu_pass_equals_each_factor_alone(self, window):
        imu = [f for f in window.factors if isinstance(f, ImuFactor)]
        assert len(imu) > 1
        rng = np.random.default_rng(5)
        step = {k: state_retract(v, rng.normal(scale=1e-3, size=15))
                for k, v in window.values.items()}
        for at in (window.values, step):
            block = imu_block(imu)
            costs = block.costs(at)
            grad, hess, lin_costs = block.linearize(at)
            assert lin_costs == costs
            for k, f in enumerate(imu):
                g_ref, h_ref, cost_ref = reference_imu_lin(f, at)
                alone = linearize_imu(f, at)
                for got in (grad[k], alone.g):
                    assert got.tobytes() == g_ref.tobytes()
                for got in (hess[k], alone.h):
                    assert got.tobytes() == h_ref.tobytes()
                assert costs[k] == alone.cost == cost_ref

    def test_linearization_at_an_accepted_candidate_forms_only_the_jacobians(
            self, window):
        graph = copy.deepcopy(window)
        slices, dim = _layout(graph.values)
        rng = np.random.default_rng(6)
        candidate = {k: state_retract(v, rng.normal(scale=1e-4, size=15))
                     for k, v in graph.values.items()}
        stores = graph.priors, graph.imu, graph.matching
        placement = _Placement(*stores, slices, dim)
        graph.total_cost(candidate)  # the candidate's cost fills the stages
        stage, poses = graph.imu.stage, graph.matching.poses
        with mock.patch.object(factor_graph, "imu_residuals",
                               wraps=factor_graph.imu_residuals) as residuals:
            kept = _accumulate(*stores, candidate, placement)
            assert residuals.call_count == 0 and graph.imu.stage is stage
            assert graph.matching.poses is poses
            for f in graph.priors:
                f._last = None
            graph.imu.states = graph.matching.states = None
            fresh = assemble(graph, candidate, slices, dim)
            assert residuals.call_count == 1 and graph.matching.poses is not poses
        for a, b in zip(kept, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @staticmethod
    def stacked_in_a_solve(window):
        """The records that each ``stack`` call of a window solve stacked."""
        graph = copy.deepcopy(window)
        with (mock.patch.object(factor_graph, "stack", wraps=factor_graph.stack) as fg,
              mock.patch.object(imu_module, "stack", wraps=imu_module.stack) as own):
            graph.optimize_lm()
        return [c.args[0] for c in fg.call_args_list + own.call_args_list]

    def test_a_window_solve_stacks_no_terms(self, window):
        # the matching block holds the stacked terms
        assert not any(isinstance(r, FrozenTerms)
                       for records in self.stacked_in_a_solve(window) for r in records)

    def test_a_window_solve_stacks_no_preintegration(self, window):
        # the IMU block stacks each preintegration once, as its row comes,
        # so a solve stacks nothing
        assert any(isinstance(f, ImuFactor) for f in window.factors)
        assert self.stacked_in_a_solve(window) == []

    def test_no_second_look_up_at_the_pose_of_the_last(self, window):
        rows = window.matching
        n = next(n for n, f in enumerate(rows.factors)
                 if not f.grounding and rows.inliers[n] > 0)
        block = MatchingBlock([copy.deepcopy(rows.factors[n])])
        values = window.values
        with mock.patch.object(GaussianVoxelMap, "look_up", autospec=True,
                               side_effect=GaussianVoxelMap.look_up) as look_up:
            first = linearize_matching(block, values)
            again = linearize_matching(block, values)
            assert look_up.call_count == 1
            moved = dict(values)
            moved[block.factors[0].keys[0]] = state_retract(
                values[block.factors[0].keys[0]], np.full(15, 1e-3))
            linearize_matching(block, moved)
            assert look_up.call_count == 2
        assert first.h.tobytes() == again.h.tobytes() and first.cost == again.cost


def ulps_from(x: float, k: int) -> float:
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def scalar_move(block, n, rot, trans) -> float:
    """The exact move bound of row n of the block, from its last look-up to
    the relative pose (rot, trans), the row taken alone: the spin
    sqrt(3 - tr(R0^T R)) times the reach, plus the shift."""
    spin = np.sqrt(max(0.0, 3.0 - float(np.vdot(block.rot0[n], rot))))
    return spin * block.reach[n] + float(np.linalg.norm(trans - block.trans0[n]))


class TestSolveStacks:
    @staticmethod
    def unary_factors(n):
        """n unary factors on keys 0..n-1, each with its own source and map,
        at the identity target pose, so each relative pose is the source
        state's pose."""
        return [MatchingCostFactor(k, *conditioned_pair(40 + k), identity_pose(),
                                   min_inliers=5) for k in range(n)]

    def test_stacked_relook_test_looks_up_where_the_scalar_test_does(self):
        # the block's one relook test, stacked over its rows, against each
        # row's exact bound taken alone (scalar_move): at a pure shift the
        # two agree to the ulp where the move meets the bound; after a turn
        # they may round apart within a few ulps of it, and agree 1e-7 of
        # the reach away from it; a row without a look-up has a NaN move,
        # which is due
        bound = RELOOK_FRACTION * 0.5
        turn = so3_exp([0.3, -0.2, 0.5])
        tiny = turn * so3_exp([1e-9, 0.0, 0.0])  # a spin near rounding
        # (rotation at the first look-up, at the second, and the shift along
        # x as an offset from where the scalar move meets the bound, in ulps
        # or in reaches, or as a fraction of the bound)
        cases = ([(identity_pose().rotation, identity_pose().rotation, ("ulps", k))
                  for k in (-3, -1, 0, 1, 3)]
                 + [(turn, turn, ("ulps", k)) for k in (-2, 0, 2)]
                 + [(turn, tiny, ("ulps", k)) for k in (-2, 0, 2)]
                 + [(turn, turn, ("reach", -1e-7)), (turn, turn, ("reach", 1e-7)),
                    (turn, turn, ("bound", 0.5)), (turn, turn, ("bound", 2.0))])
        rounding = {k for k, (a, _, (kind, _)) in enumerate(cases)
                    if kind == "ulps" and a is turn}
        factors = self.unary_factors(len(cases) + 1)
        block = MatchingBlock(factors[:-1])
        block.linearize({k: at_pose(Se3Pose(a, np.zeros(3)))
                         for k, (a, _, _) in enumerate(cases)})
        assert not np.isnan(block.trans0).any()
        block.extend(MatchingBlock(factors[-1:]))  # a row with no look-up yet

        second = {len(cases): zero_state()}
        for k, (_, b, (kind, amount)) in enumerate(cases):
            spin = scalar_move(block, k, b.matrix(), np.zeros(3))
            if kind == "ulps":
                x = ulps_from(bound - spin, amount)
            elif kind == "reach":
                x = bound - spin + amount * block.reach[k]
            else:
                x = amount * bound
            second[k] = at_pose(Se3Pose(b, np.array([x, 0.0, 0.0])))
        rot, trans = block._relative_poses(second)
        for k, state in second.items():
            assert rot[k].tobytes() == state.pose.rotation.matrix().tobytes()
            assert trans[k].tobytes() == state.pose.translation.tobytes()
        moves = [scalar_move(block, k, rot[k], trans[k]) for k in range(len(cases))]
        expected = {k for k, move in enumerate(moves) if move > bound} | {len(cases)}
        # moves within a few ulps of the bound on both sides
        assert {ulps_from(bound, k) for k in (-1, 1)} <= set(moves)
        assert 1 < len(expected - rounding) < len(factors) - len(rounding)
        maps = [f.target_map for f in factors]
        with mock.patch.object(GaussianVoxelMap, "look_up", autospec=True,
                               side_effect=GaussianVoxelMap.look_up) as look_up:
            block.linearize(second)
        looked = [maps.index(c.args[0]) for c in look_up.call_args_list]
        assert looked == sorted(set(looked))
        assert set(looked) - rounding == expected - rounding

    def test_held_stack_is_patched_to_the_stack_of_the_held_terms(self):
        # a look-up that forms new terms writes them over its row of the
        # block's one stack, and nothing stacks terms again
        factors = self.unary_factors(4)
        block = MatchingBlock(factors)
        at = {k: zero_state() for k in range(4)}
        block.linearize(at)
        terms, before = block.terms, [terms_bytes(block, n) for n in range(4)]
        assert block.held.all()
        # two factors move far enough that rows change and terms re-form
        moved = dict(at)
        for k in (1, 3):
            moved[k] = at_pose(Se3Pose(identity_pose().rotation, np.array([0.2, 0.1, 0.0])))
        with mock.patch.object(factor_graph, "stack", wraps=factor_graph.stack) as restack:
            block.linearize(moved)
        assert restack.call_count == 0 and block.terms is terms
        assert [terms_bytes(block, n) == b for n, b in enumerate(before)] == [
            True, False, True, False]
        want = factor_graph.stack([terms_at(f.source, f.target_map, moved[k].pose)
                                   for k, f in enumerate(factors)])
        for got, field in zip(terms, want):
            assert np.asarray(got).tobytes() == np.asarray(field).tobytes()

    def test_no_cache_outlives_its_solve(self):
        # each block lives with the graph's factors, shares no memory with
        # another graph's block, and drops the row of a marginalized factor,
        # and with it the link's source frame, the factor's preintegration
        # and the states its last pass read, at once
        graphs = [two_pose_registration()[0] for _ in range(2)]
        chains = [self.imu_pair() for _ in range(2)]
        for g in graphs + chains:
            g.optimize_lm()

        def arrays(block):
            return [block.rot0, block.trans0, block.inliers, block.held, *block.terms,
                    *(a for found in block.found for a in found)]

        def imu_arrays(block):
            return [block.information, *block.pre, *block.stage[0]]

        for held in (arrays(g.matching) for g in graphs), (imu_arrays(g.imu) for g in chains):
            a, b = held
            assert all(not np.shares_memory(x, y) for x in a for y in b)
        del a, b, held

        g = graphs[0]
        source = weakref.ref(g.factors[1].source)
        g.marginalize([1])
        gc.collect()
        assert source() is None and g.matching.factors == []

        g = chains[0]
        states = [weakref.ref(s) for s in (g.values[0], g.imu.states[0])]
        pre = weakref.ref(g.imu.factors[0].pre.cov)
        g.marginalize([0])
        gc.collect()
        assert [s() for s in states] == [None, None]
        assert pre() is None and g.imu.factors == [] and g.imu.states is None

    @staticmethod
    def imu_pair() -> FactorGraph:
        """Two states one second apart, linked by an IMU factor on a
        preintegration of its own, the first held by a prior."""
        g = FactorGraph()
        g.add_variable(0, zero_state())
        g.add_variable(1, zero_state(1.0))
        g.add_factor(state_prior(0, zero_state(), np.full(15, 1e6)))
        g.add_factor(imu_factor(0, 1, preintegrate(STILL_SAMPLES, 0.0, 1.0, np.zeros(6),
                                                   NOISE, MAX_GAP)))
        return g
