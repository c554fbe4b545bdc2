"""Factor graph container, on-manifold Levenberg-Marquardt, and fixed-lag
marginalization.

On linearization every factor gives one dense block: the gradient and
Gauss-Newton Hessian of its cost over its own tangent space, the leading
components of each key stacked in key order (all 15 of a state, or the 6 of
its pose for a matching factor).  The optimizer assembles damped normal
equations at the current estimate each iteration and holds the last
undamped system, which ``marginal_covariance`` reads.
A matching-cost factor looks its correspondences up again only when it is
linearized, and then only once a source point can have moved
``RELOOK_FRACTION`` of a voxel since its last look-up.  Only when a voxel
row changed does it form their weights and fold them, in one step
(``match_terms``), into a quadratic in the relative pose, from which it
takes its block (``linearize_from_terms``) and costs the candidate steps of
an iteration in O(1).  So the cost the optimizer compares is smooth within
an iteration, and it is the cost of the Gauss-Newton model's own weights.
A prior (``MarginalPriorFactor``) is a fixed quadratic in the offset from
its linearization point.

An assembly (``_accumulate``) takes one pass per factor kind, kind after
kind: each prior linearizes alone; one stacked pass forms the residuals,
Jacobians and blocks of all IMU factors (``imu_residuals``,
``imu_jacobians``); and one stacked pass forms the relative poses of all
matching factors, binary then unary, each factor whose points can have
moved past its bound then has its target map look its points up at its
pose (``GaussianVoxelMap.look_up``, which moves, packs and searches them),
and one stacked call takes the blocks (or the costs) of all held
quadratics.  Each pass scatters its blocks into H and g
right after it, at flat positions built once per solve (``_Placement``).
So the terms reach each entry of H and g from zero, kind after kind and in
factor order within a kind, whatever order the graph holds its factors in,
and the costs are summed in that order too.  Each slice of a stacked
product is the 2-D product of that slice, so every block and cost is the
same bits as with the factor taken alone.  The stacked passes are the only
way a matching or IMU factor is costed or linearized; only the prior has
its own ``cost`` and ``linearize``.

No factor repeats an evaluation whose inputs did not change.  A solve
keeps one memo (``_SolveMemo``) on the graph and drops it when it returns.
It holds the residual stage of the last IMU pass, so the linearization at
an accepted candidate, whose cost formed that stage, forms only the
Jacobians; and the matching factors' stacks (``_MatchingStacks``): the
relative poses of the last pass, which that linearization reuses too, the
fixed target poses of the unary factors, and the held quadratics, stacked
once and patched at each factor that forms new ones.  A marginal prior
keeps its last offset.  A matching factor goes further and keeps its rows
and terms while its source points stay within ``RELOOK_FRACTION`` of a
voxel of where its last look-up found them; its held quadratic is exact at
any pose for those rows and weights.  One stacked test per linearization
forms every factor's move bound, and only the factors not clearly inside it
take the factor's own exact test, so the decisions are the exact test's.

Every variable is the SensorState of one frame, keyed by the frame's index,
with a 15-dof tangent (rot, trans, vel, accel bias, gyro bias).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DisconnectedGraph,
    DuplicateVariable,
    NotConverged,
    UnderConstrainedGraph,
    UnknownVariable,
)
from .geometry import (
    Se3Pose,
    SensorState,
    state_local,
    state_retract,
)
from .imu import ImuResiduals, PreintegratedImu, imu_jacobians, imu_residuals, stack
from .registration import (
    FrozenTerms,
    GaussianVoxelMap,
    frozen_cost,
    linearize_from_terms,
    match_terms,
)
from .preprocess import Frame

STATE_DIM = 15  # tangent dimension of every variable
# a matching factor looks up again once a source point can have moved this
# fraction of a voxel since its last look-up
RELOOK_FRACTION = 0.01
# optimize_lm stops once one step changes the cost by at most this fraction
# of it; correspondences jump between voxels, so much less is below the noise
REL_COST_TOL = 1e-6
LAMBDA_INIT = 1e-6  # the damping of a solve's first step
LAMBDA_MAX = 1e12  # damping past this raises NotConverged
# tr(R0^T R) of two rotations, summed in any order, is within this of
# np.vdot(R0, R): the nine products add up to at most 3 in magnitude, so
# either sum is within a few ulps of 3 of the exact trace
_TRACE_ROUNDING = 1e-13


class FactorLinearization(NamedTuple):
    """Gradient and Gauss-Newton Hessian of a prior's cost over its own
    tangent space, all 15 components of each key in key order, and the
    cost."""

    g: np.ndarray
    h: np.ndarray
    cost: float


class Factor:
    keys: tuple
    kind: str  # the type of factor, as a run reports it
    grounding = False  # anchors its component absolutely


class ImuFactor(Factor):
    """Preintegrated relative-motion constraint plus bias random walk.

    The factor holds only its preintegration and the information formed
    from its noise: the inverse of ``pre.cov`` on the motion rows and of
    ``pre.walk`` on the bias rows.  All the IMU factors of a graph are
    costed and linearized together, in one stacked pass over their K
    residuals (``_imu_stage``) and Jacobians (``_imu_blocks``).
    """

    kind = "imu-preintegration"

    def __init__(self, key_i: int, key_j: int, pre: PreintegratedImu):
        self.keys = (key_i, key_j)
        self.pre = pre
        info9 = np.linalg.inv(pre.cov)
        info9 = 0.5 * (info9 + info9.T)
        self.information = np.zeros((15, 15))
        self.information[:9, :9] = info9
        self.information[9:, 9:] = np.diag(1.0 / pre.walk)


class _ImuStage(NamedTuple):
    """The stacked residual stage of K IMU factors at 2K states: state i
    then state j of each factor, in factor order, with their K
    preintegrations stacked into one ``PreintegratedImu``."""

    factors: tuple
    states: tuple
    pre: PreintegratedImu
    information: np.ndarray  # (K, 15, 15)
    residuals: ImuResiduals
    costs: list  # r.W r per factor, as Python floats


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _imu_stage(factors, values, last: _ImuStage | None = None) -> _ImuStage:
    """The residual stage of the IMU factors at the values.  It is ``last``
    itself when that holds the same factors at the same state objects,
    compared with ``is``: the states are immutable and the stage holds
    them, so an equal identity is an equal input.  With the same factors
    only, it reuses last's stacked preintegrations and informations."""
    factors = tuple(factors)
    states = tuple(values[k] for f in factors for k in f.keys)
    if last is not None and _same(last.factors, factors):
        if _same(last.states, states):
            return last
        pre, info = last.pre, last.information
    else:
        pre = stack([f.pre for f in factors])
        info = np.array([f.information for f in factors])
    res = imu_residuals(states[0::2], states[1::2], pre)
    r = res.residual
    costs = np.matmul(np.matmul(r[:, None, :], info), r[:, :, None])[:, 0, 0]
    return _ImuStage(factors, states, pre, info, res, costs.tolist())


def _imu_blocks(stage: _ImuStage) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (K, 30) and Gauss-Newton Hessians (K, 30, 30) of the
    stage's factors, 2 J^T W r and 2 J^T W J, over state i then state j."""
    jac = imu_jacobians(stage.residuals, stage.pre)
    w = np.matmul(2.0 * jac.transpose(0, 2, 1), stage.information)
    return (np.matmul(w, stage.residuals.residual[:, :, None])[:, :, 0],
            np.matmul(w, jac))


class MatchingCostFactor(Factor):
    """Voxelized registration constraint between a source frame and a
    target voxel map.  Its target is the target frame's state key, which
    makes the factor binary, or that frame's fixed pose, which makes it
    unary and grounding (it anchors the source's component).

    The source/target poses are the pose components of the connected
    states.  The factor holds one record: the relative pose, keys and
    voxel rows of its last lookup, and the cost on those rows with the
    weights frozen where the rows were last found, as a quadratic in the
    change of the relative pose (``FrozenTerms``).  The graph costs and
    linearizes all its matching factors together.  A cost
    (``_matching_costs``) evaluates the held quadratic in O(1); it looks up
    only if there was no lookup yet.  A linearization (``_matching_blocks``)
    looks the voxel of every source point up at the given estimate once a
    point can have moved ``RELOOK_FRACTION`` of a voxel since the last
    lookup (the source frame's ``reach`` bounds the move), searching the
    map only for the points whose packed voxel key changed, and forms new
    terms at that estimate only when a row changed; it then takes the block
    from the held quadratic.  So a point crossing a voxel boundary does not
    make the cost jump between two linearizations, a point that left its
    voxel by less than that fraction may keep its row, and a linearization
    that finds the same rows keeps the weights of the one that found them.
    The graph forms the move bound of all its matching factors in one
    stacked pass (``_MatchingStacks.to_look_up``), which rounds otherwise
    than ``_look_up``'s exact test: by up to sqrt(_TRACE_ROUNDING) times the
    reach where the turn is near zero.  A factor whose stacked bound is
    inside by more than that guard band is not asked; every other one takes
    the exact test, so the stacked pass changes no decision.
    With an empty source or map, or fewer than ``min_inliers``
    correspondences, the factor contributes nothing and forms no terms;
    ``linked`` admits a candidate by this gate.
    """

    def __init__(self, key_source: int, source: Frame, target_map: GaussianVoxelMap,
                 target: int | Se3Pose, *, min_inliers: int):
        self.grounding = isinstance(target, Se3Pose)
        self.keys = (key_source,) if self.grounding else (key_source, target)
        self.fixed_target_pose = target if self.grounding else None
        self.kind = "matching-cost-unary" if self.grounding else "matching-cost-binary"
        self.source = source
        self.target_map = target_map
        self.min_inliers = min_inliers
        self._empty = (len(source) == 0 or len(target_map) == 0
                       or source.cov_rows is None)
        # (rot, trans, keys, rows) of the last look-up: its relative pose,
        # and the packed voxel key and voxel row per source point
        self._lookup = None
        self.inliers = 0  # source points that found a voxel at the last look-up
        # FrozenTerms on the rows of self._lookup; None below min_inliers
        self._held = None

    def _look_up(self, rot: np.ndarray, trans: np.ndarray) -> None:
        """Find every source point's voxel row at the relative pose
        (rot, trans); re-form the held terms there when a row changed.
        Nothing is searched while no source point can have moved more than
        RELOOK_FRACTION of a voxel since the last look-up: a point p moves
        by (R - R0) p + (t - t0), whose norm is at most
        ||R - R0|| reach + ||t - t0||, and for rotations ||R - R0||, the
        spectral norm, is sqrt(3 - tr(R0^T R)) exactly."""
        if self._lookup is not None:
            rot0, trans0, keys, rows = self._lookup
            spin = np.sqrt(max(0.0, 3.0 - float(np.vdot(rot0, rot))))
            move = spin * self.source.reach + float(np.linalg.norm(trans - trans0))
            if move <= RELOOK_FRACTION * self.target_map.resolution:
                return
            known = (keys, rows)
        else:
            known = None
        keys, rows = self.target_map.look_up(self.source.point_rows, rot, trans,
                                             known)
        same = known is not None and (
            rows is known[1] or np.array_equal(rows, known[1]))
        self._lookup = (rot, trans, keys, rows)
        if same:
            return
        self.inliers = int(np.count_nonzero(rows >= 0))
        self._held = None
        if self.inliers >= self.min_inliers:
            self._held = match_terms(self.source, self.target_map, rot, trans, rows)


class _MatchingStacks:
    """The stacks that the passes over one list of K matching factors keep
    between their calls; a solve keeps one for its duration.

    - The relative poses of the last call, with the state objects they were
      formed at, compared with ``is`` as ``_imu_stage`` compares them; and
      the fixed target poses of the unary factors, stacked once.
    - The relative pose of each factor's last look-up, for one stacked
      relook test per linearization (``to_look_up``).
    - The held terms of the factors that hold them, stacked once
      (``imu.stack``) and patched in place at each factor whose look-up
      formed new ones (``looked_up``).

    The factors' own records stay the source: the stacks copy them when
    built, and copy a factor's again after each of its look-ups.
    """

    def __init__(self, factors):
        self.factors = factors
        # the states the factors read, then one row per fixed target pose
        self.keys = list(dict.fromkeys(k for f in factors for k in f.keys))
        at = {k: n for n, k in enumerate(self.keys)}
        fixed = [f.fixed_target_pose for f in factors if f.grounding]
        row = iter(range(len(self.keys), len(self.keys) + len(fixed)))
        self.source = np.array([at[f.keys[0]] for f in factors], dtype=np.intp)
        self.target = np.array([next(row) if f.grounding else at[f.keys[1]]
                                for f in factors], dtype=np.intp)
        self.fixed_rot = np.array([p.rotation.matrix() for p in fixed]).reshape(-1, 3, 3)
        self.fixed_trans = np.array([p.translation for p in fixed]).reshape(-1, 3)
        self.states = self.poses = None  # of the last relative_poses

        k = len(factors)
        self.live = np.array([not f._empty for f in factors], dtype=bool)
        self.looked = np.zeros(k, dtype=bool)
        self.rot0, self.trans0 = np.zeros((k, 3, 3)), np.zeros((k, 3))
        self.reach = np.array([f.source.reach for f in factors])
        bound = np.array([RELOOK_FRACTION * f.target_map.resolution for f in factors])
        # a stacked move bound at most `inside` is clearly inside the bound:
        # its trace and the scalar test's np.vdot round apart by at most
        # _TRACE_ROUNDING, which the square root of 3 - tr magnifies near
        # zero to sqrt(_TRACE_ROUNDING) times the reach; 1e-9 of the bound
        # covers the few ulps in which the products, norms and sums differ
        self.inside = bound - (np.sqrt(_TRACE_ROUNDING) * self.reach + 1e-9 * bound)
        for n in range(k):
            self._copy_look_up(n)
        self.held = [f._held for f in factors]
        self._index()

    def relative_poses(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Rotations (K, 3, 3) and translations (K, 3) of the relative poses
        T_j^-1 T_i, from the source pose T_i and the target pose T_j (held
        or fixed); those of the last call when it read the same state
        objects.  They are the products that
        ``pose_compose(pose_inverse(T_j), T_i)`` forms, R_j^T R_i and
        t_i R_j - t_j R_j with row vectors; a stacked ``np.matmul`` forms
        each slice with the BLAS call of the 2-D product, so the two agree
        bit for bit."""
        states = tuple(values[k] for k in self.keys)
        if self.states is None or not _same(self.states, states):
            rot = np.concatenate([np.array([s.pose.rotation.matrix() for s in states]
                                           ).reshape(-1, 3, 3), self.fixed_rot])
            trans = np.concatenate([np.array([s.pose.translation for s in states]
                                             ).reshape(-1, 3), self.fixed_trans])
            rot_j = rot[self.target]
            rel_rot = np.matmul(rot_j.transpose(0, 2, 1), rot[self.source])
            rel_trans = np.matmul(trans[self.source][:, None], rot_j)
            rel_trans -= np.matmul(trans[self.target][:, None], rot_j)
            self.states, self.poses = states, (rel_rot, rel_trans[:, 0])
        return self.poses

    def to_look_up(self, rot: np.ndarray, trans: np.ndarray, relook: bool
                   ) -> np.ndarray:
        """Indices, in order, of the factors to hand to
        ``MatchingCostFactor._look_up`` at the relative poses: every factor
        with a source and a map that has no look-up yet, and with
        ``relook`` every one whose move bound, formed for all in one
        stacked pass, is not clearly inside its relook bound.  Those take
        the factor's own exact test, so the decisions are the scalar test's."""
        due = ~self.looked
        if relook:
            trace = np.einsum("kij,kij->k", self.rot0, rot)
            spin = np.sqrt(np.maximum(3.0 - trace, 0.0))
            shift = trans - self.trans0
            move = spin * self.reach + np.sqrt(np.einsum("ki,ki->k", shift, shift))
            due |= ~(move <= self.inside)  # a NaN move is due, as in the scalar test
        return np.flatnonzero(due & self.live)

    def looked_up(self, n: int) -> None:
        """Copy factor n's records after its look-up: its look-up pose, and
        its held terms into their row of the stack; when the factor gained
        or lost terms, the stack is dropped, to be built again on use."""
        self._copy_look_up(n)
        held, was = self.factors[n]._held, self.held[n]
        if held is was:
            return
        self.held[n] = held
        if held is None or was is None:
            self._index()
        elif self.terms is not None:
            for field, value in zip(self.terms, held):
                field[self.row[n]] = value

    def stacked(self) -> FrozenTerms | None:
        """The held terms of the factors in ``kept`` as one record, stacked
        on first use; None when no factor holds terms."""
        if self.terms is None and self.row:
            self.terms = stack([self.held[n] for n in self.kept])
        return self.terms

    def _copy_look_up(self, n: int) -> None:
        lookup = self.factors[n]._lookup
        if lookup is not None:
            self.rot0[n], self.trans0[n] = lookup[0], lookup[1]
            self.looked[n] = True

    def _index(self) -> None:
        """The factors that hold terms (``kept``), each one's row in the
        stack, and no stack yet."""
        self.kept = np.array([n for n, h in enumerate(self.held) if h is not None],
                             dtype=np.intp)
        self.row = {n: r for r, n in enumerate(self.kept.tolist())}
        self.terms = None


def linked(candidates, values) -> list:
    """The candidate matching factors that hold terms after their first
    look-up at the values, in order: those that found at least
    ``min_inliers`` hits.  The terms of these look-ups serve each factor's
    next cost and linearization."""
    stacks = _MatchingStacks(candidates)
    _look_ups(stacks, values, relook=True)
    return [candidates[k] for k in stacks.kept]


def _look_ups(stacks: _MatchingStacks, values, relook: bool):
    """The rotations (K, 3, 3) and translations (K, 3) of the matching
    factors' relative poses at the values, after the look-ups there.  The
    poses come from one stacked pass, or from the last call at the same
    states; each factor that ``to_look_up`` names is looked up at its pose,
    in factor order (``MatchingCostFactor._look_up``)."""
    rot, trans = stacks.relative_poses(values)
    for n in stacks.to_look_up(rot, trans, relook):
        stacks.factors[n]._look_up(rot[n], trans[n])
        stacks.looked_up(n)
    return rot, trans


def _matching_costs(stacks: _MatchingStacks, values) -> list[float]:
    """The cost of every matching factor, zero for one without terms: each
    looks up only if it has not yet, and one stacked ``frozen_cost``
    evaluates all held terms."""
    rot, trans = _look_ups(stacks, values, relook=False)
    costs, kept = np.zeros(len(stacks.factors)), stacks.kept
    if kept.size:
        costs[kept] = frozen_cost(stacks.stacked(), rot[kept], trans[kept])
    return costs.tolist()


def _matching_blocks(stacks: _MatchingStacks, values):
    """The linearization of every matching factor: each looks up, in
    order, if its points can have moved past its bound, and one stacked
    ``linearize_from_terms`` takes the blocks of all held terms.  Returns
    the gradients (K, 12), the Hessians (K, 12, 12) and the costs as Python
    floats, zero for a factor without terms; a factor with a fixed target
    takes the source pose's leading 6 and 6x6."""
    rot, trans = _look_ups(stacks, values, relook=True)
    k, kept = len(stacks.factors), stacks.kept
    grad, hess, costs = np.zeros((k, 12)), np.zeros((k, 12, 12)), np.zeros(k)
    if kept.size:
        grad[kept], hess[kept], costs[kept] = linearize_from_terms(
            stacks.stacked(), rot[kept], trans[kept])
    return grad, hess, costs.tolist()


class MarginalPriorFactor(Factor):
    """Dense Gaussian prior left behind by marginalized variables.

    Stores the Schur-complement gradient and Hessian at a frozen
    linearization point; evaluation treats the local-coordinate map as
    identity (first-order consistent at the linearization point).
    ``constant`` is the cost the marginalized factors keep at that point
    once the removed variables take their conditional optimum, so the
    prior's cost is that of the factors it replaces, offset included, and
    a window's total cost stays a sum of nonnegative terms.  The factor
    keeps its last offset with the state objects it was formed at, and
    forms it again only at other ones.

    The anchor of the first state is the marginal prior of an empty past:
    ``MarginalPriorFactor([k], {k: state}, diag(2 w), zeros(15))`` costs
    r.diag(w).r at the offset r from the state, to the bit.
    """

    grounding = True
    kind = "marginal-prior"

    def __init__(self, keys, lin_values: dict, hessian: np.ndarray,
                 gradient: np.ndarray, constant: float = 0.0):
        self.keys = tuple(keys)
        self.lin_values = dict(lin_values)
        self.hessian = 0.5 * (hessian + hessian.T)
        self.gradient = gradient
        self.constant = constant
        self._slices, self.dim = _layout(self.keys)
        self._last: tuple[tuple, np.ndarray] | None = None  # (states, delta)

    def _delta(self, values) -> np.ndarray:
        states = tuple(values[k] for k in self.keys)
        if self._last is not None and _same(self._last[0], states):
            return self._last[1]
        delta = np.empty(self.dim)
        for (k, sl), state in zip(self._slices.items(), states):
            delta[sl] = state_local(state, self.lin_values[k])
        self._last = (states, delta)
        return delta

    def _cost_at(self, d) -> float:
        return float(self.constant + self.gradient @ d + 0.5 * d @ self.hessian @ d)

    def cost(self, values) -> float:
        return self._cost_at(self._delta(values))

    def linearize(self, values) -> FactorLinearization:
        d = self._delta(values)
        return FactorLinearization(self.gradient + self.hessian @ d,
                                   self.hessian, self._cost_at(d))


@dataclass(slots=True)
class LmSettings:
    # window solves start warm; cap the tail
    max_iterations: int = 15


@dataclass
class OptimizeResult:
    final_cost: float  # on the correspondences the solve used last
    iterations: int  # linearizations of the whole graph
    converged: bool  # False when max_iterations ended the solve
    initial_cost: float
    cost_evaluations: int  # candidate steps whose cost was evaluated
    rejected_steps: int  # evaluated candidates that did not lower the cost


def _layout(keys):
    """Tangent slice of each key when the keys are stacked in order."""
    slices = {}
    off = 0
    for k in keys:
        slices[k] = slice(off, off + STATE_DIM)
        off += STATE_DIM
    return slices, off


def _by_kind(factors) -> tuple[list, list, list]:
    """The priors, which linearize alone, the IMU factors, and the matching
    factors, binary then unary; each list in factor order."""
    alone, imu, binary, unary = [], [], [], []
    for f in factors:
        if isinstance(f, MatchingCostFactor):
            (unary if f.grounding else binary).append(f)
        else:
            (imu if isinstance(f, ImuFactor) else alone).append(f)
    return alone, imu, binary + unary


class _SolveMemo:
    """The factors of one list by kind (``_by_kind``), and what the stacked
    passes over them keep between their calls: the residual stage of the
    last IMU pass, so that a linearization at the states of the last cost
    forms only the Jacobians, and the matching factors' stacks
    (``_MatchingStacks``).  ``optimize_lm`` keeps one on the graph while it
    runs and drops it when it returns, so nothing a memo holds outlives
    its solve."""

    def __init__(self, factors):
        self.alone, self.imu, matching = _by_kind(factors)
        self.matching = _MatchingStacks(matching)
        self.stage: _ImuStage | None = None

    def imu_stage(self, values) -> _ImuStage:
        self.stage = _imu_stage(self.imu, values, self.stage)
        return self.stage


class _Placement:
    """Where the blocks of each kind of a memo's factors land in the normal
    equations of one layout, built once for the factors and the layout: per
    factor that linearizes alone (``alone_at``), for the IMU stack
    (``imu_at``), and for the binary and the unary matching factors
    (``binary_at``, ``unary_at``; a matching block covers the pose of each
    key, so a unary one only its source's).  Each is the pair of flat
    positions in the row-major H and in g of its blocks' entries, factor
    after factor and each block row-major, so that one scatter per kind
    adds each entry's terms in factor order."""

    def __init__(self, memo: _SolveMemo, slices, dim):
        self.dim = dim
        matching = memo.matching.factors
        self.binary = sum(not f.grounding for f in matching)

        def at(fs, keys, width):
            # (H, g) positions of the leading `width` components of each key
            starts = np.array([[slices[k].start for k in f.keys] for f in fs],
                              dtype=np.intp).reshape(len(fs), keys, 1)
            rows = (starts + np.arange(width)).reshape(len(fs), keys * width)
            # 1-D, as np.add.at leaves its fast path for an index of more
            # dimensions
            return (rows[:, :, None] * dim + rows[:, None, :]).ravel(), rows.ravel()

        self.alone_at = [at([f], len(f.keys), STATE_DIM) for f in memo.alone]
        self.imu_at = at(memo.imu, 2, STATE_DIM)
        self.binary_at = at(matching[:self.binary], 2, 6)
        self.unary_at = at(matching[self.binary:], 1, 6)


def _accumulate(factors, values, slices, dim, placement: _Placement | None = None,
                memo: _SolveMemo | None = None):
    """Dense normal equations (H, g) and total cost of the factors at values.

    Each kind takes one pass, and its blocks are scattered into H and g at
    the positions of ``placement`` right after it: every factor that
    linearizes alone, then the IMU factors in one stacked pass, then the
    matching factors in one stacked linearization.  The costs are summed
    from zero in the same order, as ``FactorGraph.total_cost`` sums them.
    ``memo`` and ``placement``, built here from the factors when not given,
    must be of these factors."""
    memo = memo or _SolveMemo(factors)
    p = placement or _Placement(memo, slices, dim)
    h, g, cost = np.zeros(p.dim * p.dim), np.zeros(p.dim), 0.0
    for f, (h_at, g_at) in zip(memo.alone, p.alone_at):
        lin = f.linearize(values)
        np.add.at(h, h_at, lin.h.ravel())
        np.add.at(g, g_at, lin.g)
        cost += lin.cost
    if memo.imu:
        stage = memo.imu_stage(values)
        grad, hess = _imu_blocks(stage)
        np.add.at(h, p.imu_at[0], hess.ravel())
        np.add.at(g, p.imu_at[1], grad.ravel())
        for c in stage.costs:
            cost += c
    grad, hess, costs = _matching_blocks(memo.matching, values)
    b = p.binary
    np.add.at(h, p.binary_at[0], hess[:b].ravel())
    np.add.at(g, p.binary_at[1], grad[:b].ravel())
    np.add.at(h, p.unary_at[0], hess[b:, :6, :6].ravel())
    np.add.at(g, p.unary_at[1], grad[b:, :6].ravel())
    for c in costs:
        cost += c
    return h.reshape(p.dim, p.dim), g, cost


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a for ``_cho_solve``: the LAPACK
    ``dpotrf`` call that ``scipy.linalg.cho_factor(a, lower=True)`` makes,
    so the same bits, without its wrappers.  As it does, raises ValueError
    for a matrix that is not finite, which dpotrf would factor without a
    word, and LinAlgError for one that is not numerically positive
    definite."""
    if not np.isfinite(a).all():
        raise ValueError("matrix must not contain infs or NaNs")
    c, info = dpotrf(a, lower=1, clean=0)
    if info:
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(
            f"dpotrf failed with info {info}")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the factor c of A from ``_cho_factor``: the LAPACK
    ``dpotrs`` call of ``scipy.linalg.cho_solve``, with its ValueError for
    a right-hand side that is not finite."""
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    x, info = dpotrs(c, b, lower=1)
    if info:
        raise ValueError(f"dpotrs failed with info {info}")
    return x


def _cholesky(h):
    """Lower Cholesky factor of h for ``_cho_solve``.  A matrix that is not
    numerically positive definite is factored with a jitter added to its
    diagonal: 1e-9 of its largest diagonal entry, and at least 1e-9."""
    try:
        return _cho_factor(h)
    except np.linalg.LinAlgError:
        jitter = 1e-9 * max(1.0, float(np.max(np.abs(np.diag(h)))))
        return _cho_factor(h + jitter * np.eye(len(h)))


def _damped_step(h, g, damping):
    """Solution of (H + diag(damping)) delta = -g; None if it fails."""
    try:
        delta = _cho_solve(_cho_factor(h + np.diag(damping)), -g)
    except (np.linalg.LinAlgError, ValueError):
        return None
    return delta if np.all(np.isfinite(delta)) else None


def _check_anchored(variables, links) -> None:
    """Raise UnderConstrainedGraph unless every variable is touched by a
    link and sits in a component, joined by the links, that owns a
    grounding link.  ``links`` holds (keys, grounding) per factor."""
    parent = {k: k for k in variables}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    touched = set()
    for keys, _ in links:
        touched.update(keys)
        for a, b in zip(keys, keys[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    loose = [k for k in variables if k not in touched]
    if loose:
        raise UnderConstrainedGraph(f"variables without factors: {loose}")
    grounded = {find(keys[0]) for keys, grounding in links if grounding}
    for k in variables:
        if find(k) not in grounded:
            raise UnderConstrainedGraph(
                f"component containing variable {k} has no anchoring factor")


class FactorGraph:
    """Variables plus factors; a multigraph (parallel factors allowed)."""

    def __init__(self):
        self.values: dict[int, SensorState] = {}
        self.factors: list[Factor] = []
        # (H, slices) of the last assembly of optimize_lm
        self._normal: tuple[np.ndarray, dict] | None = None
        self._memo: _SolveMemo | None = None  # while optimize_lm runs

    def add_variable(self, key: int, initial_value) -> None:
        if key in self.values:
            raise DuplicateVariable(f"variable {key} already in graph")
        self.values[key] = initial_value

    def add_factor(self, factor: Factor) -> None:
        for k in factor.keys:
            if k not in self.values:
                raise UnknownVariable(f"factor references missing variable {k}")
        self.factors.append(factor)

    def total_cost(self, values) -> float:
        """Sum of the factor costs at the values, from zero in the order of
        ``_accumulate``: every factor that is costed alone, then the IMU
        factors from one stacked evaluation, then the matching factors from
        another.  Within a solve, the solve's memo keeps the IMU residual
        stage and the matching factors' relative poses for the next
        linearization."""
        memo = self._memo or _SolveMemo(self.factors)
        cost = 0.0
        for f in memo.alone:
            cost += f.cost(values)
        for c in (memo.imu_stage(values).costs if memo.imu else ()):
            cost += c
        for c in _matching_costs(memo.matching, values):
            cost += c
        return cost

    # -- structural checks -------------------------------------------------

    def check_structure(self) -> None:
        """Every variable must sit in a component that owns an anchoring
        (prior-like) factor; lone variables are rejected outright."""
        _check_anchored(self.values, [(f.keys, f.grounding) for f in self.factors])

    # -- assembly ----------------------------------------------------------

    def _retract_all(self, values, slices, delta):
        out = {}
        for k, v in values.items():
            out[k] = state_retract(v, delta[slices[k]])
        return out

    # -- optimization --------------------------------------------------------

    def optimize_lm(self, settings: LmSettings | None = None) -> OptimizeResult:
        """Levenberg-Marquardt with Nielsen's gain-ratio damping.

        Each iteration linearizes every factor at the current estimate and
        solves the normal equations damped by lambda * diag(H).  A candidate
        step is accepted when it lowers the cost, which matching factors
        evaluate on the correspondences of that linearization.  The gain
        ratio rho, the actual cost decrease over the one the quadratic model
        predicts, steers lambda (Madsen, Nielsen & Tingleff 2004): an
        accepted step scales it by max(1/3, 1 - (2 rho - 1)^3) and resets
        nu to 2; a rejected step scales it by nu and doubles nu.

        The solve converges when a step changes the cost by at most
        REL_COST_TOL times the cost, whether or not it is accepted; a zero
        step, at an optimum, is costed and rejected that way.  It also
        converges when two linearizations in a row find no cost lower, by
        more than that tolerance, than the lowest an earlier one found: the
        correspondences looked up at each linearization then move the cost
        more than the steps do, and the iterates wander or cycle between
        correspondence sets.  Ending at max_iterations is not converging.
        NotConverged is raised when lambda, which starts at LAMBDA_INIT,
        passes LAMBDA_MAX, and the graph's values are then those it had
        before the solve.

        The undamped system H of the last assembly, with its key slices, is
        held for marginal_covariance until the next solve, also when
        NotConverged ends this one.  It is linearized at the estimate of
        that iteration, which an accepted step may have moved since.  The
        odometry reads no covariance; only a caller of marginal_covariance,
        such as a local mapping stage, pays for factorizing H.

        The stacked passes of the solve share one memo (``_SolveMemo``),
        which the graph holds until the solve returns or raises.
        """
        settings = settings or LmSettings()
        self.check_structure()
        self._memo = _SolveMemo(self.factors)
        try:
            return self._solve(settings)
        finally:
            self._memo = None

    def _solve(self, settings: LmSettings) -> OptimizeResult:
        slices, dim = _layout(self.values)
        placement = _Placement(self._memo, slices, dim)
        values = dict(self.values)
        initial_cost = cost = self.total_cost(values)
        lam, nu = LAMBDA_INIT, 2.0
        iterations = evaluations = rejected = 0
        converged = False

        def negligible(change, ref):
            return abs(change) <= REL_COST_TOL * max(ref, 1e-30)

        best = None  # lowest cost at a linearization so far
        stalled = 0  # linearizations since best was last lowered
        while not converged and iterations < settings.max_iterations:
            h, g, cost = _accumulate(self.factors, values, slices, dim, placement,
                                     self._memo)
            self._normal = (h, slices)
            iterations += 1
            if best is None or (cost < best and not negligible(best - cost, best)):
                best, stalled = cost, 0
            else:
                stalled += 1
                if stalled == 2:
                    converged = True
                    break
            diag = np.diag(h).copy()
            while True:
                delta = _damped_step(h, g, lam * diag)
                if delta is not None:
                    candidate = self._retract_all(values, slices, delta)
                    new_cost = self.total_cost(candidate)
                    evaluations += 1
                    small = negligible(cost - new_cost, cost)
                    if np.isfinite(new_cost) and new_cost < cost:
                        predicted = 0.5 * delta @ (lam * diag * delta - g)
                        rho = (cost - new_cost) / predicted if predicted > 0 else 1.0
                        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                                  1e-12)
                        nu = 2.0
                        values, cost = candidate, new_cost
                        converged = small
                        break
                    rejected += 1
                    if small:
                        converged = True
                        break
                lam, nu = lam * nu, 2.0 * nu
                if lam > LAMBDA_MAX:
                    raise NotConverged("no cost-reducing step found" if delta is not None
                                       else "damping exhausted on singular system")
        self.values = values
        return OptimizeResult(cost, iterations, converged, initial_cost, evaluations,
                              rejected)

    # -- marginalization -----------------------------------------------------

    def marginalize(self, keys_to_remove) -> MarginalPriorFactor:
        """Schur-complement removed variables into a dense Gaussian prior.

        All factors touching a removed key are linearized at the current
        estimate, consumed, and replaced by one MarginalPriorFactor over the
        retained keys they touched.
        """
        removed = list(keys_to_remove)
        for k in removed:
            if k not in self.values:
                raise UnknownVariable(f"variable {k} not in graph")
        removed_set = set(removed)
        involved, remaining = [], []
        for f in self.factors:
            (involved if any(k in removed_set for k in f.keys) else remaining).append(f)
        retained = []
        for f in involved:
            for k in f.keys:
                if k not in removed_set and k not in retained:
                    retained.append(k)

        # check the remaining graph, with the prior as one grounding link
        # over the retained keys, before mutating
        links = [(f.keys, f.grounding) for f in remaining]
        if retained:
            links.append((retained, True))
        try:
            _check_anchored([k for k in self.values if k not in removed_set], links)
        except UnderConstrainedGraph as exc:
            raise DisconnectedGraph(str(exc)) from exc

        # local ordering: removed first, then retained
        slices, dim = _layout(removed + retained)
        h, g, cost = _accumulate(involved, self.values, slices, dim)

        r_dim = STATE_DIM * len(removed)
        h_rr = h[:r_dim, :r_dim]
        h_rk = h[:r_dim, r_dim:]
        g_r = g[:r_dim]
        chol = _cholesky(h_rr)
        x_rk = _cho_solve(chol, h_rk)
        x_r = _cho_solve(chol, g_r)
        h_marg = h[r_dim:, r_dim:] - h_rk.T @ x_rk
        g_marg = g[r_dim:] - h_rk.T @ x_r

        self.factors = remaining
        for k in removed:
            del self.values[k]
        # the quadratic model c + g.d + d.H.d/2 at its minimum over the
        # removed variables, with the retained ones held
        prior = MarginalPriorFactor(retained,
                                    {k: self.values[k] for k in retained},
                                    h_marg, g_marg, cost - 0.5 * float(g_r @ x_r))
        if retained:
            self.add_factor(prior)
        return prior

    def marginal_covariance(self, key: int) -> np.ndarray:
        """Covariance block of one variable: the key's block of the inverse
        of the system H that the last optimize_lm assembled.

        The inverse of H restricted to any set of its keys is their marginal
        under the Gaussian that the solve linearized, so the answer does not
        change when other keys of that system are marginalized afterwards.
        Raises UnknownVariable for a key that was not in the held system.
        """
        if self._normal is None or key not in self._normal[1]:
            raise UnknownVariable(f"variable {key} was not in the last solve's system")
        h, slices = self._normal
        sl = slices[key]
        rhs = np.zeros((len(h), STATE_DIM))
        rhs[sl] = np.eye(STATE_DIM)
        return _cho_solve(_cholesky(h), rhs)[sl]
