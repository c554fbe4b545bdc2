"""Factor graph container, on-manifold Levenberg-Marquardt, and fixed-lag
marginalization.

On linearization every factor gives one dense block: the gradient and
Gauss-Newton Hessian of its cost over its own tangent space, the leading
components of each key stacked in key order (all 15 of a state, or the 6 of
its pose for a matching factor).  The optimizer assembles damped normal
equations at the current estimate each iteration and holds the last
undamped system, which ``marginal_covariance`` reads.
A matching link looks its correspondences up again only when it is
linearized, and then only once a source point can have moved
``RELOOK_FRACTION`` of a voxel since its last look-up.  Only when a voxel
row changed does it form their weights and fold them, in one step
(``match_terms``), into a quadratic in the relative pose, from which it
takes its block (``linearize_from_terms``) and costs the candidate steps of
an iteration in O(1).  So the cost the optimizer compares is smooth within
an iteration, and it is the cost of the Gauss-Newton model's own weights.
A prior (``MarginalPriorFactor``) is a fixed quadratic in the offset from
its linearization point.

A graph keeps each factor's state in one of three stores, by its kind:
its priors, each linearized alone; its ``ImuBlock``, a row per IMU factor,
costed and linearized in one stacked pass (``imu_residuals``,
``imu_jacobians``); and its ``MatchingBlock``, a row per link, binary then
unary, whose pass looks up the due links (``GaussianVoxelMap.look_up``)
and takes the blocks or costs of all held quadratics in one stacked call.
An assembly (``_accumulate``) takes the three in that order and adds all
their blocks into H in one scatter and into g in one more, at positions
built once per solve (``_Placement``).  So each entry sums its terms from
zero store after store, in row order within one, whatever order the
factors came in; the costs are summed so too.  Each slice of a stacked
product is the 2-D product of that slice, so every block and cost is the
same bits as with the factor taken alone.

No factor repeats an evaluation whose inputs did not change.  A block
lives with its rows, each from its commit until ``marginalize`` consumes
it, and keeps what its last pass formed with the state objects it read:
the IMU block its residuals, so the linearization at an accepted
candidate, whose cost formed them, forms only the Jacobians; the matching
block its relative poses, besides each link's last look-up and held
quadratic, exact at any pose for that look-up's rows and weights.  A
marginal prior keeps its last offset.

Every variable is the SensorState of one frame, keyed by the frame's index,
with a 15-dof tangent (rot, trans, vel, accel bias, gyro bias).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import repeat
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
    ``pre.walk`` on the bias rows.  Its row of the graph's ``ImuBlock``
    costs and linearizes it with the others.
    """

    kind = "imu-preintegration"

    def __init__(self, key_i: int, key_j: int, pre: PreintegratedImu):
        self.keys = (key_i, key_j)
        self.pre = pre
        info9 = np.linalg.inv(pre.cov)
        self.information = np.zeros((15, 15))
        self.information[:9, :9] = 0.5 * (info9 + info9.T)
        self.information[9:, 9:] = np.diag(1.0 / pre.walk)


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class ImuBlock:
    """The IMU factors of a graph, one row per factor in the order they
    came: its handle (``factors``), its preintegration among the K stacked
    ones (``pre``) and its information among the (K, 15, 15)
    ``information``, stacked when the rows change; the only store of them,
    held by the graph until ``marginalize`` consumes the factor.  A cost
    forms the residuals of all rows in one stacked pass, and a
    linearization their Jacobians in another.  The residuals and costs of
    the last pass are kept with the state objects they were formed at,
    compared with ``is`` as in ``MatchingBlock._relative_poses``, so the
    linearization at an accepted candidate, whose cost formed them, forms
    only the Jacobians."""

    def __init__(self):
        self._rows([])

    def add(self, factor: ImuFactor) -> None:
        """Append the factor's row."""
        self._rows([*self.factors, factor])

    def keep(self, rows) -> None:
        """Keep only the rows at the indices, in their order."""
        self._rows([self.factors[n] for n in rows])

    def _rows(self, factors) -> None:
        self.factors, self.states, self.stage = factors, None, None
        self.pre = stack([f.pre for f in factors]) if factors else None
        self.information = np.array([f.information for f in factors]).reshape(-1, 15, 15)

    def _stage(self, values) -> tuple[ImuResiduals, list]:
        """The residuals and costs r.W r of the rows at the values; those
        of the last call when it read the same state objects."""
        states = tuple(values[k] for f in self.factors for k in f.keys)
        if self.states is None or not _same(self.states, states):
            res = imu_residuals(states[0::2], states[1::2], self.pre)
            r = res.residual
            costs = np.matmul(np.matmul(r[:, None, :], self.information), r[:, :, None])
            self.states, self.stage = states, (res, costs[:, 0, 0].tolist())
        return self.stage

    def costs(self, values) -> list[float]:
        """The cost of every row at the values, as Python floats."""
        return self._stage(values)[1] if self.factors else []

    def linearize(self, values):
        """Gradients 2 J^T W r (K, 30) and Gauss-Newton Hessians 2 J^T W J
        (K, 30, 30), over state i then j, and costs of the rows at values."""
        if not self.factors:
            return np.zeros((0, 30)), np.zeros((0, 30, 30)), []
        res, costs = self._stage(values)
        jac = imu_jacobians(res, self.pre)
        w = np.matmul(2.0 * jac.transpose(0, 2, 1), self.information)
        return np.matmul(w, res.residual[:, :, None])[:, :, 0], np.matmul(w, jac), costs


class MatchingCostFactor(Factor):
    """Voxelized registration constraint between a source frame and a
    target voxel map: the handle of one link, which never changes once made.
    Its target is the target frame's state key, which makes the factor
    binary, or that frame's fixed pose, which makes it unary and grounding
    (it anchors the source's component).  The link's matching state is its
    row of a ``MatchingBlock``, with which it enters a graph (``add_links``).
    With an empty source or map it contributes nothing and looks nothing up."""

    def __init__(self, key_source: int, source: Frame, target_map: GaussianVoxelMap,
                 target: int | Se3Pose, *, min_inliers: int):
        self.grounding = isinstance(target, Se3Pose)
        self.keys = (key_source,) if self.grounding else (key_source, target)
        self.fixed_target_pose = target if self.grounding else None
        self.kind = "matching-cost-unary" if self.grounding else "matching-cost-binary"
        self.source, self.target_map, self.min_inliers = source, target_map, min_inliers


class MatchingBlock:
    """The matching state of a list of links, one row per link, binary rows
    first and each kind in the order its rows came; the only store of that
    state, which a graph holds for as long as its links live.

    A row holds the link's handle (``factors``), the place of its source and
    target poses among the states the rows read (or its fixed target pose),
    its source's reach and its relook bound, whether it is live, the
    relative pose of its last look-up (NaN before the first) with the
    packed voxel key and voxel row per source point that it found
    (``found``), and its inlier count.  The terms of all rows are one
    stacked ``FrozenTerms``: a row that holds terms (``held``) has the cost
    on its rows with the weights frozen where they were last found, and any
    other row zeros, whose cost and block are zero.  A look-up that forms
    new terms writes them over its row in place.

    A cost (``costs``) looks up only the live rows without a look-up.  A
    linearization (``linearize``) looks up every live row whose source
    points can have moved ``RELOOK_FRACTION`` of a voxel since its last
    look-up: a point p moves by (R - R0) p + (t - t0), whose norm is at most
    ||R - R0|| reach + ||t - t0||, and for rotations ||R - R0||, the
    spectral norm, is sqrt(3 - tr(R0^T R)); one stacked test forms that
    bound for every row, and a NaN move is due.  A look-up searches the map
    only for the points whose packed voxel key changed, and forms new terms
    only when a row changed, so a point that left its voxel by less than
    that fraction may keep its row, and a linearization that finds the same
    rows keeps the weights of the one that found them.  The relative poses
    of the last pass are kept with the state objects they were formed at.
    """

    def __init__(self, factors=()):
        self.factors = fs = sorted(factors, key=lambda f: f.grounding)
        k = len(fs)
        self.live = np.array([len(f.source) > 0 and len(f.target_map) > 0
                              and f.source.cov_rows is not None for f in fs], dtype=bool)
        self.reach = np.array([f.source.reach for f in fs])
        self.bound = np.array([RELOOK_FRACTION * f.target_map.resolution for f in fs])
        # the fixed target pose of each unary row, and the identity for a binary one
        self.fixed_rot = np.array([f.fixed_target_pose.rotation.matrix() if f.grounding
                                   else np.eye(3) for f in fs]).reshape(-1, 3, 3)
        self.fixed_trans = np.array([f.fixed_target_pose.translation if f.grounding
                                     else np.zeros(3) for f in fs]).reshape(-1, 3)
        self.rot0, self.trans0 = np.full((k, 3, 3), np.nan), np.full((k, 3), np.nan)
        self.found = np.full(k, None)  # (keys, rows) of each row's last look-up
        self.inliers, self.held = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=bool)
        self.terms = FrozenTerms(np.zeros((k, 3, 4)), np.zeros((k, 4, 4)), np.zeros(k),
                                 np.zeros((k, 12)), np.zeros((k, 12, 12)),
                                 np.zeros(k, dtype=np.intp))
        self._index()

    def _index(self) -> None:
        """The states the rows read (``keys``), the place among them of each
        row's source and of each binary row's target, and no relative poses
        yet."""
        fs = self.factors
        self.binary = sum(not f.grounding for f in fs)
        self.keys = list(dict.fromkeys(k for f in fs for k in f.keys))
        at = {k: n for n, k in enumerate(self.keys)}
        self.source = np.array([at[f.keys[0]] for f in fs], dtype=np.intp)
        self.target = np.array([at[f.keys[1]] for f in fs[:self.binary]], dtype=np.intp)
        self.states = self.poses = None  # of the last relative poses

    def keep(self, rows) -> None:
        """Keep only the rows at the indices, in their order."""
        self.factors = [self.factors[n] for n in rows]
        for name in _ROW_ARRAYS:
            setattr(self, name, getattr(self, name)[rows])
        self.terms = FrozenTerms(*(field[rows] for field in self.terms))
        self._index()

    def extend(self, other: MatchingBlock) -> None:
        """Append the rows of another block with their state, binary first."""
        a, b = self.binary, other.binary

        def merged(own, new):
            return np.concatenate([own[:a], new[:b], own[a:], new[b:]])

        self.factors = [*self.factors[:a], *other.factors[:b],
                        *self.factors[a:], *other.factors[b:]]
        for name in _ROW_ARRAYS:
            setattr(self, name, merged(getattr(self, name), getattr(other, name)))
        self.terms = FrozenTerms(*map(merged, self.terms, other.terms))
        self._index()

    def _relative_poses(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Rotations (K, 3, 3) and translations (K, 3) of the relative poses
        T_j^-1 T_i, from the source pose T_i and the target pose T_j (held
        or fixed); those of the last call when it read the same state
        objects, compared with ``is`` as an ``ImuBlock`` compares them.  They
        are the products that ``pose_compose(pose_inverse(T_j), T_i)``
        forms, R_j^T R_i and t_i R_j - t_j R_j with row vectors; a stacked
        ``np.matmul`` forms each slice with the BLAS call of the 2-D
        product, so the two agree bit for bit."""
        states = tuple(values[k] for k in self.keys)
        if self.states is None or not _same(self.states, states):
            rot = np.array([s.pose.rotation.matrix() for s in states]).reshape(-1, 3, 3)
            trans = np.array([s.pose.translation for s in states]).reshape(-1, 3)
            rot_j = np.concatenate([rot[self.target], self.fixed_rot[self.binary:]])
            trans_j = np.concatenate([trans[self.target], self.fixed_trans[self.binary:]])
            rel_rot = np.matmul(rot_j.transpose(0, 2, 1), rot[self.source])
            rel_trans = np.matmul(trans[self.source][:, None], rot_j)
            rel_trans -= np.matmul(trans_j[:, None], rot_j)
            self.states, self.poses = states, (rel_rot, rel_trans[:, 0])
        return self.poses

    def _look_ups(self, values, relook: bool):
        """The relative poses of the rows at the values, after the look-ups
        there of the due live rows, in row order: with ``relook``, each
        whose move bound is not within its relook bound; without, each that
        has no look-up yet."""
        rot, trans = self._relative_poses(values)
        if relook:
            spin = np.sqrt(np.maximum(3.0 - np.einsum("kij,kij->k", self.rot0, rot), 0.0))
            shift = trans - self.trans0
            move = spin * self.reach + np.sqrt(np.einsum("ki,ki->k", shift, shift))
            due = ~(move <= self.bound)
        else:
            due = np.isnan(self.trans0[:, 0])
        for n in np.flatnonzero(due & self.live):
            f, known = self.factors[n], self.found[n]
            keys, found = f.target_map.look_up(f.source.point_rows, rot[n], trans[n], known)
            self.rot0[n], self.trans0[n], self.found[n] = rot[n], trans[n], (keys, found)
            if known is not None and (found is known[1] or np.array_equal(found, known[1])):
                continue
            self.inliers[n] = np.count_nonzero(found >= 0)
            self.held[n] = self.inliers[n] >= f.min_inliers
            terms = (match_terms(f.source, f.target_map, rot[n], trans[n], found)
                     if self.held[n] else repeat(0))
            for field, value in zip(self.terms, terms):
                field[n] = value
        return rot, trans

    def costs(self, values) -> list[float]:
        """The cost of every row at the values, from one stacked
        ``frozen_cost``; only the rows without a look-up look up."""
        rot, trans = self._look_ups(values, relook=False)
        return frozen_cost(self.terms, rot, trans).tolist()

    def linearize(self, values):
        """The gradients (K, 12), Gauss-Newton Hessians (K, 12, 12) and
        costs, as Python floats, of the rows at the values, from one stacked
        ``linearize_from_terms`` after the due look-ups; a unary row takes
        the source pose's leading 6 and 6x6."""
        rot, trans = self._look_ups(values, relook=True)
        if not self.held.any():
            k = len(self.factors)
            return np.zeros((k, 12)), np.zeros((k, 12, 12)), [0.0] * k
        grad, hess, costs = linearize_from_terms(self.terms, rot, trans)
        return grad, hess, costs.tolist()


# the arrays of a block's row state besides its terms
_ROW_ARRAYS = ("live", "reach", "bound", "fixed_rot", "fixed_trans", "rot0", "trans0",
               "found", "inliers", "held")


def linked(candidates, values) -> MatchingBlock:
    """The candidate links that hold terms after their first look-up at
    the values, as a block in row order: those that found at least
    ``min_inliers`` hits.  Their rows keep these look-ups and terms for the
    next cost and linearization, in a graph through ``FactorGraph.add_links``."""
    block = MatchingBlock(candidates)
    block._look_ups(values, relook=False)
    if not block.held.all():
        block.keep(np.flatnonzero(block.held))
    return block


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
        self._last: tuple[tuple, np.ndarray] | None = None  # (states, delta)

    def _delta(self, values) -> np.ndarray:
        states = tuple(values[k] for k in self.keys)
        if self._last is not None and _same(self._last[0], states):
            return self._last[1]
        delta = np.array([state_local(state, self.lin_values[k])
                          for k, state in zip(self.keys, states)]).reshape(-1)
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
    slices = {k: slice(STATE_DIM * n, STATE_DIM * (n + 1)) for n, k in enumerate(keys)}
    return slices, STATE_DIM * len(slices)


class _Placement:
    """Where the blocks of a graph's three stores land in the normal
    equations of one layout, built once for both: the flat positions in the
    row-major H (``h_at``) and in g (``g_at``) of each prior's block, then
    of the IMU rows' and of the binary and the unary matching rows' (the
    pose of each key, so a unary row only its source's), row by row."""

    def __init__(self, priors, imu: ImuBlock, matching: MatchingBlock, slices, dim):
        self.dim = dim
        b = matching.binary

        def at(fs, keys, width):
            # (H, g) positions of the leading `width` components of each key
            starts = np.array([[slices[k].start for k in f.keys] for f in fs],
                              dtype=np.intp).reshape(len(fs), keys, 1)
            rows = (starts + np.arange(width)).reshape(len(fs), keys * width)
            # 1-D, as np.add.at leaves its fast path for an index of more
            # dimensions
            return (rows[:, :, None] * dim + rows[:, None, :]).ravel(), rows.ravel()

        places = [*(at([f], len(f.keys), STATE_DIM) for f in priors),
                  at(imu.factors, 2, STATE_DIM), at(matching.factors[:b], 2, 6),
                  at(matching.factors[b:], 1, 6)]
        self.h_at, self.g_at = (np.concatenate(p) for p in zip(*places))


def _accumulate(priors, imu: ImuBlock, matching: MatchingBlock, values, p: _Placement):
    """Dense normal equations (H, g) and total cost of the three stores at
    values, for their placement ``p``: each prior linearized alone, then the
    IMU rows and the matching rows in a stacked pass each, all blocks added
    into H in one scatter and into g in one more, and the costs summed from
    zero in the same order, as ``FactorGraph.total_cost`` sums them."""
    lins = [f.linearize(values) for f in priors]
    imu_g, imu_h, imu_costs = imu.linearize(values)
    grad, hess, costs = matching.linearize(values)
    b = matching.binary
    h, g, cost = np.zeros(p.dim * p.dim), np.zeros(p.dim), 0.0
    np.add.at(h, p.h_at, np.concatenate([*(lin.h.ravel() for lin in lins), imu_h.ravel(),
                                         hess[:b].ravel(), hess[b:, :6, :6].ravel()]))
    np.add.at(g, p.g_at, np.concatenate([*(lin.g for lin in lins), imu_g.ravel(),
                                         grad[:b].ravel(), grad[b:, :6].ravel()]))
    for c in [*(lin.cost for lin in lins), *imu_costs, *costs]:
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
        # the handles in the order they came, which orders a marginal
        # prior's keys; each factor's state is in one of the three stores
        self.factors: list[Factor] = []
        self.priors: list[Factor] = []  # the factors that linearize alone
        self.imu = ImuBlock()  # the rows of the IMU factors
        self.matching = MatchingBlock()  # the rows of the matching factors
        # (H, slices) of the last assembly of optimize_lm
        self._normal: tuple[np.ndarray, dict] | None = None

    def add_variable(self, key: int, initial_value) -> None:
        if key in self.values:
            raise DuplicateVariable(f"variable {key} already in graph")
        self.values[key] = initial_value

    def add_factor(self, factor: Factor) -> None:
        """Add a factor to its store: a row of the IMU block, or a place
        among the priors.  A matching link enters through ``add_links``."""
        if isinstance(factor, MatchingCostFactor):
            raise TypeError("a matching link enters through add_links")
        self._add([factor])
        if isinstance(factor, ImuFactor):
            return self.imu.add(factor)
        self.priors.append(factor)

    def add_links(self, block: MatchingBlock) -> None:
        """Add the links of a block, the only way in for matching links; their
        rows, with any look-ups and terms, join the graph's block."""
        self._add(block.factors)
        self.matching.extend(block)

    def _add(self, factors) -> None:
        for k in (k for f in factors for k in f.keys):
            if k not in self.values:
                raise UnknownVariable(f"factor references missing variable {k}")
        self.factors += factors

    def total_cost(self, values) -> float:
        """Sum of the factor costs at the values, from zero in the order of
        ``_accumulate``: each prior costed alone, then the IMU rows and the
        matching rows in a stacked evaluation each."""
        cost = 0.0
        for c in [*(f.cost(values) for f in self.priors), *self.imu.costs(values),
                  *self.matching.costs(values)]:
            cost += c
        return cost

    # -- structural checks -------------------------------------------------

    def check_structure(self) -> None:
        """Every variable must sit in a component that owns an anchoring
        (prior-like) factor; lone variables are rejected outright."""
        _check_anchored(self.values, [(f.keys, f.grounding) for f in self.factors])

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
        """
        settings = settings or LmSettings()
        self.check_structure()
        stores = self.priors, self.imu, self.matching
        slices, dim = _layout(self.values)
        placement = _Placement(*stores, slices, dim)
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
            h, g, cost = _accumulate(*stores, values, placement)
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
                    candidate = {k: state_retract(v, delta[slices[k]])
                                 for k, v in values.items()}
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
        retained keys they touched; their rows leave the graph's blocks.  A
        repeated key counts once, and an empty list changes nothing and
        returns an empty prior, as when no key is retained.
        """
        removed = list(dict.fromkeys(keys_to_remove))
        for k in removed:
            if k not in self.values:
                raise UnknownVariable(f"variable {k} not in graph")
        if not removed:
            return MarginalPriorFactor((), {}, np.zeros((0, 0)), np.zeros(0))
        removed_set = set(removed)

        def touched(factors):
            return np.array([any(k in removed_set for k in f.keys) for f in factors],
                            dtype=bool)

        involved, remaining = [], []
        for f in self.factors:
            (involved if any(k in removed_set for k in f.keys) else remaining).append(f)
        retained = list(dict.fromkeys(k for f in involved for k in f.keys
                                      if k not in removed_set))

        # check the remaining graph, with the prior as one grounding link
        # over the retained keys, before mutating
        links = [(f.keys, f.grounding) for f in remaining]
        links += [(retained, True)] if retained else []
        try:
            _check_anchored([k for k in self.values if k not in removed_set], links)
        except UnderConstrainedGraph as exc:
            raise DisconnectedGraph(str(exc)) from exc

        # local ordering: removed first, then retained; the involved rows
        # of each store
        slices, dim = _layout(removed + retained)
        priors = [f for f in self.priors if any(k in removed_set for k in f.keys)]
        imu_rows, link_rows = touched(self.imu.factors), touched(self.matching.factors)
        imu, links = copy.copy(self.imu), copy.copy(self.matching)
        imu.keep(np.flatnonzero(imu_rows))
        links.keep(np.flatnonzero(link_rows))
        h, g, cost = _accumulate(priors, imu, links, self.values,
                                 _Placement(priors, imu, links, slices, dim))

        r_dim = STATE_DIM * len(removed)
        h_rk = h[:r_dim, r_dim:]
        g_r = g[:r_dim]
        chol = _cholesky(h[:r_dim, :r_dim])
        x_rk = _cho_solve(chol, h_rk)
        x_r = _cho_solve(chol, g_r)
        h_marg = h[r_dim:, r_dim:] - h_rk.T @ x_rk
        g_marg = g[r_dim:] - h_rk.T @ x_r

        self.factors = remaining
        self.priors = [f for f in self.priors if f not in priors]
        self.imu.keep(np.flatnonzero(~imu_rows))
        self.matching.keep(np.flatnonzero(~link_rows))
        for k in removed:
            del self.values[k]
        # the quadratic model c + g.d + d.H.d/2 at its minimum over the
        # removed variables, with the retained ones held
        prior = MarginalPriorFactor(retained, {k: self.values[k] for k in retained}, h_marg,
                                    g_marg, cost - 0.5 * float(g_r @ x_r))
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
