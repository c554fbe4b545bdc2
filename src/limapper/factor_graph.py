"""Factor graph container, on-manifold Levenberg-Marquardt, and fixed-lag
marginalization.

On linearization every factor returns one dense block: the gradient and
Gauss-Newton Hessian of its cost over its own tangent space, the leading
``dims[a]`` components of each key stacked in key order.  ``_accumulate``
alone scatters these blocks into a system's key slices.  The optimizer
assembles damped normal equations at the current estimate each iteration
and holds the last undamped system, which ``marginal_covariance`` reads.
A matching-cost factor looks its correspondences up again only when it is
linearized.  It forms their weights (``match_terms``) only when a voxel
row changed, and holds them as a quadratic in the relative pose
(``freeze_terms``), from which it takes its block
(``linearize_from_terms``) and costs the candidate steps of an iteration
in O(1).  So the cost the optimizer compares is smooth within an
iteration, and it is the cost of the Gauss-Newton model's own weights.
Priors are fixed-form quadratics.

The matching factors of a graph are linearized and costed together: one
stacked pass forms the relative poses of all of them, each factor then has
its target map look its points up at its pose (``GaussianVoxelMap.look_up``,
which moves, packs and searches them), and one stacked call takes the
blocks (or the costs) of all held quadratics.  Each slice of a stacked
product is the 2-D product of that slice, so H, g and the cost are the
same bits as with every factor taken alone; a single factor's
``linearize`` and ``cost`` are that path with one factor.

Every variable is the SensorState of one frame, keyed by the frame's index,
with a 15-dof tangent (rot, trans, vel, accel bias, gyro bias).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DisconnectedGraph,
    DuplicateVariable,
    NotConverged,
    UnderConstrainedGraph,
    UnknownVariable,
)
from .geometry import (
    Rotation,
    Se3Pose,
    SensorState,
    so3_right_jacobian_inv,
    state_local,
    state_retract,
)
from .imu import GRAVITY, PreintegratedImu, imu_factor_residual
from .registration import (
    GaussianVoxelMap,
    freeze_terms,
    frozen_cost,
    linearize_from_terms,
    match_terms,
)
from .preprocess import Frame

STATE_DIM = 15  # tangent dimension of every variable


@dataclass(frozen=True, order=True)
class Key:
    index: int

    def __repr__(self) -> str:
        return f"frame-state:{self.index}"


def frame_key(index: int) -> Key:
    return Key(index)


class FactorLinearization(NamedTuple):
    """Gradient and Gauss-Newton Hessian of one factor's cost over its own
    tangent space (see ``Factor.dims``); both None when the factor adds only
    a cost."""

    g: np.ndarray | None
    h: np.ndarray | None
    cost: float


class Factor:
    keys: tuple
    grounding = False  # anchors its component absolutely

    @property
    def dims(self) -> tuple:
        """Leading tangent components of each key that the block covers."""
        return (STATE_DIM,) * len(self.keys)

    def cost(self, values) -> float:
        raise NotImplementedError

    def linearize(self, values) -> FactorLinearization:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        raise NotImplementedError


class PriorFactor(Factor):
    """Quadratic prior on a variable's tangent offset from a fixed value.

    ``information`` is a per-dimension diagonal; zero entries leave the
    corresponding dimension unconstrained (partial priors on velocity or
    bias only).
    """

    grounding = True
    kind = "prior"

    def __init__(self, key: Key, prior_value: SensorState, information):
        self.keys = (key,)
        self.prior = prior_value
        info = np.asarray(information, dtype=float)
        if info.ndim == 1:
            info = np.diag(info)
        self.information = info

    def _residual(self, values):
        return state_local(values[self.keys[0]], self.prior)

    def cost(self, values) -> float:
        r = self._residual(values)
        return float(r @ self.information @ r)

    def linearize(self, values) -> FactorLinearization:
        r = self._residual(values)
        jac = np.eye(STATE_DIM)
        cur_r = values[self.keys[0]].pose
        jac[0:3, 0:3] = so3_right_jacobian_inv(r[:3])
        jac[3:6, 3:6] = self.prior.pose.rotation.matrix().T @ cur_r.rotation.matrix()
        jtw = 2.0 * jac.T @ self.information
        return FactorLinearization(jtw @ r, jtw @ jac,
                                   float(r @ self.information @ r))


class ImuFactor(Factor):
    """Preintegrated relative-motion constraint plus bias random walk."""

    kind = "imu-preintegration"

    def __init__(self, key_i: Key, key_j: Key, pre: PreintegratedImu,
                 gravity=GRAVITY, walk_information=None):
        self.keys = (key_i, key_j)
        self.pre = pre
        self.gravity = np.asarray(gravity, dtype=float)
        info9 = np.linalg.inv(pre.cov)
        info9 = 0.5 * (info9 + info9.T)
        walk = (np.full(6, 1e4) if walk_information is None
                else np.asarray(walk_information, dtype=float))
        self.information = np.zeros((15, 15))
        self.information[:9, :9] = info9
        self.information[9:, 9:] = np.diag(walk)

    def _states(self, values):
        return values[self.keys[0]], values[self.keys[1]]

    def cost(self, values) -> float:
        si, sj = self._states(values)
        r, _, _ = imu_factor_residual(si, sj, self.pre, self.gravity,
                                      with_jacobians=False)
        return float(r @ self.information @ r)

    def linearize(self, values) -> FactorLinearization:
        si, sj = self._states(values)
        r, j_i, j_j = imu_factor_residual(si, sj, self.pre, self.gravity)
        jac = np.hstack([j_i, j_j])
        w = 2.0 * jac.T @ self.information
        return FactorLinearization(w @ r, w @ jac,
                                   float(r @ self.information @ r))


class MatchingCostFactor(Factor):
    """Voxelized registration constraint between a source frame and a
    target voxel map; unary when the target pose is fixed.

    The source/target poses are the pose components of the connected
    states.  The factor holds one record: the keys and voxel rows of its
    last lookup, and the cost on those rows with the weights frozen where
    the rows were last found, as a quadratic in the change of the relative
    pose (``FrozenTerms``).  ``cost`` evaluates the
    held quadratic in O(1); it looks up only if there was no lookup yet.
    ``linearize`` looks the voxel of every source point up at the given
    estimate, searching the map only for the points whose packed voxel key
    changed, and forms new terms at that estimate only when a row changed;
    it then takes its block from the held quadratic.  So a point crossing a
    voxel boundary does not make the cost jump between two linearizations,
    and a linearization that finds the same rows keeps the weights of the
    one that found them.  With an empty source or map, or fewer than
    ``min_inliers`` correspondences, the factor contributes nothing and
    forms no terms.
    """

    def __init__(self, key_source: Key, source: Frame, target_map: GaussianVoxelMap,
                 key_target: Key | None = None,
                 fixed_target_pose: Se3Pose | None = None,
                 min_inliers: int = 10):
        if (key_target is None) == (fixed_target_pose is None):
            raise ValueError("exactly one of key_target / fixed_target_pose")
        self.keys = (key_source,) if key_target is None else (key_source, key_target)
        self.source = source
        self.target_map = target_map
        self.fixed_target_pose = fixed_target_pose
        self.min_inliers = min_inliers
        self._empty = (len(source) == 0 or len(target_map) == 0
                       or source.covs is None)
        # (keys, rows): packed voxel key and voxel row per source point from
        # the last lookup
        self._lookup = None
        self._inliers = 0
        # FrozenTerms on the rows of self._lookup; None below min_inliers
        self._held = None

    @property
    def unary(self) -> bool:
        return self.fixed_target_pose is not None

    @property
    def grounding(self) -> bool:
        return self.unary

    @property
    def kind(self) -> str:
        return "matching-cost-unary" if self.unary else "matching-cost-binary"

    @property
    def dims(self) -> tuple:
        return (6,) * len(self.keys)  # the pose part of each key

    @property
    def inliers(self) -> int:
        """Source points that found a voxel at the last lookup."""
        return self._inliers

    def _look_up(self, rot: np.ndarray, trans: np.ndarray) -> None:
        """Find every source point's voxel row at the relative pose
        (rot, trans); re-form the held terms there when a row changed."""
        keys, rows = self.target_map.look_up(self.source.point_rows, rot, trans,
                                             self._lookup)
        same = self._lookup is not None and (
            rows is self._lookup[1] or np.array_equal(rows, self._lookup[1]))
        self._lookup = (keys, rows)
        if same:
            return
        self._inliers = int(np.count_nonzero(rows >= 0))
        self._held = None
        if self._inliers >= self.min_inliers:
            t_ij = Se3Pose(Rotation.from_matrix(rot), trans)
            self._held = freeze_terms(
                match_terms(self.source, self.target_map, t_ij, rows), t_ij)

    # one factor is the stacked path of all matching factors with K=1

    def cost(self, values) -> float:
        return _matching_costs([self], values)[0]

    def linearize(self, values) -> FactorLinearization:
        return _matching_linearizations([self], values)[0]


def _relative_poses(factors, values) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (K, 3, 3) and translations (K, 3) of the relative poses
    T_j^-1 T_i of K matching factors, from the source pose T_i and the
    target pose T_j (held or fixed).  They are the products that
    ``pose_compose(pose_inverse(T_j), T_i)`` forms, R_j^T R_i and
    t_i R_j - t_j R_j with row vectors; a stacked ``np.matmul`` forms each
    slice with the BLAS call of the 2-D product, so the two agree bit for
    bit."""
    src = [values[f.keys[0]].pose for f in factors]
    tgt = [f.fixed_target_pose if f.unary else values[f.keys[1]].pose
           for f in factors]
    rot_j = np.array([p.rotation.matrix() for p in tgt])
    rot = np.matmul(rot_j.transpose(0, 2, 1),
                    np.array([p.rotation.matrix() for p in src]))
    trans = np.matmul(np.array([p.translation for p in src])[:, None], rot_j)
    trans -= np.matmul(np.array([p.translation for p in tgt])[:, None], rot_j)
    return rot, trans[:, 0]


def matching_hits(factors, values) -> list[int]:
    """The source points of each matching factor that land in an occupied
    voxel of its target map at the values; the terms of these look-ups
    serve each factor's next ``cost`` and ``linearize``."""
    _held_terms(factors, values, relook=True)
    return [f.inliers for f in factors]


def _held_terms(factors, values, relook: bool):
    """(position in the stack or None, per factor; the stacked terms'
    FrozenTerms, rotations and translations) of the matching factors that
    hold terms after their look-ups.  The relative poses come from one
    stacked pass; each factor with a source and a map is looked up there,
    in factor order, if ``relook`` or if it has no look-up yet."""
    poses = zip(*_relative_poses(factors, values)) if factors else ()
    at, held, rots, trans = [], [], [], []
    for f, (rot, t) in zip(factors, poses):
        if not f._empty and (relook or f._lookup is None):
            f._look_up(rot, t)
        if f._held is None:
            at.append(None)
            continue
        at.append(len(held))
        held.append(f._held)
        rots.append(rot)
        trans.append(t)
    return at, held, np.array(rots), np.array(trans)


def _matching_costs(factors, values) -> list[float]:
    """``cost`` of every matching factor: each looks up only if it has not
    yet, and one stacked ``frozen_cost`` evaluates all held terms."""
    at, held, rots, trans = _held_terms(factors, values, relook=False)
    costs = frozen_cost(held, rots, trans).tolist() if held else []
    return [0.0 if k is None else costs[k] for k in at]


def _matching_linearizations(factors, values) -> list[FactorLinearization]:
    """``linearize`` of every matching factor: each looks up, in order, and
    one stacked ``linearize_from_terms`` takes the blocks of all held
    terms; a factor with a fixed target keeps the source pose's blocks."""
    at, held, rots, trans = _held_terms(factors, values, relook=True)
    if held:
        grad, hess, cost = linearize_from_terms(held, rots, trans)
        cost = cost.tolist()
    out = []
    for f, k in zip(factors, at):
        if k is None:
            out.append(FactorLinearization(None, None, 0.0))
        elif f.unary:
            out.append(FactorLinearization(grad[k, :6], hess[k, :6, :6], cost[k]))
        else:
            out.append(FactorLinearization(grad[k], hess[k], cost[k]))
    return out


class MarginalPriorFactor(Factor):
    """Dense Gaussian prior left behind by marginalized variables.

    Stores the Schur-complement gradient and Hessian at a frozen
    linearization point; evaluation treats the local-coordinate map as
    identity (first-order consistent at the linearization point).
    ``constant`` is the cost the marginalized factors keep at that point
    once the removed variables take their conditional optimum, so the
    prior's cost is that of the factors it replaces, offset included, and
    a window's total cost stays a sum of nonnegative terms.
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

    def _delta(self, values) -> np.ndarray:
        delta = np.empty(self.dim)
        for k, sl in self._slices.items():
            delta[sl] = state_local(values[k], self.lin_values[k])
        return delta

    def _cost_at(self, d) -> float:
        return float(self.constant + self.gradient @ d + 0.5 * d @ self.hessian @ d)

    def cost(self, values) -> float:
        return self._cost_at(self._delta(values))

    def linearize(self, values) -> FactorLinearization:
        d = self._delta(values)
        return FactorLinearization(self.gradient + self.hessian @ d,
                                   self.hessian, self._cost_at(d))


@dataclass
class LmSettings:
    max_iterations: int = 64
    # stop once one step changes the cost by at most this fraction of it;
    # correspondences jump between voxels, so much less is below the noise
    rel_cost_tol: float = 1e-6
    update_tol: float = 1e-9
    lambda_init: float = 1e-6
    lambda_max: float = 1e12


@dataclass
class OptimizeResult:
    estimates: dict
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


def _by_factor(factors, values, matching, other) -> list:
    """``matching(ms, values)`` for the matching factors ms, taken in one
    stacked call, and ``other(f)`` for every other factor, in factor
    order."""
    ms = [f for f in factors if isinstance(f, MatchingCostFactor)]
    stacked = iter(matching(ms, values) if ms else ())
    return [next(stacked) if isinstance(f, MatchingCostFactor) else other(f)
            for f in factors]


def _accumulate(factors, values, slices, dim):
    """Dense normal equations (H, g) and total cost of the factors at values.

    The matching factors' blocks come from one stacked linearization; every
    other factor linearizes alone.  The blocks are then placed, and the
    costs summed, in factor order, each block landing, one key pair at a
    time, in the leading dims[a] entries of its keys' slices."""
    h = np.zeros((dim, dim))
    g = np.zeros(dim)
    cost = 0.0
    lins = _by_factor(factors, values, _matching_linearizations,
                      lambda f: f.linearize(values))
    for f, lin in zip(factors, lins):
        cost += lin.cost
        if lin.h is None:
            continue
        places, off = [], 0  # (system slice, block slice) per key
        for k, n in zip(f.keys, f.dims):
            start = slices[k].start
            places.append((slice(start, start + n), slice(off, off + n)))
            off += n
        for sys_a, blk_a in places:
            g[sys_a] += lin.g[blk_a]
            for sys_b, blk_b in places:
                h[sys_a, sys_b] += lin.h[blk_a, blk_b]
    return h, g, cost


def _cholesky(h):
    """Lower Cholesky factor of h for ``cho_solve``.  A matrix that is not
    numerically positive definite is factored with a jitter added to its
    diagonal: 1e-9 of its largest diagonal entry, and at least 1e-9."""
    try:
        return scipy.linalg.cho_factor(h, lower=True)
    except np.linalg.LinAlgError:
        jitter = 1e-9 * max(1.0, float(np.max(np.abs(np.diag(h)))))
        return scipy.linalg.cho_factor(h + jitter * np.eye(len(h)), lower=True)


def _damped_step(h, g, damping):
    """Solution of (H + diag(damping)) delta = -g; None if it fails."""
    try:
        factorized = scipy.linalg.cho_factor(h + np.diag(damping), lower=True)
        delta = scipy.linalg.cho_solve(factorized, -g)
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
                f"component containing {k} has no anchoring factor")


class FactorGraph:
    """Variables plus factors; a multigraph (parallel factors allowed)."""

    def __init__(self):
        self.values: dict[Key, SensorState] = {}
        self.factors: list[Factor] = []
        # (H, slices) of the last assembly of optimize_lm
        self._normal: tuple[np.ndarray, dict] | None = None

    def add_variable(self, key: Key, initial_value) -> None:
        if key in self.values:
            raise DuplicateVariable(f"{key} already in graph")
        self.values[key] = initial_value

    def add_factor(self, factor: Factor) -> None:
        if not factor.keys:
            return  # fully folded (e.g. empty marginal prior)
        for k in factor.keys:
            if k not in self.values:
                raise UnknownVariable(f"factor references missing {k}")
        self.factors.append(factor)

    def total_cost(self, values=None) -> float:
        """Sum of the factor costs at the values (the graph's own by
        default), in factor order; the matching factors' costs come from one
        stacked evaluation."""
        values = self.values if values is None else values
        return float(sum(_by_factor(self.factors, values, _matching_costs,
                                    lambda f: f.cost(values))))

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
        rel_cost_tol times the cost, whether or not it is accepted, or when
        the step is shorter than update_tol.  It also converges when two
        linearizations in a row find no cost lower, by more than that
        tolerance, than the lowest an earlier one found: the correspondences
        looked up at each linearization then move the cost more than the
        steps do, and the iterates wander or cycle between correspondence
        sets.  Ending at max_iterations is not converging.  NotConverged is
        raised when lambda passes lambda_max.

        The undamped system H of the last assembly, with its key slices, is
        held for marginal_covariance until the next solve, also when
        NotConverged ends this one.  It is linearized at the estimate of
        that iteration, which an accepted step may have moved since.
        """
        settings = settings or LmSettings()
        self.check_structure()
        slices, dim = _layout(self.values)
        values = dict(self.values)
        initial_cost = cost = self.total_cost(values)
        lam, nu = settings.lambda_init, 2.0
        iterations = evaluations = rejected = 0
        converged = False

        def negligible(change, ref):
            return abs(change) <= settings.rel_cost_tol * max(ref, 1e-30)

        best = None  # lowest cost at a linearization so far
        stalled = 0  # linearizations since best was last lowered
        while not converged and iterations < settings.max_iterations:
            h, g, cost = _accumulate(self.factors, values, slices, dim)
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
                    if np.max(np.abs(delta)) < settings.update_tol:
                        converged = True
                        break
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
                if lam > settings.lambda_max:
                    self.values = values
                    reason = ("no cost-reducing step found" if delta is not None
                              else "damping exhausted on singular system")
                    raise NotConverged(reason, estimates=values, cost=cost)
        self.values = values
        return OptimizeResult(values, cost, iterations, converged, initial_cost,
                              evaluations, rejected)

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
                raise UnknownVariable(f"{k} not in graph")
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
        x_rk = scipy.linalg.cho_solve(chol, h_rk)
        x_r = scipy.linalg.cho_solve(chol, g_r)
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

    def marginal_covariance(self, key: Key) -> np.ndarray:
        """Covariance block of one variable: the key's block of the inverse
        of the system H that the last optimize_lm assembled.

        The inverse of H restricted to any set of its keys is their marginal
        under the Gaussian that the solve linearized, so the answer does not
        change when other keys of that system are marginalized afterwards.
        Raises UnknownVariable for a key that was not in the held system.
        """
        if self._normal is None or key not in self._normal[1]:
            raise UnknownVariable(f"{key} was not in the last solve's system")
        h, slices = self._normal
        sl = slices[key]
        rhs = np.zeros((len(h), STATE_DIM))
        rhs[sl] = np.eye(STATE_DIM)
        return scipy.linalg.cho_solve(_cholesky(h), rhs)[sl]
