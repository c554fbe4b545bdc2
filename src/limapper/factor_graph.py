"""Factor graph container, on-manifold Levenberg-Marquardt, and fixed-lag
marginalization.

Every factor contributes a scalar cost plus, on linearization, the gradient
and Gauss-Newton Hessian blocks of that cost with respect to the connected
variables' tangent perturbations.  The optimizer assembles damped normal
equations from all factors at the current estimate each iteration.  A
matching-cost factor looks its correspondences up again only when it is
linearized; the candidate steps of one iteration are costed with the
correspondences of that linearization, so the cost the optimizer compares
is smooth within the iteration.  Priors and relative-state factors are
fixed-form quadratics.

Variable kinds and tangent layouts:

* ``frame-state`` / ``endpoint-state``: SensorState, 15 dof
  (rot, trans, vel, accel bias, gyro bias)
* ``submap-pose``: Se3Pose, 6 dof (rot, trans)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateConstraint,
    DisconnectedGraph,
    DuplicateVariable,
    NotConverged,
    UnderConstrainedGraph,
    UnknownVariable,
)
from .geometry import (
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    pose_local,
    pose_retract,
    so3_hat,
    so3_log,
    so3_right_jacobian_inv,
    state_local,
    state_retract,
)
from .imu import GRAVITY, PreintegratedImu, imu_factor_residual
from .registration import (
    GaussianVoxelMap,
    linearize_from_terms,
    match_terms,
)
from .preprocess import Frame

VARIABLE_DIMS = {"frame-state": 15, "submap-pose": 6, "endpoint-state": 15}


@dataclass(frozen=True, order=True)
class Key:
    kind: str
    index: int

    @property
    def dim(self) -> int:
        return VARIABLE_DIMS[self.kind]

    def __repr__(self) -> str:
        return f"{self.kind}:{self.index}"


def frame_key(index: int) -> Key:
    return Key("frame-state", index)


def submap_key(index: int) -> Key:
    return Key("submap-pose", index)


def endpoint_key(submap_index: int, side: str) -> Key:
    offset = 0 if side == "left" else 1
    return Key("endpoint-state", 2 * submap_index + offset)


def retract_value(kind: str, value, delta):
    if kind == "submap-pose":
        return pose_retract(value, delta)
    return state_retract(value, delta)


def local_value(kind: str, value, ref) -> np.ndarray:
    if kind == "submap-pose":
        return pose_local(value, ref)
    return state_local(value, ref)


def _pose_of(kind: str, value) -> Se3Pose:
    return value if kind == "submap-pose" else value.pose


def _padded(block: np.ndarray, *dims: int) -> np.ndarray:
    """block in the leading corner of a zero array of shape dims."""
    out = np.zeros(dims)
    out[tuple(slice(0, n) for n in block.shape)] = block
    return out


class FactorLinearization:
    """Gradient/Hessian blocks of one factor's cost contribution."""

    __slots__ = ("keys", "g", "h", "cost")

    def __init__(self, keys, g, h, cost):
        self.keys = keys
        self.g = g  # list of per-key gradient blocks
        self.h = h  # dict (a, b) with a <= b -> block
        self.cost = cost


class Factor:
    keys: tuple
    grounding = False  # anchors its component absolutely

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

    def __init__(self, key: Key, prior_value, information):
        self.keys = (key,)
        self.prior = prior_value
        info = np.asarray(information, dtype=float)
        if info.ndim == 1:
            info = np.diag(info)
        self.information = info

    def _residual(self, values):
        return local_value(self.keys[0].kind, values[self.keys[0]], self.prior)

    def cost(self, values) -> float:
        r = self._residual(values)
        return float(r @ self.information @ r)

    def linearize(self, values) -> FactorLinearization:
        key = self.keys[0]
        r = self._residual(values)
        d = key.dim
        jac = np.eye(d)
        ref_r = self.prior if key.kind == "submap-pose" else self.prior.pose
        cur_r = _pose_of(key.kind, values[key])
        jac[0:3, 0:3] = so3_right_jacobian_inv(r[:3])
        jac[3:6, 3:6] = ref_r.rotation.matrix().T @ cur_r.rotation.matrix()
        jtw = 2.0 * jac.T @ self.information
        return FactorLinearization(
            self.keys, [jtw @ r], {(0, 0): jtw @ jac},
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
        wi = 2.0 * j_i.T @ self.information
        wj = 2.0 * j_j.T @ self.information
        return FactorLinearization(
            self.keys,
            [wi @ r, wj @ r],
            {(0, 0): wi @ j_i, (0, 1): wi @ j_j, (1, 1): wj @ j_j},
            float(r @ self.information @ r))


class MatchingCostFactor(Factor):
    """Voxelized registration constraint between a source frame and a
    target voxel map; unary when the target pose is fixed.

    The source/target poses are read from the connected variables (the pose
    component for state variables).  ``linearize`` looks up the voxel of
    every source point at the given estimate; ``cost`` keeps the voxels of
    the last ``linearize`` (or looks them up if there was none yet), so that
    a point crossing a voxel boundary does not make the cost jump between
    two linearizations.  If the correspondence count is below the minimum,
    the factor contributes nothing.
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
        self._rows = None  # voxel row per source point from the last linearize
        # (v_i, v_j, terms, t_ij) of the last evaluated value pair, with terms
        # on self._rows once set; values are immutable, so identity comparison
        # is a safe cache key
        self._terms_cache = None

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
    def inliers(self) -> int:
        """Source points that found a voxel at the last linearization."""
        return 0 if self._rows is None else int(np.count_nonzero(self._rows >= 0))

    def _poses(self, values):
        t_i = _pose_of(self.keys[0].kind, values[self.keys[0]])
        if self.unary:
            return t_i, self.fixed_target_pose
        return t_i, _pose_of(self.keys[1].kind, values[self.keys[1]])

    def _terms(self, values, lookup: bool):
        """Correspondence terms at the given values: on the voxel rows of the
        last linearization, or on fresh ones when ``lookup`` is set or there
        was no linearization yet.  Terms computed at the same value objects
        are reused when their rows are the ones asked for."""
        v_i = values[self.keys[0]]
        v_j = None if self.unary else values[self.keys[1]]
        cached = self._terms_cache
        if cached is not None and cached[0] is v_i and cached[1] is v_j:
            terms, t_ij = cached[2], cached[3]
            if not lookup:
                return terms, t_ij
            rows = self.target_map.lookup(terms.moved)
            if np.array_equal(rows, terms.rows):
                return terms, t_ij
        else:
            t_i, t_j = self._poses(values)
            t_ij = pose_compose(pose_inverse(t_j), t_i)
            rows = None if lookup else self._rows
        terms = match_terms(self.source, self.target_map, t_ij, rows)
        self._terms_cache = (v_i, v_j, terms, t_ij)
        return terms, t_ij

    def cost(self, values) -> float:
        if self._empty:
            return 0.0
        terms, _ = self._terms(values, lookup=False)
        return terms.cost if terms.inliers >= self.min_inliers else 0.0

    def linearize(self, values) -> FactorLinearization:
        dims = [k.dim for k in self.keys]
        try:
            if self._empty:
                raise DegenerateConstraint("no points to match")
            terms, t_ij = self._terms(values, lookup=True)
            self._rows = terms.rows
            lin = linearize_from_terms(terms, t_ij, target_fixed=self.unary,
                                       min_inliers=self.min_inliers)
        except DegenerateConstraint:
            return FactorLinearization(
                self.keys, [np.zeros(d) for d in dims],
                {(a, a): np.zeros((d, d)) for a, d in enumerate(dims)}, 0.0)
        g = [_padded(lin.b_i, dims[0])]
        h = {(0, 0): _padded(lin.h_ii, dims[0], dims[0])}
        if not self.unary:
            g.append(_padded(lin.b_j, dims[1]))
            h[(0, 1)] = _padded(lin.h_ij, dims[0], dims[1])
            h[(1, 1)] = _padded(lin.h_jj, dims[1], dims[1])
        return FactorLinearization(self.keys, g, h, lin.cost)


class RelativeStateFactor(Factor):
    """Ties an endpoint state to its submap pose through stored relatives.

    The residual vanishes when the endpoint equals the submap pose composed
    with the stored relative pose, the rotated stored velocity, and the
    stored bias.  Weighted near-rigid by default.
    """

    kind = "relative-state"

    def __init__(self, key_submap: Key, key_endpoint: Key, rel_pose: Se3Pose,
                 rel_velocity, rel_bias, sigma: float = 1e-3):
        self.keys = (key_submap, key_endpoint)
        self.rel_pose = rel_pose
        self.rel_velocity = np.asarray(rel_velocity, dtype=float)
        self.rel_bias = np.asarray(rel_bias, dtype=float)
        self.information = np.full(15, 1.0 / sigma**2)

    def _residual(self, values):
        t_s: Se3Pose = values[self.keys[0]]
        state: SensorState = values[self.keys[1]]
        err = pose_compose(pose_inverse(self.rel_pose),
                           pose_compose(pose_inverse(t_s), state.pose))
        r = np.empty(15)
        r[0:3] = so3_log(err.rotation)
        r[3:6] = err.translation
        r[6:9] = t_s.rotation.inverse().apply(state.velocity) - self.rel_velocity
        r[9:15] = state.bias - self.rel_bias
        return r, err, t_s, state

    def cost(self, values) -> float:
        r, _, _, _ = self._residual(values)
        return float(r @ (self.information * r))

    def linearize(self, values) -> FactorLinearization:
        r, err, t_s, state = self._residual(values)
        jr_inv = so3_right_jacobian_inv(r[0:3])
        e_rot = err.rotation.matrix()
        rs_t = t_s.rotation.matrix().T

        # C = (T_s)^-1 T_endpoint enters the submap-side chain rule
        c = pose_compose(pose_inverse(t_s), state.pose)
        rc_t = c.rotation.matrix().T
        rb = self.rel_pose.rotation.matrix().T  # rotation of rel_pose^-1

        j_s = np.zeros((15, 6))
        j_s[0:3, 0:3] = -jr_inv @ rc_t
        j_s[3:6, 0:3] = rb @ so3_hat(c.translation)
        j_s[3:6, 3:6] = -rb
        j_s[6:9, 0:3] = so3_hat(rs_t @ state.velocity)

        j_e = np.zeros((15, 15))
        j_e[0:3, 0:3] = jr_inv
        j_e[3:6, 3:6] = e_rot
        j_e[6:9, 6:9] = rs_t
        j_e[9:15, 9:15] = np.eye(6)

        wr = self.information * r
        ws = 2.0 * j_s.T
        we = 2.0 * j_e.T
        lam = self.information[:, None]
        return FactorLinearization(
            self.keys,
            [ws @ wr, we @ wr],
            {(0, 0): ws @ (lam * j_s), (0, 1): ws @ (lam * j_e),
             (1, 1): we @ (lam * j_e)},
            float(r @ wr))


class MarginalPriorFactor(Factor):
    """Dense Gaussian prior left behind by marginalized variables.

    Stores the Schur-complement gradient and Hessian at a frozen
    linearization point; evaluation treats the local-coordinate map as
    identity (first-order consistent at the linearization point).
    """

    grounding = True
    kind = "marginal-prior"

    def __init__(self, keys, lin_values: dict, hessian: np.ndarray,
                 gradient: np.ndarray):
        self.keys = tuple(keys)
        self.lin_values = dict(lin_values)
        self.hessian = 0.5 * (hessian + hessian.T)
        self.gradient = gradient
        self._slices = []
        off = 0
        for k in self.keys:
            self._slices.append(slice(off, off + k.dim))
            off += k.dim
        self.dim = off

    def _delta(self, values) -> np.ndarray:
        delta = np.empty(self.dim)
        for k, sl in zip(self.keys, self._slices):
            delta[sl] = local_value(k.kind, values[k], self.lin_values[k])
        return delta

    def cost(self, values) -> float:
        d = self._delta(values)
        return float(self.gradient @ d + 0.5 * d @ self.hessian @ d)

    def linearize(self, values) -> FactorLinearization:
        d = self._delta(values)
        g_full = self.gradient + self.hessian @ d
        g = [g_full[sl] for sl in self._slices]
        h = {}
        for a in range(len(self.keys)):
            for b in range(a, len(self.keys)):
                h[(a, b)] = self.hessian[self._slices[a], self._slices[b]]
        return FactorLinearization(self.keys, g, h, self.cost(values))


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
        slices[k] = slice(off, off + k.dim)
        off += k.dim
    return slices, off


def _accumulate(factors, values, slices, dim):
    """Dense normal equations (H, g) and total cost of the factors at values."""
    h = np.zeros((dim, dim))
    g = np.zeros(dim)
    cost = 0.0
    for f in factors:
        lin = f.linearize(values)
        cost += lin.cost
        sls = [slices[k] for k in lin.keys]
        for a, ga in enumerate(lin.g):
            g[sls[a]] += ga
        for (a, b), blk in lin.h.items():
            h[sls[a], sls[b]] += blk
            if a != b:
                h[sls[b], sls[a]] += blk.T
    return h, g, cost


def _damped_step(h, g, damping):
    """Solution of (H + diag(damping)) delta = -g; None if it fails."""
    try:
        factorized = scipy.linalg.cho_factor(h + np.diag(damping), lower=True)
        delta = scipy.linalg.cho_solve(factorized, -g)
    except (np.linalg.LinAlgError, ValueError):
        return None
    return delta if np.all(np.isfinite(delta)) else None


class FactorGraph:
    """Variables plus factors; a multigraph (parallel factors allowed)."""

    def __init__(self):
        self.values: dict[Key, object] = {}
        self.factors: list[Factor] = []
        self._cached_normal = None  # (H, slices, dim) at current values

    def add_variable(self, key: Key, initial_value) -> None:
        if key in self.values:
            raise DuplicateVariable(f"{key} already in graph")
        self.values[key] = initial_value
        self._cached_normal = None

    def add_factor(self, factor: Factor) -> None:
        if not factor.keys:
            return  # fully folded (e.g. empty marginal prior)
        for k in factor.keys:
            if k not in self.values:
                raise UnknownVariable(f"factor references missing {k}")
        self.factors.append(factor)
        self._cached_normal = None

    def total_cost(self, values=None) -> float:
        values = self.values if values is None else values
        return float(sum(f.cost(values) for f in self.factors))

    # -- structural checks -------------------------------------------------

    def check_structure(self) -> None:
        """Every variable must sit in a component that owns an anchoring
        (prior-like) factor; lone variables are rejected outright."""
        touched = {k: False for k in self.values}
        parent = {k: k for k in self.values}

        def find(k):
            while parent[k] is not k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra is not rb:
                parent[ra] = rb

        for f in self.factors:
            for k in f.keys:
                touched[k] = True
            for a, b in zip(f.keys, f.keys[1:]):
                union(a, b)
        loose = [k for k, t in touched.items() if not t]
        if loose:
            raise UnderConstrainedGraph(f"variables without factors: {loose}")
        grounded = set()
        for f in self.factors:
            if f.grounding:
                grounded.add(find(f.keys[0]))
        for k in self.values:
            if find(k) not in grounded:
                raise UnderConstrainedGraph(
                    f"component containing {k} has no anchoring factor")

    # -- assembly ----------------------------------------------------------

    def _retract_all(self, values, slices, delta):
        out = {}
        for k, v in values.items():
            out[k] = retract_value(k.kind, v, delta[slices[k]])
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
        sets.  Ending at max_iterations is not converging.  NotConverged is raised when lambda passes
        lambda_max.  The normal equations are kept for marginal_covariance
        when the solve ends where they were assembled.
        """
        settings = settings or LmSettings()
        self.check_structure()
        slices, dim = _layout(self.values)
        values = dict(self.values)
        initial_cost = cost = self.total_cost(values)
        lam, nu = settings.lambda_init, 2.0
        iterations = evaluations = rejected = 0
        converged = False
        normal = None

        def negligible(change, ref):
            return abs(change) <= settings.rel_cost_tol * max(ref, 1e-30)

        best = None  # lowest cost at a linearization so far
        stalled = 0  # linearizations since best was last lowered
        while not converged and iterations < settings.max_iterations:
            h, g, cost = _accumulate(self.factors, values, slices, dim)
            normal = (h, slices, dim)
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
                        normal = None
                        converged = small
                        break
                    rejected += 1
                    if small:
                        converged = True
                        break
                lam, nu = lam * nu, 2.0 * nu
                if lam > settings.lambda_max:
                    self.values = values
                    self._cached_normal = None
                    reason = ("no cost-reducing step found" if delta is not None
                              else "damping exhausted on singular system")
                    raise NotConverged(reason, estimates=values, cost=cost)
        self.values = values
        self._cached_normal = normal
        return OptimizeResult(values, cost, iterations, converged, initial_cost,
                              evaluations, rejected)

    def warm_restart_optimize(self, previous_estimates: dict,
                              settings: LmSettings | None = None) -> OptimizeResult:
        """Re-optimize after seeding existing variables from a prior solve.

        Variables absent from previous_estimates keep their insertion-time
        initials, which is what makes repeated batch solves cheap as the
        graph grows.
        """
        for k, v in previous_estimates.items():
            if k in self.values:
                self.values[k] = v
        return self.optimize_lm(settings)

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
        involved = [f for f in self.factors if any(k in removed_set for k in f.keys)]
        retained = []
        for f in involved:
            for k in f.keys:
                if k not in removed_set and k not in retained:
                    retained.append(k)

        # validate connectivity of the remaining graph before mutating
        remaining = [f for f in self.factors if f not in involved]
        probe = FactorGraph()
        for k, v in self.values.items():
            if k not in removed_set:
                probe.values[k] = v
        probe.factors = remaining
        if retained:
            probe.factors = remaining + [
                MarginalPriorFactor(retained, {k: self.values[k] for k in retained},
                                    np.zeros((sum(k.dim for k in retained),) * 2),
                                    np.zeros(sum(k.dim for k in retained)))]
        try:
            if probe.values:
                probe.check_structure()
        except UnderConstrainedGraph as exc:
            raise DisconnectedGraph(str(exc)) from exc

        # local ordering: removed first, then retained
        slices, dim = _layout(removed + retained)
        h, g, _ = _accumulate(involved, self.values, slices, dim)

        r_dim = sum(k.dim for k in removed)
        h_rr = h[:r_dim, :r_dim]
        h_rk = h[:r_dim, r_dim:]
        g_r = g[:r_dim]
        try:
            chol = scipy.linalg.cho_factor(h_rr, lower=True)
            x_rk = scipy.linalg.cho_solve(chol, h_rk)
            x_r = scipy.linalg.cho_solve(chol, g_r)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * max(1.0, float(np.max(np.abs(np.diag(h_rr)))))
            chol = scipy.linalg.cho_factor(h_rr + jitter * np.eye(r_dim), lower=True)
            x_rk = scipy.linalg.cho_solve(chol, h_rk)
            x_r = scipy.linalg.cho_solve(chol, g_r)
        h_marg = h[r_dim:, r_dim:] - h_rk.T @ x_rk
        g_marg = g[r_dim:] - h_rk.T @ x_r

        self.factors = remaining
        for k in removed:
            del self.values[k]
        self._cached_normal = None
        prior = MarginalPriorFactor(retained,
                                    {k: self.values[k] for k in retained},
                                    h_marg, g_marg)
        if retained:
            self.add_factor(prior)
        return prior

    def marginal_covariance(self, key: Key) -> np.ndarray:
        """Covariance block of one variable from the full normal equations,
        assembled at the current values unless the last solve kept them."""
        if self._cached_normal is not None:
            h, slices, dim = self._cached_normal
        else:
            slices, dim = _layout(self.values)
            h, _, _ = _accumulate(self.factors, self.values, slices, dim)
        sl = slices[key]
        rhs = np.zeros((dim, key.dim))
        rhs[sl] = np.eye(key.dim)
        try:
            sol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h, lower=True), rhs)
        except np.linalg.LinAlgError:
            jitter = 1e-9 * max(1.0, float(np.max(np.abs(np.diag(h)))))
            sol = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(h + jitter * np.eye(dim), lower=True), rhs)
        return sol[sl]

    def dump(self, stream) -> None:
        """Line-delimited structure and per-factor cost listing."""
        for k, v in self.values.items():
            stream.write(f"variable {k} dim={k.dim}\n")
        for i, f in enumerate(self.factors):
            keys = ",".join(str(k) for k in f.keys)
            stream.write(f"factor {i} kind={f.kind} keys=[{keys}] "
                         f"cost={f.cost(self.values):.9g}\n")
