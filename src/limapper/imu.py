"""IMU preintegration and the preintegrated-motion factor.

Preintegrated deltas accumulate body motion between two stamps in the frame
of the first stamp, with the linearization-point bias subtracted and gravity
excluded; gravity re-enters when composing onto a state or evaluating the
factor residual.  The 9x9 covariance and the 9x6 bias Jacobian are ordered
(rotation, velocity, position) x (accel bias, gyro bias).

One kernel, ``integrate``, forms the deltas at every node of a window, and
both ``preintegrate`` and ``preprocess.deskew`` read them.  The readings are
held over each of the m steps (Euler integration, the discrete model of
Forster et al., "On-manifold preintegration for real-time visual-inertial
odometry", T-RO 2017).  With bias-corrected readings a_k and w_k over a step
of length dt_k and phi_k = w_k dt_k:

    R_{k+1} = R_k exp(phi_k),                R_0 = I
    v_{k+1} = v_k + R_k a_k dt_k,            v_0 = 0
    p_{k+1} = p_k + v_k dt_k + R_k a_k dt_k^2 / 2,   p_0 = 0

Every exp(phi_k) comes from one batched Rodrigues formula, the rotations
from a prefix product in log2(m) rounds of batched 3x3 products, and v and p
from cumulative sums.  ``preintegrate``
takes the bias Jacobians and the covariance from the same sums, in closed
form over the steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ImuCoverageGap, InvalidInterval
from .geometry import (
    Rotation,
    SensorState,
    Se3Pose,
    so3_exp,
    so3_exp_jacobian_batch,
    so3_hat,
    so3_hat_batch,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

GRAVITY = np.array([0.0, 0.0, -9.80665])


@dataclass(frozen=True)
class ImuSample:
    stamp: float
    accel: np.ndarray  # specific force, body frame [m/s^2]
    gyro: np.ndarray  # angular rate, body frame [rad/s]


@dataclass(frozen=True)
class ImuNoiseParams:
    """Continuous-time noise densities and the gravity vector."""

    accel_noise_density: float = 0.02  # m/s^2/sqrt(Hz)
    gyro_noise_density: float = 0.002  # rad/s/sqrt(Hz)
    accel_bias_walk: float = 2e-4  # m/s^3/sqrt(Hz)
    gyro_bias_walk: float = 2e-5  # rad/s^2/sqrt(Hz)
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())

    def __post_init__(self):
        for name in ("accel_noise_density", "gyro_noise_density",
                     "accel_bias_walk", "gyro_bias_walk"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PreintegratedImu:
    delta_r: Rotation
    delta_v: np.ndarray
    delta_p: np.ndarray
    dt_total: float
    cov: np.ndarray  # 9x9, (rot, vel, pos)
    bias_lin: np.ndarray  # 6, (ba, bg) at the linearization point
    jac_bias: np.ndarray  # 9x6, d(deltas)/d(bias)


def samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    stamps = np.array([s.stamp for s in samples], dtype=float)
    accel = np.array([s.accel for s in samples], dtype=float).reshape(-1, 3)
    gyro = np.array([s.gyro for s in samples], dtype=float).reshape(-1, 3)
    return stamps, accel, gyro


def integration_nodes(samples, t0: float, t1: float, max_gap: float = 0.02):
    """Sub-interval boundaries and measurements covering [t0, t1].

    Returns (stamps, accel, gyro) where stamps has m+1 entries and the i-th
    measurement row applies over [stamps[i], stamps[i+1]].  The nodes are
    t0, every sample stamp inside (t0, t1), and t1; a node at a sample's
    stamp takes that sample.  The first node, when it falls between two
    samples, takes their linear interpolation, and before the first or
    after the last sample the nearest one.  Samples must be in stamp order.
    """
    if t1 <= t0:
        raise InvalidInterval(f"window [{t0}, {t1}] is empty")
    stamps, accel, gyro = (samples if isinstance(samples, tuple)
                           else samples_to_arrays(samples))
    n = stamps.size
    if n == 0:
        raise ImuCoverageGap("no IMU samples supplied")
    if stamps[0] - t0 > max_gap or t1 - stamps[-1] > max_gap:
        raise ImuCoverageGap(
            f"samples span [{stamps[0]:.4f}, {stamps[-1]:.4f}], "
            f"window is [{t0:.4f}, {t1:.4f}]")
    j, hi = np.searchsorted(stamps, [t0, t1])  # first at or after each
    lo = np.searchsorted(stamps, t0, side="right")
    node_t = np.concatenate([[t0], stamps[lo:hi], [t1]])
    gaps = np.diff(node_t)
    # every integration sub-interval must stay below the configured gap
    if np.max(gaps) > max_gap:
        raise ImuCoverageGap(
            f"IMU gap of {np.max(gaps):.4f}s inside [{t0:.4f}, {t1:.4f}]")

    node_a = np.empty((hi - lo + 1, 3))
    node_g = np.empty((hi - lo + 1, 3))
    node_a[1:], node_g[1:] = accel[lo:hi], gyro[lo:hi]
    if j == n or stamps[j] == t0 or j == 0:
        first = min(j, n - 1)
        node_a[0], node_g[0] = accel[first], gyro[first]
    else:
        w = (t0 - stamps[j - 1]) / (stamps[j] - stamps[j - 1])
        node_a[0] = accel[j - 1] + w * (accel[j] - accel[j - 1])
        node_g[0] = gyro[j - 1] + w * (gyro[j] - gyro[j - 1])
    return node_t, node_a, node_g


class NodeDeltas(NamedTuple):
    """Deltas of an integration window at its m + 1 nodes, with the per-step
    terms they were formed from (see the module docstring)."""

    stamps: np.ndarray  # (m + 1,) node stamps
    dt: np.ndarray  # (m,) step lengths, all positive
    acc: np.ndarray  # (m, 3) a_k, bias-corrected specific force
    phi: np.ndarray  # (m, 3) phi_k = w_k dt_k
    jr: np.ndarray  # (m, 3, 3) right Jacobians of phi_k
    rot: np.ndarray  # (m + 1, 3, 3) R_k
    vel: np.ndarray  # (m + 1, 3) v_k
    pos: np.ndarray  # (m + 1, 3) p_k


def _prefix_sums(steps: np.ndarray) -> np.ndarray:
    """Sums of the first k rows of ``steps`` for k = 0 .. m, added in order."""
    out = np.zeros((steps.shape[0] + 1,) + steps.shape[1:])
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def integrate(samples, t0: float, t1: float, bias,
              max_gap: float = 0.02) -> NodeDeltas:
    """Deltas from t0 to every node of [t0, t1] at the given (accel, gyro)
    bias; raises as integration_nodes does."""
    bias = np.asarray(bias, dtype=float)
    node_t, node_a, node_g = integration_nodes(samples, t0, t1, max_gap)
    dt = np.diff(node_t)
    # a sample stamp given twice makes a step of zero length, which moves
    # nothing and is left out
    keep = dt > 0.0
    if not keep.all():
        node_t = node_t[np.r_[True, keep]]
        dt, node_a, node_g = dt[keep], node_a[keep], node_g[keep]
    acc = node_a - bias[:3]
    phi = (node_g - bias[3:]) * dt[:, None]
    # R_k is the product of the first k step rotations: a prefix product in
    # log2(m) rounds, each composing every partial product with the one
    # that ends where it starts
    rot = np.empty((dt.size + 1, 3, 3))
    rot[0] = np.eye(3)
    rot[1:], jr = so3_exp_jacobian_batch(phi)
    span = 1
    while span < dt.size:
        rot[span + 1:] = rot[1:-span] @ rot[span + 1:]
        span *= 2
    acc_rot = np.einsum("kij,kj->ki", rot[:-1], acc)
    dt_col = dt[:, None]
    vel = _prefix_sums(acc_rot * dt_col)
    pos = _prefix_sums(vel[:-1] * dt_col + 0.5 * acc_rot * dt_col * dt_col)
    return NodeDeltas(node_t, dt, acc, phi, jr, rot, vel, pos)


def preintegrate(samples, t_i: float, t_j: float, bias_lin,
                 noise: ImuNoiseParams, max_gap: float = 0.02) -> PreintegratedImu:
    """Deltas over [t_i, t_j] with their covariance and bias Jacobian.

    The deltas are those of ``integrate`` at the last node N.  Every sum
    over the steps below weights step k by dt_k, or for a position row by
    dt_k s_k, with s_k = t_N - (t_k + t_{k+1}) / 2 the time from the step's
    midpoint to t_N: that is how a velocity term of step k reaches the
    position at N.  With J_k the right Jacobian of phi_k,
    S_k = sum_{i<k} R_{i+1} J_i dt_i and G_k = -R_k^T S_k (the gyro-bias
    Jacobian of the rotation at node k), the bias Jacobians are

        dR/db_g = G_N,
        dv/db_a = -sum R_k dt_k,        dv/db_g = -sum R_k hat(a_k) G_k dt_k,
        dp/db_a = -sum R_k dt_k s_k,    dp/db_g = -sum R_k hat(a_k) G_k dt_k s_k.

    The covariance is the recursion P <- A_k P A_k^T + Q_k from P = 0, with
    the error-state transition

        A_k = [[exp(phi_k)^T, 0, 0],
               [-R_k hat(a_k) dt_k, I, 0],
               [-R_k hat(a_k) dt_k^2 / 2, I dt_k, I]],

    summed in closed form.  In the world-aligned rotation error R_k dphi_k,
    which A_k leaves unchanged, the noise of step k reaches node N through

        [[R_N^T, 0, 0], [-hat(V_k), I, 0], [-hat(U_k), tau_k I, I]],

    with tau_k = t_N - t_{k+1}, V_k = v_N - v_{k+1} and
    U_k = p_N - p_{k+1} - v_{k+1} tau_k.  The gyro density enters step k
    through R_{k+1} J_k sg sqrt(dt_k), so its part of P is the Gram matrix
    of those 9x3 factors carried to N.  The accel density, isotropic and so
    the same in any frame, adds sa^2 dt_k I on velocity, sa^2 dt_k s_k I
    between velocity and position and sa^2 dt_k s_k^2 I on position.
    """
    bias_lin = np.asarray(bias_lin, dtype=float)
    d = integrate(samples, t_i, t_j, bias_lin, max_gap)
    r = d.rot[:-1]
    tau = d.stamps[-1] - d.stamps[1:]
    mid = tau + 0.5 * d.dt
    weights = np.stack([d.dt, d.dt * mid])  # velocity rows, position rows

    r_jr = d.rot[1:] @ d.jr
    g_k = -np.swapaxes(d.rot, 1, 2) @ _prefix_sums(r_jr * d.dt[:, None, None])
    jac = np.zeros((9, 6))
    jac[0:3, 3:6] = g_k[-1]
    jac[3:9, 0:3] = -np.einsum("wk,kij->wij", weights, r).reshape(6, 3)
    jac[3:9, 3:6] = -np.einsum("wk,kij->wij", weights,
                               r @ so3_hat_batch(d.acc) @ g_k[:-1]).reshape(6, 3)

    # covariance: the gyro part as the Gram matrix of every step's 9x3
    # noise factor carried to node N, the accel part in closed form
    root = r_jr * (noise.gyro_noise_density * np.sqrt(d.dt))[:, None, None]
    h_v = so3_hat_batch(d.vel[-1] - d.vel[1:])
    h_p = so3_hat_batch(d.pos[-1] - d.pos[1:] - d.vel[1:] * tau[:, None])
    factors = np.concatenate([d.rot[-1].T @ root, -h_v @ root, -h_p @ root], axis=1)
    factors = factors.transpose(1, 0, 2).reshape(9, -1)
    cov = factors @ factors.T
    accel = noise.accel_noise_density**2 * d.dt
    moments = np.array([[accel.sum(), accel @ mid], [accel @ mid, accel @ (mid * mid)]])
    cov[3:, 3:] += (moments[:, None, :, None] * np.eye(3)[None, :, None, :]).reshape(6, 6)
    return PreintegratedImu(
        delta_r=Rotation.from_matrix(d.rot[-1]),
        delta_v=d.vel[-1],
        delta_p=d.pos[-1],
        dt_total=float(t_j - t_i),
        cov=cov,
        bias_lin=bias_lin,
        jac_bias=jac,
    )


def correct_for_bias(pre: PreintegratedImu, new_bias):
    """First-order update of the deltas for a bias away from bias_lin.

    Returns (delta_r, delta_v, delta_p).
    """
    db = np.asarray(new_bias, dtype=float) - pre.bias_lin
    delta_r = pre.delta_r * so3_exp(pre.jac_bias[0:3, 3:6] @ db[3:])
    delta_v = pre.delta_v + pre.jac_bias[3:6, :] @ db
    delta_p = pre.delta_p + pre.jac_bias[6:9, :] @ db
    return delta_r, delta_v, delta_p


def predict_state(state: SensorState, pre: PreintegratedImu,
                  gravity=GRAVITY) -> SensorState:
    """Compose preintegrated deltas onto a state, re-injecting gravity."""
    gravity = np.asarray(gravity, dtype=float)
    dr, dv, dp = correct_for_bias(pre, state.bias)
    dt = pre.dt_total
    r_i = state.pose.rotation
    return SensorState(
        pose=Se3Pose(r_i * dr,
                     state.pose.translation + state.velocity * dt
                     + 0.5 * gravity * dt * dt + r_i.apply(dp)),
        velocity=state.velocity + gravity * dt + r_i.apply(dv),
        bias_accel=state.bias_accel,
        bias_gyro=state.bias_gyro,
        stamp=state.stamp + dt,
    )


def imu_factor_residual(state_i: SensorState, state_j: SensorState,
                        pre: PreintegratedImu, gravity=GRAVITY,
                        with_jacobians: bool = True):
    """15-dof residual (rot, vel, pos, accel-bias walk, gyro-bias walk).

    The motion rows compare the preintegrated deltas (corrected to state_i's
    bias) against the state pair; the bias rows are the random-walk residual
    b_j - b_i.  Jacobians are with respect to the right-multiplicative state
    retraction of both states.
    """
    gravity = np.asarray(gravity, dtype=float)
    dt = pre.dt_total
    delta_r, delta_v, delta_p = correct_for_bias(pre, state_i.bias)

    r_i = state_i.pose.rotation
    r_j = state_j.pose.rotation
    ri_t = r_i.matrix().T
    err_rot = delta_r.inverse() * (r_i.inverse() * r_j)
    r_r = so3_log(err_rot)
    u_v = state_j.velocity - state_i.velocity - gravity * dt
    u_p = (state_j.pose.translation - state_i.pose.translation
           - state_i.velocity * dt - 0.5 * gravity * dt * dt)
    r_v = ri_t @ u_v - delta_v
    r_p = ri_t @ u_p - delta_p

    residual = np.concatenate([
        r_r, r_v, r_p,
        state_j.bias_accel - state_i.bias_accel,
        state_j.bias_gyro - state_i.bias_gyro,
    ])
    if not with_jacobians:
        return residual, None, None

    jr_inv = so3_right_jacobian_inv(r_r)
    e_mat = err_rot.matrix()
    j_i = np.zeros((15, 15))
    j_j = np.zeros((15, 15))

    # rotation rows
    j_i[0:3, 0:3] = -jr_inv @ (r_j.matrix().T @ r_i.matrix())
    j_phi_g = pre.jac_bias[0:3, 3:6]
    theta = j_phi_g @ (state_i.bias - pre.bias_lin)[3:]
    j_i[0:3, 12:15] = -jr_inv @ e_mat.T @ so3_right_jacobian(theta) @ j_phi_g
    j_j[0:3, 0:3] = jr_inv
    # velocity rows
    j_i[3:6, 0:3] = so3_hat(ri_t @ u_v)
    j_i[3:6, 6:9] = -ri_t
    j_i[3:6, 9:12] = -pre.jac_bias[3:6, 0:3]
    j_i[3:6, 12:15] = -pre.jac_bias[3:6, 3:6]
    j_j[3:6, 6:9] = ri_t
    # position rows
    j_i[6:9, 0:3] = so3_hat(ri_t @ u_p)
    j_i[6:9, 3:6] = -np.eye(3)
    j_i[6:9, 6:9] = -ri_t * dt
    j_i[6:9, 9:12] = -pre.jac_bias[6:9, 0:3]
    j_i[6:9, 12:15] = -pre.jac_bias[6:9, 3:6]
    j_j[6:9, 3:6] = ri_t @ r_j.matrix()
    # bias random-walk rows
    j_i[9:15, 9:15] = -np.eye(6)
    j_j[9:15, 9:15] = np.eye(6)
    return residual, j_i, j_j
