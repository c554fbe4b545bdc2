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

One record, ``PreintegratedImu``, holds a preintegration, and ``stack``
makes K of them one record whose fields carry a leading axis of length K.
The deltas corrected for bias (``correct_deltas``; ``predict_state`` uses a
stack of one), the factor residual and its Jacobians are formed for such a
stack at once (``imu_residuals``, ``imu_jacobians``), with every product
one stacked ``np.matmul``; one factor's result is the same bits in any stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ImuCoverageGap, InvalidInterval, MalformedImuSample
from .geometry import (
    Rotation,
    SensorState,
    Se3Pose,
    so3_exp,
    so3_exp_jacobian_batch,
    so3_hat_batch,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

# world gravity [m/s^2], read by the estimator and by the synthetic scenes;
# it points along -z, since the bootstrap aligns the specific force with +z
GRAVITY = np.array([0.0, 0.0, -9.80665])


@dataclass(frozen=True)
class ImuSample:
    """One IMU reading, held as a float stamp and float (3,) arrays; other
    values raise MalformedImuSample, naming the field and its shape."""

    stamp: float
    accel: np.ndarray  # specific force, body frame [m/s^2]
    gyro: np.ndarray  # angular rate, body frame [rad/s]

    def __post_init__(self):
        for name, shape in (("stamp", ()), ("accel", (3,)), ("gyro", (3,))):
            try:
                value = np.asarray(getattr(self, name))
            except ValueError:  # sequences nested unevenly
                raise MalformedImuSample(f"{name} is a ragged sequence") from None
            if value.dtype.kind not in "iuf" or value.shape != shape:
                raise MalformedImuSample(
                    f"{name} of shape {value.shape} and dtype {value.dtype}; "
                    f"need real numbers of shape {shape}")
            value = value.astype(float, copy=False)
            object.__setattr__(self, name, value if shape else float(value))


@dataclass(slots=True)
class ImuNoiseParams:
    """Continuous-time noise densities and bias walks; the ``imu`` section
    of the pipeline configuration."""

    accel_noise_density: float = 0.02  # m/s^2/sqrt(Hz)
    gyro_noise_density: float = 0.002  # rad/s/sqrt(Hz)
    accel_bias_walk: float = 2e-4  # m/s^3/sqrt(Hz)
    gyro_bias_walk: float = 2e-5  # rad/s^2/sqrt(Hz)


class PreintegratedImu(NamedTuple):
    """The deltas over an interval with their noise: all an IMU factor
    reads besides ``GRAVITY``.  ``stack`` gives K of them as one record,
    each field with a leading axis of length K."""

    delta_r: np.ndarray  # 3x3 rotation matrix
    delta_v: np.ndarray
    delta_p: np.ndarray
    dt_total: float
    cov: np.ndarray  # 9x9, (rot, vel, pos)
    bias_lin: np.ndarray  # 6, (ba, bg) at the linearization point
    jac_bias: np.ndarray  # 9x6, d(deltas)/d(bias)
    walk: np.ndarray  # (6,) accel then gyro bias-walk variances over the interval


def samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    stamps = np.array([s.stamp for s in samples], dtype=float)
    accel = np.array([s.accel for s in samples], dtype=float).reshape(-1, 3)
    gyro = np.array([s.gyro for s in samples], dtype=float).reshape(-1, 3)
    return stamps, accel, gyro


def integration_nodes(samples, t0: float, t1: float, max_gap: float):
    """Sub-interval boundaries and measurements covering [t0, t1].

    Returns (stamps, accel, gyro) where stamps has m+1 entries and the i-th
    measurement row applies over [stamps[i], stamps[i+1]].  The nodes are
    t0, every sample stamp inside (t0, t1), and t1; a node at a sample's
    stamp takes that sample.  The first node, when it falls between two
    samples, takes their linear interpolation, and before the first or
    after the last sample the nearest one.  Samples must be in stamp order,
    which the estimator's IMU buffer guarantees.
    """
    if t1 <= t0:
        raise InvalidInterval(f"window [{t0}, {t1}] is empty")
    stamps, accel, gyro = samples_to_arrays(samples)
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


def integrate(samples, t0: float, t1: float, bias, max_gap: float) -> NodeDeltas:
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
                 noise: ImuNoiseParams, max_gap: float) -> PreintegratedImu:
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

    The bias-walk variances are density^2 * dt over the interval, with dt
    at least 1 ms.
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
    dt_total = float(t_j - t_i)
    walk_dt = max(dt_total, 1e-3)
    return PreintegratedImu(
        delta_r=d.rot[-1],
        delta_v=d.vel[-1],
        delta_p=d.pos[-1],
        dt_total=dt_total,
        cov=cov,
        bias_lin=bias_lin,
        jac_bias=jac,
        walk=np.repeat([noise.accel_bias_walk**2 * walk_dt,
                        noise.gyro_bias_walk**2 * walk_dt], 3),
    )


def stack(records: Sequence[NamedTuple]) -> NamedTuple:
    """K records of one NamedTuple type as one record of that type whose
    fields carry a leading axis of length K."""
    return type(records[0])(*(np.array(field) for field in zip(*records)))


def correct_deltas(pre: PreintegratedImu, bias: np.ndarray):
    """The deltas of K stacked preintegrations corrected to first order for the
    biases (K, 6), with db = bias - bias_lin: dR exp(theta), dv + J_v db and
    dp + J_p db, where theta = J_R^g db_g (K, 3, 1).  Returns (delta_r,
    delta_v, delta_p, theta); stacked products as in ``imu_residuals``."""
    db = bias - pre.bias_lin
    theta = np.matmul(pre.jac_bias[:, 0:3, 3:6], db[:, 3:, None])
    delta_r = np.matmul(pre.delta_r,
                        np.array([so3_exp(t).matrix() for t in theta[:, :, 0]]))
    delta_v = pre.delta_v + np.matmul(pre.jac_bias[:, 3:6, :], db[:, :, None])[:, :, 0]
    delta_p = pre.delta_p + np.matmul(pre.jac_bias[:, 6:9, :], db[:, :, None])[:, :, 0]
    return delta_r, delta_v, delta_p, theta


def predict_state(state: SensorState, pre: PreintegratedImu) -> SensorState:
    """Compose preintegrated deltas, corrected to the state's bias, onto a
    state, re-injecting gravity."""
    dr, dv, dp, _ = correct_deltas(stack([pre]), state.bias[None])
    dt = pre.dt_total
    r_i = state.pose.rotation
    return SensorState(
        pose=Se3Pose(r_i * Rotation.from_matrix(dr[0]),
                     state.pose.translation + state.velocity * dt
                     + 0.5 * GRAVITY * dt * dt + r_i.apply(dp[0])),
        velocity=state.velocity + GRAVITY * dt + r_i.apply(dv[0]),
        bias_accel=state.bias_accel,
        bias_gyro=state.bias_gyro,
        stamp=state.stamp + dt,
    )


class ImuResiduals(NamedTuple):
    """The residuals of K IMU factors at K state pairs, with the products
    that their Jacobians read again."""

    residual: np.ndarray  # (K, 15)
    rot_i: np.ndarray  # (K, 3, 3) R_i
    rot_j: np.ndarray  # (K, 3, 3) R_j
    err_rot: np.ndarray  # (K, 3, 3) dR^T R_i^T R_j
    rot_u_v: np.ndarray  # (K, 3, 1) R_i^T u_v
    rot_u_p: np.ndarray  # (K, 3, 1) R_i^T u_p
    theta: np.ndarray  # (K, 3, 1) gyro-bias correction of the rotation


def imu_residuals(states_i, states_j, pre: PreintegratedImu) -> ImuResiduals:
    """15-dof residuals (rot, vel, pos, accel-bias walk, gyro-bias walk) of
    K factors, factor k between states_i[k] and states_j[k] with the k-th
    of the stacked preintegrations.

    The motion rows compare the preintegrated deltas, corrected to the
    bias of state i to first order, against the state pair; the bias rows
    are the random-walk residual b_j - b_i.  Every product is one stacked
    ``np.matmul``, with vectors as (K, 3, 1) columns: it forms each slice
    with the BLAS call of the 2-D product of that factor alone, so a
    factor's residual is the same bits in any stack.  so3_exp and so3_log
    run per factor, on Python floats.
    """
    rot_i = np.array([s.pose.rotation.matrix() for s in states_i])
    rot_j = np.array([s.pose.rotation.matrix() for s in states_j])
    vel_i = np.array([s.velocity for s in states_i])
    vel_j = np.array([s.velocity for s in states_j])
    bias_i = np.array([s.bias for s in states_i])
    bias_j = np.array([s.bias for s in states_j])
    dt = pre.dt_total[:, None]
    delta_r, delta_v, delta_p, theta = correct_deltas(pre, bias_i)

    ri_t = rot_i.transpose(0, 2, 1)
    err_rot = np.matmul(delta_r.transpose(0, 2, 1), np.matmul(ri_t, rot_j))
    u_v = vel_j - vel_i - GRAVITY * dt
    u_p = (np.array([s.pose.translation for s in states_j])
           - np.array([s.pose.translation for s in states_i])
           - vel_i * dt - 0.5 * GRAVITY * dt * dt)
    rot_u_v = np.matmul(ri_t, u_v[:, :, None])
    rot_u_p = np.matmul(ri_t, u_p[:, :, None])
    residual = np.empty((rot_i.shape[0], 15))
    residual[:, 0:3] = [so3_log(Rotation.from_matrix(e)) for e in err_rot]
    residual[:, 3:6] = rot_u_v[:, :, 0] - delta_v
    residual[:, 6:9] = rot_u_p[:, :, 0] - delta_p
    residual[:, 9:15] = bias_j - bias_i
    return ImuResiduals(residual, rot_i, rot_j, err_rot, rot_u_v, rot_u_p, theta)


def imu_jacobians(res: ImuResiduals, pre: PreintegratedImu) -> np.ndarray:
    """(K, 15, 30) Jacobians of the K residuals with respect to the
    right-multiplicative retraction of state i (columns 0-14), then of
    state j (15-29); stacked products as in ``imu_residuals``."""
    k = res.residual.shape[0]
    jr_inv = np.array([so3_right_jacobian_inv(r) for r in res.residual[:, 0:3]])
    ri_t = res.rot_i.transpose(0, 2, 1)
    j_phi_g = pre.jac_bias[:, 0:3, 3:6]
    jac = np.zeros((k, 15, 30))
    # rotation rows
    jac[:, 0:3, 0:3] = np.matmul(-jr_inv, np.matmul(res.rot_j.transpose(0, 2, 1),
                                                    res.rot_i))
    jr_theta = np.array([so3_right_jacobian(t) for t in res.theta[:, :, 0]])
    jac[:, 0:3, 12:15] = np.matmul(np.matmul(np.matmul(
        -jr_inv, res.err_rot.transpose(0, 2, 1)), jr_theta), j_phi_g)
    jac[:, 0:3, 15:18] = jr_inv
    # velocity rows
    jac[:, 3:6, 0:3] = so3_hat_batch(res.rot_u_v[:, :, 0])
    jac[:, 3:6, 6:9] = -ri_t
    jac[:, 3:6, 9:15] = -pre.jac_bias[:, 3:6, :]
    jac[:, 3:6, 21:24] = ri_t
    # position rows
    jac[:, 6:9, 0:3] = so3_hat_batch(res.rot_u_p[:, :, 0])
    jac[:, 6:9, 3:6] = -np.eye(3)
    jac[:, 6:9, 6:9] = -ri_t * pre.dt_total[:, None, None]
    jac[:, 6:9, 9:15] = -pre.jac_bias[:, 6:9, :]
    jac[:, 6:9, 18:21] = np.matmul(ri_t, res.rot_j)
    # bias random-walk rows
    jac[:, 9:15, 9:15] = -np.eye(6)
    jac[:, 9:15, 24:30] = np.eye(6)
    return jac
