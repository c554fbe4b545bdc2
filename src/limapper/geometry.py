"""Manifold math: SO(3)/SE(3) and sensor states.

Conventions used throughout the package:

* Rotations are stored as unit quaternions ``(x, y, z, w)`` and renormalized
  after every composition.
* Poses map body-frame vectors into the world frame: ``p_w = R p_b + t``.
* Tangent vectors are ordered rotation-first.  A pose perturbation
  ``xi = (phi, rho)`` is applied right-multiplicatively,

      ``R <- R exp(phi),   t <- t + R rho``,

  and a 15-dof state perturbation is ``(phi, rho, dv, dba, dbg)`` with
  additive velocity and bias updates.  ``pose_local`` / ``state_local``
  are the exact inverses of these retractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-8


def so3_hat(v) -> np.ndarray:
    """Skew-symmetric matrix such that so3_hat(a) @ b == cross(a, b)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    # python floats: the same double arithmetic as numpy scalars, faster
    x1, y1, z1, w1 = q1.tolist()
    x2, y2, z2, w2 = q2.tolist()
    return np.array(
        [
            w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
            w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
            w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ]
    )


class Rotation:
    """Unit-quaternion rotation with a lazily cached matrix form.

    ``Rotation.with_matrix`` makes one the other way round: it keeps the
    given matrix as its matrix form and derives the quaternion only when
    one is asked for.
    """

    __slots__ = ("_q", "_m")

    def __init__(self, quat_xyzw):
        q = np.asarray(quat_xyzw, dtype=float)
        n = math.sqrt(float(q @ q))
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("quaternion must be finite and nonzero")
        self._q = q / n
        self._m = None

    @staticmethod
    def with_matrix(m: np.ndarray) -> "Rotation":
        """Rotation whose ``matrix()`` is the proper rotation matrix m as
        given; its quaternion is ``from_matrix(m)``'s, formed on first use."""
        rot = Rotation.__new__(Rotation)
        rot._q = None
        rot._m = m
        return rot

    @staticmethod
    def identity() -> "Rotation":
        return Rotation((0.0, 0.0, 0.0, 1.0))

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """Shepperd's method; robust for all proper rotation matrices."""
        m = np.asarray(m, dtype=float)
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            q = np.array(
                [(m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                 (m[1, 0] - m[0, 1]) / s, 0.25 * s]
            )
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array(
                [0.25 * s, (m[0, 1] + m[1, 0]) / s,
                 (m[0, 2] + m[2, 0]) / s, (m[2, 1] - m[1, 2]) / s]
            )
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = np.array(
                [(m[0, 1] + m[1, 0]) / s, 0.25 * s,
                 (m[1, 2] + m[2, 1]) / s, (m[0, 2] - m[2, 0]) / s]
            )
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = np.array(
                [(m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s,
                 0.25 * s, (m[1, 0] - m[0, 1]) / s]
            )
        return Rotation(q)

    @property
    def quat(self) -> np.ndarray:
        if self._q is None:
            self._q = Rotation.from_matrix(self._m)._q
        return self._q

    def matrix(self) -> np.ndarray:
        if self._m is None:
            x, y, z, w = self._q.tolist()
            xx, yy, zz = x * x, y * y, z * z
            xy, xz, yz = x * y, x * z, y * z
            wx, wy, wz = w * x, w * y, w * z
            self._m = np.array(
                [
                    [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
                    [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
                    [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
                ]
            )
        return self._m

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(_quat_mul(self.quat, other.quat))

    def __mul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        x, y, z, w = self.quat
        return Rotation((-x, -y, -z, w))

    def apply(self, v) -> np.ndarray:
        """Rotate one 3-vector or an (n, 3) array of vectors."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            ux, uy, uz, w = self.quat.tolist()
            vx, vy, vz = v.tolist()
            tx = 2.0 * (uy * vz - uz * vy)
            ty = 2.0 * (uz * vx - ux * vz)
            tz = 2.0 * (ux * vy - uy * vx)
            return np.array([
                vx + w * tx + uy * tz - uz * ty,
                vy + w * ty + uz * tx - ux * tz,
                vz + w * tz + ux * ty - uy * tx,
            ])
        return v @ self.matrix().T

    def angle_to(self, other: "Rotation") -> float:
        return float(np.linalg.norm(so3_log(self.inverse() * other)))

    def __repr__(self) -> str:
        return f"Rotation(xyzw={np.array2string(self.quat, precision=6)})"


def so3_exp(omega) -> Rotation:
    """Exponential map R^3 -> SO(3) (Rodrigues, via the quaternion form)."""
    omega = np.asarray(omega, dtype=float)
    angle = math.sqrt(float(omega @ omega))
    half = 0.5 * angle
    if angle < _SMALL_ANGLE:
        # sin(x/2)/x = 1/2 - x^2/48 + O(x^4)
        s = 0.5 - angle * angle / 48.0
        return Rotation((omega[0] * s, omega[1] * s, omega[2] * s, math.cos(half)))
    s = math.sin(half) / angle
    return Rotation((omega[0] * s, omega[1] * s, omega[2] * s, math.cos(half)))


def so3_log(rot: Rotation) -> np.ndarray:
    """Inverse of so3_exp; returns the rotation vector with angle in [0, pi].

    Extracting the axis from the quaternion vector part stays stable for
    angles near pi, where trace-based formulas lose precision.
    """
    q = rot.quat
    if q[3] < 0.0:
        q = -q
    v = q[:3]
    s = math.sqrt(float(v @ v))
    w = q[3]
    if s < _SMALL_ANGLE:
        # theta/sin(theta/2) ~ 2/w * (1 - s^2 / (3 w^2))
        return v * (2.0 / w) * (1.0 - s * s / (3.0 * w * w))
    angle = 2.0 * math.atan2(s, w)
    return v * (angle / s)


def so3_right_jacobian(phi) -> np.ndarray:
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(Jr(phi) d)."""
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    k = so3_hat(phi)
    if theta2 < _SMALL_ANGLE**2:
        return np.eye(3) - 0.5 * k + (k @ k) / 6.0
    theta = math.sqrt(theta2)
    a = (1.0 - math.cos(theta)) / theta2
    b = (theta - math.sin(theta)) / (theta2 * theta)
    return np.eye(3) - a * k + b * (k @ k)


def so3_right_jacobian_inv(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    theta2 = float(phi @ phi)
    k = so3_hat(phi)
    if theta2 < _SMALL_ANGLE**2:
        return np.eye(3) + 0.5 * k + (k @ k) / 12.0
    theta = math.sqrt(theta2)
    st = math.sin(theta)
    if abs(st) < 1e-9:
        # theta ~ pi: (1 + cos t) / (2 t sin t) -> (pi - t) / (4 t), negligible
        c = 1.0 / theta2
    else:
        c = 1.0 / theta2 - (1.0 + math.cos(theta)) / (2.0 * theta * st)
    return np.eye(3) + 0.5 * k + c * (k @ k)


class Se3Pose:
    """Rigid transform (rotation, translation); maps body to world."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float)

    @staticmethod
    def identity() -> "Se3Pose":
        return Se3Pose(Rotation.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix()
        m[:3, 3] = self.translation
        return m

    def __repr__(self) -> str:
        return f"Se3Pose(t={np.array2string(self.translation, precision=4)}, {self.rotation})"


def pose_compose(a: Se3Pose, b: Se3Pose) -> Se3Pose:
    return Se3Pose(a.rotation * b.rotation, a.rotation.apply(b.translation) + a.translation)


def pose_inverse(a: Se3Pose) -> Se3Pose:
    rinv = a.rotation.inverse()
    return Se3Pose(rinv, -rinv.apply(a.translation))


def pose_between(a: Se3Pose, b: Se3Pose) -> Se3Pose:
    """The pose of b in the frame of a, a^-1 b, formed from the two
    rotation matrices: (R_a^T R_b, R_a^T (t_b - t_a)).  It equals
    ``pose_compose(pose_inverse(a), b)`` up to rounding and builds no
    quaternion."""
    r_a = a.rotation.matrix()
    return Se3Pose(Rotation.with_matrix(r_a.T @ b.rotation.matrix()),
                   r_a.T @ (b.translation - a.translation))


def pose_apply(a: Se3Pose, p) -> np.ndarray:
    """Transform one point or an (n, 3) array of points."""
    return a.rotation.apply(p) + a.translation


def slerp(qa: Rotation, qb: Rotation, alpha: float) -> Rotation:
    """Spherical interpolation along the shortest arc."""
    q0 = qa.quat
    q1 = qb.quat.copy()
    dot = float(q0 @ q1)
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-12:
        return Rotation(q0 + alpha * (q1 - q0))
    theta = math.acos(min(dot, 1.0))
    st = math.sin(theta)
    return Rotation(
        (math.sin((1.0 - alpha) * theta) / st) * q0 + (math.sin(alpha * theta) / st) * q1
    )


def pose_interpolate(a: Se3Pose, b: Se3Pose, alpha: float) -> Se3Pose:
    """Shortest-arc rotation slerp with linear translation blending."""
    if alpha <= 0.0:
        return a
    if alpha >= 1.0:
        return b
    return Se3Pose(
        slerp(a.rotation, b.rotation, alpha),
        (1.0 - alpha) * a.translation + alpha * b.translation,
    )


def pose_retract(pose: Se3Pose, xi) -> Se3Pose:
    """Right-multiplicative update by the tangent vector xi = (phi, rho)."""
    xi = np.asarray(xi, dtype=float)
    return Se3Pose(
        pose.rotation * so3_exp(xi[:3]),
        pose.translation + pose.rotation.apply(xi[3:6]),
    )


def pose_local(pose: Se3Pose, ref: Se3Pose) -> np.ndarray:
    """Tangent vector xi with pose == pose_retract(ref, xi)."""
    phi = so3_log(ref.rotation.inverse() * pose.rotation)
    rho = ref.rotation.inverse().apply(pose.translation - ref.translation)
    return np.concatenate([phi, rho])


@dataclass(frozen=True)
class SensorState:
    """Pose, world-frame velocity, and IMU biases at one timestamp."""

    pose: Se3Pose
    velocity: np.ndarray
    bias_accel: np.ndarray
    bias_gyro: np.ndarray
    stamp: float

    @staticmethod
    def zero(stamp: float = 0.0) -> "SensorState":
        return SensorState(Se3Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(3), stamp)

    @property
    def bias(self) -> np.ndarray:
        return np.concatenate([self.bias_accel, self.bias_gyro])


def state_retract(state: SensorState, xi) -> SensorState:
    """Apply a 15-dof tangent update (phi, rho, dv, dba, dbg)."""
    xi = np.asarray(xi, dtype=float)
    return SensorState(
        pose=pose_retract(state.pose, xi[:6]),
        velocity=state.velocity + xi[6:9],
        bias_accel=state.bias_accel + xi[9:12],
        bias_gyro=state.bias_gyro + xi[12:15],
        stamp=state.stamp,
    )


def state_local(state: SensorState, ref: SensorState) -> np.ndarray:
    return np.concatenate(
        [
            pose_local(state.pose, ref.pose),
            state.velocity - ref.velocity,
            state.bias_accel - ref.bias_accel,
            state.bias_gyro - ref.bias_gyro,
        ]
    )
