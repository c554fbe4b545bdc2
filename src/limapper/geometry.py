"""Manifold math: SO(3)/SE(3) and sensor states.

Conventions used throughout the package:

* A rotation is stored as its 3x3 matrix.  Composition is a matrix product
  and the inverse a transpose; nothing renormalizes the product.
  A quaternion ``(x, y, z, w)`` leaves only through ``Rotation.quat``,
  which ``so3_log`` reads.  The quaternion constructor ``Rotation(q)`` is
  no caller's input: it stays as the tests' reference for the matrix
  arithmetic.
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


class Rotation:
    """Rotation in SO(3), held as its 3x3 matrix and nothing else.

    ``from_matrix`` keeps a matrix as given.  ``Rotation(quat_xyzw)``
    builds the matrix of a finite, nonzero quaternion, normalized first;
    only the tests construct one so, as the reference of the products.
    """

    __slots__ = ("_m",)

    def __init__(self, quat_xyzw):
        q = np.asarray(quat_xyzw, dtype=float)
        n = math.sqrt(float(q @ q))
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("quaternion must be finite and nonzero")
        # python floats: the same double arithmetic as numpy scalars, faster
        x, y, z, w = (q / n).tolist()
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

    @staticmethod
    def identity() -> "Rotation":
        return Rotation.from_matrix(np.eye(3))

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """The rotation whose matrix is m, kept as given; m must be a
        proper rotation matrix."""
        rot = Rotation.__new__(Rotation)
        rot._m = np.asarray(m, dtype=float)
        return rot

    @property
    def quat(self) -> np.ndarray:
        """Unit quaternion (x, y, z, w) by Shepperd's method, which is
        robust for all proper rotation matrices; its sign is arbitrary."""
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self._m.tolist()
        tr = m00 + m11 + m22
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            q = np.array([(m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s,
                          0.25 * s])
        elif m00 >= m11 and m00 >= m22:
            s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
            q = np.array([0.25 * s, (m01 + m10) / s, (m02 + m20) / s,
                          (m21 - m12) / s])
        elif m11 >= m22:
            s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
            q = np.array([(m01 + m10) / s, 0.25 * s, (m12 + m21) / s,
                          (m02 - m20) / s])
        else:
            s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
            q = np.array([(m02 + m20) / s, (m12 + m21) / s, 0.25 * s,
                          (m10 - m01) / s])
        return q / math.sqrt(float(q @ q))

    def matrix(self) -> np.ndarray:
        return self._m

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation.from_matrix(self._m @ other._m)

    def inverse(self) -> "Rotation":
        return Rotation.from_matrix(self._m.T)

    def apply(self, v) -> np.ndarray:
        """Rotate one 3-vector or an (n, 3) array of vectors."""
        return np.asarray(v, dtype=float) @ self._m.T

    def __repr__(self) -> str:
        return f"Rotation(xyzw={np.array2string(self.quat, precision=6)})"


def _rodrigues_entries(x, y, z, a, b) -> list:
    """Row-major entries of ``I + a K + b K^2`` with ``K = hat((x, y, z))``,
    written out on Python floats."""
    xx, yy, zz = x * x, y * y, z * z
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return [1.0 - b * (yy + zz), bxy - az, bxz + ay,
            bxy + az, 1.0 - b * (xx + zz), byz - ax,
            bxz - ay, byz + ax, 1.0 - b * (xx + yy)]


def so3_exp(omega) -> Rotation:
    """Exponential map R^3 -> SO(3) by Rodrigues' formula,
    ``I + a K + b K^2`` with ``K = hat(omega)``, ``a = sin(t) / t`` and
    ``b = (1 - cos t) / t^2``; below _SMALL_ANGLE a and b are their series."""
    x, y, z = np.asarray(omega, dtype=float).tolist()
    t2 = x * x + y * y + z * z
    if t2 < _SMALL_ANGLE * _SMALL_ANGLE:
        a = 1.0 - t2 / 6.0
        b = 0.5 - t2 / 24.0
    else:
        t = math.sqrt(t2)
        h = math.sin(0.5 * t)
        a = math.sin(t) / t
        b = 2.0 * h * h / t2  # 1 - cos t without the cancellation
    return Rotation.from_matrix(np.array(_rodrigues_entries(x, y, z, a, b)).reshape(3, 3))


def rodrigues_coefficients(t2: np.ndarray):
    """so3_exp's coefficients ``(a, b)`` for an array of squared angles,
    formed as so3_exp forms them."""
    small = t2 < _SMALL_ANGLE * _SMALL_ANGLE
    safe = np.where(small, 1.0, t2)
    t = np.sqrt(safe)
    h = np.sin(0.5 * t)
    return (np.where(small, 1.0 - t2 / 6.0, np.sin(t) / t),
            np.where(small, 0.5 - t2 / 24.0, 2.0 * h * h / safe))


def so3_hat_batch(v: np.ndarray) -> np.ndarray:
    """so3_hat of every row of an (m, 3) array, as (m, 3, 3)."""
    hat = np.zeros((v.shape[0], 9))
    hat[:, [7, 2, 3]] = v  # the entries that are +x, +y, +z
    hat[:, [5, 6, 1]] = -v
    return hat.reshape(-1, 3, 3)


def so3_exp_jacobian_batch(phi: np.ndarray):
    """so3_exp and so3_right_jacobian of every row of an (m, 3) array, as
    two (m, 3, 3) arrays ``I + a K + b K^2`` and ``I - b K + c K^2``.

    They share ``K = hat(phi_k)``, ``K^2`` and so3_exp's coefficient
    ``b = (1 - cos t) / t^2``; ``c = (t - sin t) / t^3`` is formed as
    ``(1 - a) / t^2`` from so3_exp's ``a = sin(t) / t``, whose rounding
    moves c K^2 by under 2e-16.
    """
    t2 = np.einsum("ij,ij->i", phi, phi)
    a, b = rodrigues_coefficients(t2)
    small = t2 < _SMALL_ANGLE**2
    c = np.where(small, 1.0 / 6.0, (1.0 - a) / np.where(small, 1.0, t2))
    k = so3_hat_batch(phi)
    k2 = k @ k
    a, b, c = a[:, None, None], b[:, None, None], c[:, None, None]
    eye = np.eye(3)
    return eye + a * k + b * k2, eye - b * k + c * k2


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
    """Right Jacobian of SO(3): exp(phi + d) ~ exp(phi) exp(Jr(phi) d).

    ``Jr = I - a K + b K^2`` with ``K = hat(phi)``, ``a = (1 - cos t) / t^2``
    and ``b = (t - sin t) / t^3``; below _SMALL_ANGLE a = 1/2 and b = 1/6.
    a is formed as so3_exp forms its b, without the cancellation of
    1 - cos t, which costs up to 1e-15 in Jr near t = 0.1.
    """
    x, y, z = np.asarray(phi, dtype=float).tolist()
    t2 = x * x + y * y + z * z
    if t2 < _SMALL_ANGLE**2:
        a, b = 0.5, 1.0 / 6.0
    else:
        t = math.sqrt(t2)
        h = math.sin(0.5 * t)
        a = 2.0 * h * h / t2
        b = (t - math.sin(t)) / (t2 * t)
    return np.array(_rodrigues_entries(x, y, z, -a, b)).reshape(3, 3)


def so3_right_jacobian_inv(phi) -> np.ndarray:
    """Inverse of so3_right_jacobian: ``I + K / 2 + c K^2`` with
    ``c = 1 / t^2 - (1 + cos t) / (2 t sin t)``; below _SMALL_ANGLE
    c = 1/12."""
    x, y, z = np.asarray(phi, dtype=float).tolist()
    t2 = x * x + y * y + z * z
    if t2 < _SMALL_ANGLE**2:
        c = 1.0 / 12.0
    else:
        t = math.sqrt(t2)
        st = math.sin(t)
        if abs(st) < 1e-9:
            # t ~ pi: (1 + cos t) / (2 t sin t) -> (pi - t) / (4 t), negligible
            c = 1.0 / t2
        else:
            c = 1.0 / t2 - (1.0 + math.cos(t)) / (2.0 * t * st)
    return np.array(_rodrigues_entries(x, y, z, 0.5, c)).reshape(3, 3)


class Se3Pose:
    """Rigid transform (rotation, translation); maps body to world."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float)

    def __repr__(self) -> str:
        return f"Se3Pose(t={np.array2string(self.translation, precision=4)}, {self.rotation})"


def pose_compose(a: Se3Pose, b: Se3Pose) -> Se3Pose:
    return Se3Pose(a.rotation * b.rotation, a.rotation.apply(b.translation) + a.translation)


def pose_inverse(a: Se3Pose) -> Se3Pose:
    rinv = a.rotation.inverse()
    return Se3Pose(rinv, -rinv.apply(a.translation))


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
