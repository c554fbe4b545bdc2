import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from limapper.geometry import (
    _SMALL_ANGLE,
    Rotation,
    Se3Pose,
    SensorState,
    pose_compose,
    pose_inverse,
    pose_local,
    pose_retract,
    so3_exp,
    so3_exp_jacobian_batch,
    so3_hat,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
    state_local,
    state_retract,
)


def slerp(a: Rotation, b: Rotation, alpha: float) -> Rotation:
    """Geodesic interpolation ``a exp(alpha log(a^-1 b))``: a at alpha 0,
    b at alpha 1, along the shorter arc.  An oracle of the tests."""
    return a * so3_exp(alpha * so3_log(a.inverse() * b))


def pose_apply(a: Se3Pose, p) -> np.ndarray:
    """Transform one point or an (n, 3) array of points."""
    return a.rotation.apply(p) + a.translation


def identity_pose() -> Se3Pose:
    """The identity transform."""
    return Se3Pose(Rotation.identity(), np.zeros(3))


def pose_matrix(a: Se3Pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = a.rotation.matrix()
    m[:3, 3] = a.translation
    return m


def zero_state(stamp: float = 0.0) -> SensorState:
    """The state at the identity pose, at rest and without bias."""
    return SensorState(identity_pose(), np.zeros(3), np.zeros(3), np.zeros(3), stamp)


def rotation_angle(a: Rotation, b: Rotation) -> float:
    """Angle of the rotation a^-1 b, in radians.  An oracle of the tests."""
    return float(np.linalg.norm(so3_log(a.inverse() * b)))


def random_rotation(rng):
    return so3_exp(rng.uniform(-np.pi + 1e-2, np.pi - 1e-2, 3) * rng.uniform(0, 1))


def random_pose(rng, scale=5.0):
    return Se3Pose(random_rotation(rng), rng.uniform(-scale, scale, 3))


def vectors(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


# rotation vectors up to 1.85 per axis reach past pi; the tests keep those
# below pi - 1e-3, where the logarithm is unique
rotvecs = vectors(3, 1.85)


class TestSo3:
    def test_exp_zero_is_identity(self):
        r = so3_exp(np.zeros(3))
        assert np.allclose(r.matrix(), np.eye(3))

    def test_exp_quarter_turn_about_z(self):
        r = so3_exp([0.0, 0.0, np.pi / 2])
        assert np.allclose(r.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_exp_inverse_symmetry(self):
        w = np.array([0.3, -0.2, 0.1])
        r = so3_exp(w) * so3_exp(-w)
        assert np.allclose(r.matrix(), np.eye(3), atol=1e-12)

    def test_log_identity(self):
        assert np.allclose(so3_log(Rotation.identity()), np.zeros(3))

    def test_log_exp_round_trip(self):
        w = np.array([0.1, 0.2, 0.3])
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-9)

    def test_log_pi_rotation_about_x(self):
        # rotation by pi about x built directly as a matrix
        m = np.diag([1.0, -1.0, -1.0])
        w = so3_log(Rotation.from_matrix(m))
        assert np.allclose(np.abs(w), [np.pi, 0.0, 0.0], atol=1e-7)
        assert np.allclose(so3_exp(w).matrix(), m, atol=1e-9)

    def test_round_trip_up_to_pi(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            w = axis * rng.uniform(0.0, np.pi - 1e-3)
            assert np.linalg.norm(so3_log(so3_exp(w)) - w) < 1e-9

    def test_rotation_matrix_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_rotation(rng).matrix()
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(m) - 1.0) < 1e-9

    def test_orthonormality_drift_many_compositions(self):
        # long chains of compositions must not accumulate drift
        rng = np.random.default_rng(11)
        increments = [so3_exp(rng.normal(scale=0.5, size=3)) for _ in range(1000)]
        r = Rotation.identity()
        for _ in range(1000):
            for inc in increments:
                r = r * inc
        m = r.matrix()
        assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-6

    def test_right_jacobian_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = rng.normal(scale=0.8, size=3)
            d = rng.normal(scale=1e-6, size=3)
            lhs = so3_exp(phi + d)
            rhs = so3_exp(phi) * so3_exp(so3_right_jacobian(phi) @ d)
            assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-11)
            jj = so3_right_jacobian(phi) @ so3_right_jacobian_inv(phi)
            assert np.allclose(jj, np.eye(3), atol=1e-9)


def quat_product(q1, q2):
    """Hamilton product of two (x, y, z, w) quaternions."""
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return np.array([
        w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
        w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
        w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
    ])


class TestRepresentation:
    """The rotation is its matrix; quaternions only enter and leave."""

    def test_composition_order_matches_the_quaternion_product(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q1, q2 = rng.normal(size=4), rng.normal(size=4)
            got = (Rotation(q1) * Rotation(q2)).matrix()
            want = Rotation(quat_product(q1, q2)).matrix()
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)
            swapped = Rotation(quat_product(q2, q1)).matrix()
            assert not np.allclose(got, swapped, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("branch", ["trace", "x", "y", "z", "random"])
    def test_quat_returns_the_normalized_quaternion_up_to_sign(self, branch):
        # a large axis component sends Shepperd's method down its branch
        rng = np.random.default_rng(14)
        for _ in range(50):
            q = rng.normal(size=4)
            if branch != "random":
                q[:3] *= 0.1
                q[{"x": 0, "y": 1, "z": 2, "trace": 3}[branch]] = 2.0
            unit = q / np.linalg.norm(q)
            got = Rotation(q).quat
            assert abs(np.linalg.norm(got) - 1.0) <= 1e-15
            assert np.max(np.abs(got - np.sign(got @ unit) * unit)) <= 1e-15

    def test_exp_continuous_across_the_small_angle_series(self):
        # on both sides of the branch the matrix equals its second-order
        # series to two ulp of 1, so the branches meet to rounding
        rng = np.random.default_rng(15)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            for side in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
                k = so3_hat(axis * _SMALL_ANGLE * side)
                got = so3_exp(axis * _SMALL_ANGLE * side).matrix()
                assert np.allclose(got, np.eye(3) + k + 0.5 * k @ k,
                                   rtol=0.0, atol=4.5e-16)
        # and from 1e-10 to pi it is the matrix of the half-angle quaternion
        for angle in np.logspace(-10, np.log10(np.pi), 200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            quat = np.r_[np.sin(angle / 2) * axis, np.cos(angle / 2)]
            assert np.allclose(so3_exp(axis * angle).matrix(), Rotation(quat).matrix(),
                               rtol=0.0, atol=1e-15)

    def test_right_jacobians_equal_the_matrix_formulas(self):
        # written out on floats, Jr and its inverse are the matrix formulas
        # I - a K + b K^2 and I + K/2 + c K^2, on both sides of the
        # small-angle branch and up to pi; the batched exp and Jr equal
        # so3_exp and Jr row by row
        def jr_matrix(phi):
            t2 = float(phi @ phi)
            k = so3_hat(phi)
            if t2 < _SMALL_ANGLE**2:
                return np.eye(3) - 0.5 * k + (k @ k) / 6.0
            t = np.sqrt(t2)
            a = 2.0 * np.sin(t / 2) ** 2 / t2  # (1 - cos t) / t^2
            return np.eye(3) - a * k + (t - np.sin(t)) / (t2 * t) * (k @ k)

        def jr_inv_matrix(phi):
            t2 = float(phi @ phi)
            k = so3_hat(phi)
            if t2 < _SMALL_ANGLE**2:
                return np.eye(3) + 0.5 * k + (k @ k) / 12.0
            t = np.sqrt(t2)
            c = (1.0 / t2 if abs(np.sin(t)) < 1e-9
                 else 1.0 / t2 - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))
            return np.eye(3) + 0.5 * k + c * (k @ k)

        rng = np.random.default_rng(17)
        angles = np.r_[0.0, _SMALL_ANGLE * np.array([1e-3, 1.0 - 1e-6, 1.0, 1.0 + 1e-6]),
                       np.logspace(-7, np.log10(np.pi), 60),
                       np.pi - np.array([1e-4, 1e-6, 1e-10])]
        phis = []
        for angle in angles:
            axis = rng.normal(size=3)
            phis.append(axis / np.linalg.norm(axis) * angle)
        exp_rows, jr_rows = so3_exp_jacobian_batch(np.array(phis))
        for phi, exp_row, jr_row in zip(phis, exp_rows, jr_rows):
            jr = so3_right_jacobian(phi)
            assert np.allclose(jr, jr_matrix(phi), rtol=0.0, atol=1e-15)
            assert np.allclose(so3_right_jacobian_inv(phi), jr_inv_matrix(phi),
                               rtol=0.0, atol=1e-15)
            assert np.allclose(jr_row, jr, rtol=0.0, atol=1e-15)
            assert np.allclose(exp_row, so3_exp(phi).matrix(), rtol=0.0, atol=1e-15)

    def test_from_matrix_keeps_the_matrix_as_given(self):
        rng = np.random.default_rng(16)
        m = random_rotation(rng).matrix() + rng.normal(scale=1e-13, size=(3, 3))
        assert Rotation.from_matrix(m).matrix().tobytes() == m.tobytes()


class TestSe3:
    def test_compose_identity(self):
        rng = np.random.default_rng(0)
        x = random_pose(rng)
        y = pose_compose(identity_pose(), x)
        assert np.allclose(pose_matrix(y), pose_matrix(x), atol=1e-12)

    def test_double_inverse(self):
        rng = np.random.default_rng(1)
        x = random_pose(rng)
        assert np.allclose(pose_matrix(pose_inverse(pose_inverse(x))), pose_matrix(x),
                           atol=1e-9)

    def test_inverse_of_composition(self):
        rng = np.random.default_rng(2)
        a, b = random_pose(rng), random_pose(rng)
        lhs = pose_inverse(pose_compose(a, b))
        rhs = pose_compose(pose_inverse(b), pose_inverse(a))
        assert np.allclose(pose_matrix(lhs), pose_matrix(rhs), atol=1e-9)

    def test_apply_hand_example(self):
        t = Se3Pose(so3_exp([0.0, 0.0, np.pi / 2]), [1.0, 0.0, 0.0])
        assert np.allclose(pose_apply(t, [1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)

    def test_group_action_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_pose(rng), random_pose(rng)
            p = rng.normal(size=3)
            lhs = pose_apply(pose_compose(a, b), p)
            rhs = pose_apply(a, pose_apply(b, p))
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_apply_batched_matches_scalar(self):
        rng = np.random.default_rng(6)
        t = random_pose(rng)
        pts = rng.normal(size=(17, 3))
        batched = pose_apply(t, pts)
        for i in range(len(pts)):
            assert np.allclose(batched[i], pose_apply(t, pts[i]), atol=1e-12)


class TestInterpolation:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(8)
        a, b = random_rotation(rng), random_rotation(rng)
        assert slerp(a, b, 0.0).matrix().tobytes() == a.matrix().tobytes()
        assert np.allclose(slerp(a, b, 1.0).matrix(), b.matrix(), rtol=0.0, atol=1e-15)

    def test_halfway_hand_example(self):
        a = Rotation.identity()
        b = so3_exp([0.0, 0.0, np.pi - 1e-9])
        mid = slerp(a, b, 0.5)
        assert np.allclose(so3_log(mid), [0.0, 0.0, np.pi / 2], atol=1e-6)

    def test_shortest_arc(self):
        a = so3_exp([0.0, 0.0, -0.2])
        b = so3_exp([0.0, 0.0, 0.2])
        mid = slerp(a, b, 0.5)
        assert np.linalg.norm(so3_log(mid)) < 1e-9


class TestRetractions:
    def test_pose_retract_local_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = random_pose(rng)
            xi = rng.normal(scale=0.5, size=6)
            y = pose_retract(x, xi)
            assert np.allclose(pose_local(y, x), xi, atol=1e-9)

    def test_state_retract_local_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = SensorState(
                pose=random_pose(rng),
                velocity=rng.normal(size=3),
                bias_accel=rng.normal(scale=0.1, size=3),
                bias_gyro=rng.normal(scale=0.05, size=3),
                stamp=1.0,
            )
            xi = rng.normal(scale=0.3, size=15)
            y = state_retract(x, xi)
            assert np.allclose(state_local(y, x), xi, atol=1e-9)

    def test_hat_is_cross_product(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(so3_hat(a) @ b, np.cross(a, b))


class TestRetractionProperties:
    @given(rot=rotvecs, trans=vectors(3, 20.0), phi=rotvecs, rho=vectors(3, 5.0))
    def test_pose_local_inverts_retract(self, rot, trans, phi, rho):
        assume(np.linalg.norm(phi) < np.pi - 1e-3)
        p = Se3Pose(so3_exp(rot), trans)
        xi = np.concatenate([phi, rho])
        assert np.abs(pose_local(pose_retract(p, xi), p) - xi).max() <= 1e-9

    @given(rot=rotvecs, rest=vectors(12, 5.0), phi=rotvecs, delta=vectors(12, 5.0))
    def test_state_local_inverts_retract(self, rot, rest, phi, delta):
        assume(np.linalg.norm(phi) < np.pi - 1e-3)
        s = SensorState(pose=Se3Pose(so3_exp(rot), rest[:3]), velocity=rest[3:6],
                        bias_accel=rest[6:9], bias_gyro=rest[9:], stamp=0.0)
        xi = np.concatenate([phi, delta])
        assert np.abs(state_local(state_retract(s, xi), s) - xi).max() <= 1e-9
