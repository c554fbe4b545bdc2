import numpy as np
import pytest

from limapper.errors import (
    ImuCoverageGap,
    InvalidInterval,
    MalformedImuSample,
    PipelineError,
)
from limapper.geometry import (
    Se3Pose,
    SensorState,
    so3_exp,
    so3_hat,
    so3_log,
    so3_right_jacobian,
    state_retract,
)
from limapper.imu import (
    GRAVITY,
    ImuNoiseParams,
    ImuSample,
    correct_for_bias,
    imu_factor_residual,
    integration_nodes,
    preintegrate,
    predict_state,
    samples_to_arrays,
)

from test_geometry import rotation_angle

NOISE = ImuNoiseParams()


def propagate_state(state: SensorState, sample: ImuSample, dt: float,
                    gravity=GRAVITY) -> SensorState:
    """Oracle: one Euler step of the IMU state evolution.

    The rotation and velocity on the right-hand sides are the pre-update
    values, so repeated calls reproduce the discrete evolution that
    preintegration sums in closed form.
    """
    if dt <= 0.0:
        raise InvalidInterval(f"dt must be positive, got {dt}")
    gravity = np.asarray(gravity, dtype=float)
    r = state.pose.rotation
    omega = np.asarray(sample.gyro, dtype=float) - state.bias_gyro
    accel = np.asarray(sample.accel, dtype=float) - state.bias_accel
    acc_world = r.apply(accel)
    new_r = r * so3_exp(omega * dt)
    new_v = state.velocity + gravity * dt + acc_world * dt
    new_t = (state.pose.translation + state.velocity * dt
             + 0.5 * gravity * dt * dt + 0.5 * acc_world * dt * dt)
    return SensorState(
        pose=Se3Pose(new_r, new_t),
        velocity=new_v,
        bias_accel=state.bias_accel,
        bias_gyro=state.bias_gyro,
        stamp=state.stamp + dt,
    )


def nodes_oracle(samples, t0, t1):
    """Oracle of integration_nodes' measurements: each node takes the sample
    at its stamp, else the interpolation of the samples around it, else the
    nearest sample, found one node at a time."""
    stamps, accel, gyro = samples_to_arrays(samples)
    node_t = np.concatenate([[t0], stamps[(stamps > t0) & (stamps < t1)], [t1]])
    node_a, node_g = [], []
    for t in node_t[:-1]:
        hit = np.flatnonzero(stamps == t)
        i = int(np.searchsorted(stamps, t, side="right")) - 1
        if hit.size:
            node_a.append(accel[hit[0]])
            node_g.append(gyro[hit[0]])
        elif i < 0 or i >= stamps.size - 1:
            node_a.append(accel[max(i, 0)])
            node_g.append(gyro[max(i, 0)])
        else:
            w = (t - stamps[i]) / (stamps[i + 1] - stamps[i])
            node_a.append(accel[i] + w * (accel[i + 1] - accel[i]))
            node_g.append(gyro[i] + w * (gyro[i + 1] - gyro[i]))
    return node_t, np.array(node_a), np.array(node_g)


def preintegrate_oracle(samples, t_i, t_j, bias, noise=NOISE, max_gap=0.02):
    """Oracle: deltas, covariance and bias Jacobian by the per-step
    recursion (delta_r, delta_v, delta_p, cov, jac_bias)."""
    node_t, node_a, node_g = integration_nodes(samples, t_i, t_j, max_gap)
    ba, bg = bias[:3], bias[3:]
    delta_r = np.eye(3)
    delta_v = np.zeros(3)
    delta_p = np.zeros(3)
    cov = np.zeros((9, 9))
    jac = np.zeros((9, 6))
    sg2 = noise.gyro_noise_density**2
    sa2 = noise.accel_noise_density**2
    for k in range(node_t.size - 1):
        dt = float(node_t[k + 1] - node_t[k])
        omega = node_g[k] - bg
        acc = node_a[k] - ba
        rmat = delta_r
        step = so3_exp(omega * dt).matrix()
        jr = so3_right_jacobian(omega * dt)
        r_acc_hat = rmat @ so3_hat(acc)

        # covariance: P <- A P A^T + B Q B^T, Q the discretized densities
        a_mat = np.eye(9)
        a_mat[0:3, 0:3] = step.T
        a_mat[3:6, 0:3] = -r_acc_hat * dt
        a_mat[6:9, 0:3] = -0.5 * r_acc_hat * dt * dt
        a_mat[6:9, 3:6] = np.eye(3) * dt
        cov = a_mat @ cov @ a_mat.T
        cov[0:3, 0:3] += (jr @ jr.T) * (sg2 * dt)
        rrt = rmat @ rmat.T
        cov[3:6, 3:6] += rrt * (sa2 * dt)
        cov[6:9, 6:9] += rrt * (0.25 * sa2 * dt**3)
        cov[3:6, 6:9] += rrt * (0.5 * sa2 * dt**2)
        cov[6:9, 3:6] += rrt * (0.5 * sa2 * dt**2)

        # bias Jacobians; position first so the velocity rows are pre-update
        j_phi_g = jac[0:3, 3:6]
        jac[6:9, 0:3] = jac[6:9, 0:3] + jac[3:6, 0:3] * dt - 0.5 * rmat * dt * dt
        jac[6:9, 3:6] = (jac[6:9, 3:6] + jac[3:6, 3:6] * dt
                         - 0.5 * r_acc_hat @ j_phi_g * dt * dt)
        jac[3:6, 0:3] = jac[3:6, 0:3] - rmat * dt
        jac[3:6, 3:6] = jac[3:6, 3:6] - r_acc_hat @ j_phi_g * dt
        jac[0:3, 3:6] = step.T @ j_phi_g - jr * dt

        acc_rot = rmat @ acc
        delta_p = delta_p + delta_v * dt + 0.5 * acc_rot * dt * dt
        delta_v = delta_v + acc_rot * dt
        delta_r = delta_r @ step
    return delta_r, delta_v, delta_p, 0.5 * (cov + cov.T), jac


def stepwise_deltas(samples, t_i, t_j, bias):
    """Oracle: deltas by propagate_state over integration_nodes' nodes,
    from the identity without gravity (rotation vector, velocity, position
    are then the deltas)."""
    node_t, node_a, node_g = integration_nodes(samples, t_i, t_j)
    state = SensorState(Se3Pose.identity(), np.zeros(3), bias[:3], bias[3:], t_i)
    for k in range(node_t.size - 1):
        state = propagate_state(state, ImuSample(node_t[k], node_a[k], node_g[k]),
                                node_t[k + 1] - node_t[k], gravity=np.zeros(3))
    return state.pose.rotation, state.velocity, state.pose.translation


def irregular_samples(rng, t0=0.0, t1=0.3, max_gap=0.02):
    """Samples at random rates with gaps up to max_gap, random readings."""
    stamps = [t0 - rng.uniform(0.0, max_gap)]
    while stamps[-1] < t1:
        stamps.append(stamps[-1] + rng.uniform(1e-4, max_gap) * rng.choice([0.1, 0.5, 1.0]))
    rate = rng.uniform(0.1, 4.0)
    return [ImuSample(float(t), rng.normal(size=3) * 3.0 - GRAVITY,
                      rng.normal(size=3) * rate) for t in stamps]


def make_samples(rng, n, rate=200.0, accel_scale=1.0, gyro_scale=0.5, t0=0.0):
    """Smooth-ish random signals sampled at a fixed rate."""
    stamps = t0 + np.arange(n) / rate
    phase = rng.uniform(0, 2 * np.pi, (2, 3))
    freq = rng.uniform(0.2, 2.0, (2, 3))
    amp_a = rng.uniform(-accel_scale, accel_scale, 3)
    amp_g = rng.uniform(-gyro_scale, gyro_scale, 3)
    samples = []
    for t in stamps:
        a = amp_a * np.sin(2 * np.pi * freq[0] * t + phase[0]) - GRAVITY
        g = amp_g * np.sin(2 * np.pi * freq[1] * t + phase[1])
        samples.append(ImuSample(float(t), a, g))
    return samples


def propagate_through(state, samples, gravity=GRAVITY):
    """Step-by-step oracle: drive propagate_state across the sample list."""
    for k in range(len(samples) - 1):
        dt = samples[k + 1].stamp - samples[k].stamp
        state = propagate_state(state, samples[k], dt, gravity)
    return state


def random_state(rng, stamp=0.0, bias_scale=0.05):
    return SensorState(
        pose=Se3Pose(so3_exp(rng.uniform(-1.5, 1.5, 3)), rng.uniform(-5, 5, 3)),
        velocity=rng.uniform(-2, 2, 3),
        bias_accel=rng.uniform(-bias_scale, bias_scale, 3),
        bias_gyro=rng.uniform(-bias_scale, bias_scale, 3),
        stamp=stamp,
    )


class TestImuSample:
    def test_valid_values_become_floats(self):
        accel = np.array([0.1, 0.2, 9.8])
        s = ImuSample(np.float64(1.5), accel, [0, 0, 1])
        assert type(s.stamp) is float and s.stamp == 1.5
        assert s.accel is accel  # a float (3,) array is kept as it is
        assert s.gyro.dtype == np.float64 and s.gyro.tolist() == [0.0, 0.0, 1.0]
        assert type(ImuSample(2, accel, accel).stamp) is float

    # each of these once reached process_frame and raised a raw ValueError or
    # TypeError from finite_samples or the IMU buffer
    @pytest.mark.parametrize("stamp, accel, gyro, match", [
        (1.05, [0.0, 9.8], [0.0, 0.0, 0.1], r"accel of shape \(2,\)"),
        (1.05, [0.0, 0.0, 9.8], 0.1, r"gyro of shape \(\)"),
        ("1.05", [0.0, 0.0, 9.8], [0.0, 0.0, 0.1], r"stamp of shape \(\) and dtype <U4"),
        (1.05, [[0.0], [0.0], [9.8]], [0.0, 0.0, 0.1], r"accel of shape \(3, 1\)"),
        (1.05, [0.0, 9.8], [0.0, 0.1], r"accel of shape \(2,\)"),
        (None, [0.0, 0.0, 9.8], [0.0, 0.0, 0.1], r"stamp of shape \(\) and dtype object"),
        (1.05, [0.0, [0.0], 9.8], [0.0, 0.0, 0.1], "accel is a ragged sequence"),
        (1.05, [0.0, 0.0, 9.8], [True, False, True], r"gyro of .* dtype bool"),
    ])
    def test_malformed_value_raises_naming_the_field(self, stamp, accel, gyro, match):
        assert issubclass(MalformedImuSample, PipelineError)
        with pytest.raises(MalformedImuSample, match=match):
            ImuSample(stamp, accel, gyro)

    def test_batch_of_short_samples_stops_at_the_first(self):
        # 21 samples with 2-entry accels once passed finite_samples as 18
        # rows of 7 values, which dropped 3 of them without a word
        built = []
        with pytest.raises(MalformedImuSample, match="accel"):
            for k in range(21):
                built.append(ImuSample(0.005 * k, [0.0, 9.8], [0.0, 0.0, 0.0]))
        assert built == []


class TestPropagateState:
    def test_level_stationary_gravity_cancels(self):
        state = SensorState.zero()
        sample = ImuSample(0.0, np.array([0.0, 0.0, 9.80665]), np.zeros(3))
        out = propagate_state(state, sample, 0.01)
        assert np.allclose(out.velocity, 0.0, atol=1e-12)
        assert np.allclose(out.pose.translation, 0.0, atol=1e-12)

    def test_free_fall(self):
        state = SensorState.zero()
        sample = ImuSample(0.0, np.zeros(3), np.zeros(3))
        out = propagate_state(state, sample, 1.0)
        assert np.allclose(out.velocity, GRAVITY)
        assert np.allclose(out.pose.translation, 0.5 * GRAVITY)

    def test_constant_yaw_rate(self):
        state = SensorState.zero()
        sample = ImuSample(0.0, np.zeros(3), np.array([0.0, 0.0, np.pi / 2]))
        out = propagate_state(state, sample, 1.0, gravity=np.zeros(3))
        assert np.allclose(out.pose.rotation.apply([1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_bias_subtracted(self):
        state = SensorState(Se3Pose.identity(), np.zeros(3),
                            np.array([0.1, 0, 0]), np.array([0, 0, 0.2]), 0.0)
        sample = ImuSample(0.0, np.array([0.1, 0.0, 9.80665]), np.array([0.0, 0.0, 0.2]))
        out = propagate_state(state, sample, 0.5)
        assert np.allclose(out.velocity, 0.0, atol=1e-12)
        assert np.allclose(so3_log(out.pose.rotation), 0.0, atol=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidInterval):
            propagate_state(SensorState.zero(), ImuSample(0.0, np.zeros(3), np.zeros(3)), 0.0)


class TestPreintegrate:
    def test_zero_readings_zero_deltas(self):
        samples = [ImuSample(t, np.zeros(3), np.zeros(3)) for t in np.linspace(0, 1, 101)]
        pre = preintegrate(samples, 0.0, 1.0, np.zeros(6), NOISE)
        assert np.allclose(pre.delta_r.matrix(), np.eye(3))
        assert np.allclose(pre.delta_v, 0.0)
        assert np.allclose(pre.delta_p, 0.0)
        assert pre.dt_total == 1.0

    def test_matches_step_by_step_propagation(self):
        # central correctness property: composing the preintegrated deltas
        # onto any initial state reproduces the per-sample propagation
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(20, 200)
            samples = make_samples(rng, n)
            bias = rng.uniform(-0.05, 0.05, 6)
            pre = preintegrate(samples, samples[0].stamp, samples[-1].stamp, bias, NOISE)
            state0 = random_state(rng)
            state0 = SensorState(state0.pose, state0.velocity, bias[:3], bias[3:], 0.0)
            oracle = propagate_through(state0, samples)
            predicted = predict_state(state0, pre)
            scale = max(1.0, np.linalg.norm(oracle.pose.translation))
            assert np.linalg.norm(
                predicted.pose.translation - oracle.pose.translation) < 1e-9 * scale
            assert np.linalg.norm(predicted.velocity - oracle.velocity) < 1e-9 * max(
                1.0, np.linalg.norm(oracle.velocity))
            assert rotation_angle(predicted.pose.rotation, oracle.pose.rotation) < 1e-9

    def test_richardson_step_refinement(self):
        # Euler integration converges at O(dt) on a smooth signal
        rng = np.random.default_rng(3)

        def integrate(rate):
            samples = make_samples(np.random.default_rng(3), int(rate) + 1, rate=rate)
            return preintegrate(samples, 0.0, 1.0, np.zeros(6), NOISE)

        fine = integrate(20000.0)
        err_coarse = np.linalg.norm(integrate(100.0).delta_p - fine.delta_p)
        err_half = np.linalg.norm(integrate(200.0).delta_p - fine.delta_p)
        assert err_half < 0.75 * err_coarse

    def test_boundary_interpolation(self):
        # windows cutting between samples use interpolated edge measurements
        samples = [ImuSample(t, np.array([np.sin(3 * t), 0, 9.8]),
                             np.array([0, 0, np.cos(2 * t)]))
                   for t in np.arange(0.0, 1.01, 0.01)]
        pre = preintegrate(samples, 0.123, 0.877, np.zeros(6), NOISE)
        assert pre.dt_total == pytest.approx(0.754)
        left = preintegrate(samples, 0.123, 0.5, np.zeros(6), NOISE)
        assert left.dt_total == pytest.approx(0.377)

    def test_coverage_gap_raises(self):
        samples = [ImuSample(t, np.zeros(3), np.zeros(3))
                   for t in [0.0, 0.005, 0.01, 0.2, 0.205, 0.3]]
        with pytest.raises(ImuCoverageGap):
            preintegrate(samples, 0.0, 0.3, np.zeros(6), NOISE)

    def test_invalid_interval_raises(self):
        samples = [ImuSample(t, np.zeros(3), np.zeros(3)) for t in np.linspace(0, 1, 11)]
        with pytest.raises(InvalidInterval):
            preintegrate(samples, 0.5, 0.5, np.zeros(6), NOISE)

    def test_nodes_equal_per_node_interpolation(self):
        # integration_nodes finds every node's measurement in one pass; the
        # result is the per-node lookup's bit for bit
        rng = np.random.default_rng(20)
        for _ in range(40):
            samples = irregular_samples(rng)
            stamps = [s.stamp for s in samples]
            t0 = rng.choice([stamps[0] - 0.01, stamps[2], rng.uniform(stamps[0], stamps[3])])
            t1 = rng.uniform(stamps[-4], stamps[-1] + 0.01)
            got = integration_nodes(samples, t0, t1)
            want = nodes_oracle(samples, t0, t1)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_matches_per_step_recursion(self):
        # random biases, rates, windows cut between samples and gaps up to
        # max_gap: the closed forms give the per-step recursion's numbers
        rng = np.random.default_rng(21)
        for _ in range(40):
            samples = irregular_samples(rng)
            t0 = rng.uniform(0.0, 0.01)
            t1 = rng.uniform(0.25, 0.3)
            bias = rng.uniform(-0.2, 0.2, 6)
            pre = preintegrate(samples, t0, t1, bias, NOISE)
            dr, dv, dp, cov, jac = preintegrate_oracle(samples, t0, t1, bias)
            assert np.max(np.abs(pre.delta_r.matrix() - dr)) < 1e-14
            assert np.max(np.abs(pre.delta_v - dv)) < 1e-13 * max(1.0, np.max(np.abs(dv)))
            assert np.max(np.abs(pre.delta_p - dp)) < 1e-13 * max(1.0, np.max(np.abs(dp)))
            assert np.max(np.abs(pre.cov - cov)) < 1e-12 * np.max(np.abs(cov))
            assert np.max(np.abs(pre.jac_bias - jac)) < 1e-12 * np.max(np.abs(jac))

    def test_repeated_stamp_is_a_zero_step(self):
        samples = make_samples(np.random.default_rng(22), 60)
        doubled = samples[:30] + [samples[29]] + samples[30:]
        a = preintegrate(samples, 0.0, samples[-1].stamp, np.zeros(6), NOISE)
        b = preintegrate(doubled, 0.0, samples[-1].stamp, np.zeros(6), NOISE)
        assert b.delta_r.matrix().tobytes() == a.delta_r.matrix().tobytes()
        assert np.allclose(b.cov, a.cov, rtol=1e-14, atol=0.0)

    def test_cov_trace_monotone_in_time(self):
        rng = np.random.default_rng(9)
        samples = make_samples(rng, 400)
        traces = []
        for t_end in [0.25, 0.5, 1.0, 1.5, 1.99]:
            pre = preintegrate(samples, 0.0, t_end, np.zeros(6), NOISE)
            traces.append(np.trace(pre.cov))
        assert all(b > a for a, b in zip(traces, traces[1:]))

    def test_cov_symmetric_psd(self):
        rng = np.random.default_rng(10)
        samples = make_samples(rng, 200)
        pre = preintegrate(samples, 0.0, samples[-1].stamp, np.zeros(6), NOISE)
        assert np.allclose(pre.cov, pre.cov.T)
        assert np.min(np.linalg.eigvalsh(pre.cov)) > -1e-16


class TestBiasCorrection:
    def test_same_bias_no_change(self):
        rng = np.random.default_rng(1)
        samples = make_samples(rng, 100)
        bias = np.array([0.01, -0.02, 0.03, 0.001, 0.002, -0.003])
        pre = preintegrate(samples, 0.0, samples[-1].stamp, bias, NOISE)
        dr, dv, dp = correct_for_bias(pre, bias)
        assert np.allclose(dr.matrix(), pre.delta_r.matrix())
        assert np.allclose(dv, pre.delta_v)
        assert np.allclose(dp, pre.delta_p)

    def test_quadratic_convergence_to_reintegration(self):
        rng = np.random.default_rng(2)
        samples = make_samples(rng, 150)
        t1 = samples[-1].stamp
        pre = preintegrate(samples, 0.0, t1, np.zeros(6), NOISE)
        direction = np.array([1.0, -1.0, 0.5, 0.4, -0.2, 0.8])
        direction /= np.linalg.norm(direction)
        errs = []
        for eps in [1e-2, 1e-3, 1e-4]:
            db = eps * direction
            exact = preintegrate(samples, 0.0, t1, db, NOISE)
            dr, dv, dp = correct_for_bias(pre, db)
            err = (np.linalg.norm(dv - exact.delta_v)
                   + np.linalg.norm(dp - exact.delta_p)
                   + np.linalg.norm(so3_log(exact.delta_r.inverse() * dr)))
            errs.append(err)
        # halving eps by 10x should shrink the error ~100x
        assert errs[1] < 0.05 * errs[0]
        assert errs[2] < 0.05 * errs[1]

    def test_jac_bias_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        samples = make_samples(rng, 120)
        t1 = samples[-1].stamp
        bias0 = np.zeros(6)
        pre = preintegrate(samples, 0.0, t1, bias0, NOISE)
        h = 1e-6
        fd = np.zeros((9, 6))
        for c in range(6):
            db = np.zeros(6)
            db[c] = h
            plus = preintegrate(samples, 0.0, t1, bias0 + db, NOISE)
            minus = preintegrate(samples, 0.0, t1, bias0 - db, NOISE)
            fd[0:3, c] = so3_log(pre.delta_r.inverse() * plus.delta_r) / (2 * h) - \
                so3_log(pre.delta_r.inverse() * minus.delta_r) / (2 * h)
            fd[3:6, c] = (plus.delta_v - minus.delta_v) / (2 * h)
            fd[6:9, c] = (plus.delta_p - minus.delta_p) / (2 * h)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(fd - pre.jac_bias)) / scale < 1e-5

    def test_jac_bias_matches_stepwise_finite_differences(self):
        # central differences of the step-by-step propagation over the
        # bias, on windows cut between samples at random rates and biases
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(5):
            samples = irregular_samples(rng, t1=0.2)
            t0, t1 = rng.uniform(0.0, 0.01), rng.uniform(0.15, 0.2)
            bias = rng.uniform(-0.2, 0.2, 6)
            pre = preintegrate(samples, t0, t1, bias, NOISE)
            r0 = stepwise_deltas(samples, t0, t1, bias)[0]
            fd = np.zeros((9, 6))
            for c in range(6):
                db = np.zeros(6)
                db[c] = h
                plus = stepwise_deltas(samples, t0, t1, bias + db)
                minus = stepwise_deltas(samples, t0, t1, bias - db)
                fd[0:3, c] = (so3_log(r0.inverse() * plus[0])
                              - so3_log(r0.inverse() * minus[0])) / (2 * h)
                fd[3:6, c] = (plus[1] - minus[1]) / (2 * h)
                fd[6:9, c] = (plus[2] - minus[2]) / (2 * h)
            assert np.max(np.abs(fd - pre.jac_bias)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


class TestImuFactor:
    def _consistent_pair(self, rng, bias=None):
        samples = make_samples(rng, 100)
        bias = np.zeros(6) if bias is None else bias
        state_i = random_state(rng)
        state_i = SensorState(state_i.pose, state_i.velocity, bias[:3], bias[3:], 0.0)
        state_j = propagate_through(state_i, samples)
        pre = preintegrate(samples, samples[0].stamp, samples[-1].stamp, bias, NOISE)
        return state_i, state_j, pre

    def test_zero_residual_on_exact_propagation(self):
        rng = np.random.default_rng(6)
        state_i, state_j, pre = self._consistent_pair(rng)
        r, _, _ = imu_factor_residual(state_i, state_j, pre)
        assert np.linalg.norm(r) < 1e-8

    def test_translation_sensitivity(self):
        rng = np.random.default_rng(7)
        state_i, state_j, pre = self._consistent_pair(rng)
        delta = np.array([0.37, 0.0, 0.0])
        moved = SensorState(
            Se3Pose(state_j.pose.rotation, state_j.pose.translation + delta),
            state_j.velocity, state_j.bias_accel, state_j.bias_gyro, state_j.stamp)
        r0, _, _ = imu_factor_residual(state_i, state_j, pre)
        r1, _, _ = imu_factor_residual(state_i, moved, pre)
        expected = state_i.pose.rotation.matrix().T @ delta
        assert np.allclose(r1[6:9] - r0[6:9], expected, atol=1e-12)

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(30):
            samples = make_samples(rng, 60)
            bias = rng.uniform(-0.03, 0.03, 6)
            state_i = random_state(rng)
            state_i = SensorState(state_i.pose, state_i.velocity, bias[:3], bias[3:], 0.0)
            pre = preintegrate(samples, samples[0].stamp, samples[-1].stamp,
                               bias + rng.uniform(-0.01, 0.01, 6), NOISE)
            state_j = state_retract(propagate_through(state_i, samples),
                                    rng.uniform(-0.05, 0.05, 15))
            r0, j_i, j_j = imu_factor_residual(state_i, state_j, pre)
            h = 1e-6
            for which, state, jac in (("i", state_i, j_i), ("j", state_j, j_j)):
                fd = np.zeros((15, 15))
                for c in range(15):
                    xi = np.zeros(15)
                    xi[c] = h
                    fn = lambda s: s
                    sp = state_retract(state, xi)
                    sm = state_retract(state, -xi)
                    if which == "i":
                        rp, _, _ = imu_factor_residual(sp, state_j, pre, with_jacobians=False)
                        rm, _, _ = imu_factor_residual(sm, state_j, pre, with_jacobians=False)
                    else:
                        rp, _, _ = imu_factor_residual(state_i, sp, pre, with_jacobians=False)
                        rm, _, _ = imu_factor_residual(state_i, sm, pre, with_jacobians=False)
                    fd[:, c] = (rp - rm) / (2 * h)
                scale = max(1.0, np.max(np.abs(fd)))
                worst = max(worst, np.max(np.abs(fd - jac)) / scale)
        assert worst < 1e-5

    def test_whitened_residual_chi_square(self):
        # with injected white noise the weighted squared motion residual
        # should follow a chi-square with 9 degrees of freedom
        rng = np.random.default_rng(12)
        rate = 200.0
        n = 40
        vals = []
        for _ in range(1000):
            clean = [ImuSample(k / rate, -GRAVITY + 0.0, np.zeros(3)) for k in range(n)]
            noisy = [
                ImuSample(
                    s.stamp,
                    s.accel + rng.normal(scale=NOISE.accel_noise_density * np.sqrt(rate), size=3),
                    s.gyro + rng.normal(scale=NOISE.gyro_noise_density * np.sqrt(rate), size=3),
                )
                for s in clean
            ]
            state_i = SensorState.zero()
            state_j = propagate_through(state_i, clean)
            pre = preintegrate(noisy, clean[0].stamp, clean[-1].stamp, np.zeros(6), NOISE)
            r, _, _ = imu_factor_residual(state_i, state_j, pre)
            info = np.linalg.inv(pre.cov)
            vals.append(r[:9] @ info @ r[:9])
        mean = np.mean(vals)
        # mean of chi^2_9 is 9; 1000 trials give sigma ~ sqrt(2*9/1000)
        assert abs(mean - 9.0) < 3.0 * np.sqrt(18.0 / 1000.0)
