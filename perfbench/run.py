"""Odometry benchmark of limapper.

Replays a seeded synthetic scene (see ``workloads.py``) through
``OdometryEstimator.process_frame``, one scan at a time, in one process: a
closed loop with one client.  Run it from the repository root:

    python3 perfbench/run.py --workload loop --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics.  It measures set-up time in
fresh interpreters (import, construction, bootstrap scan; median of
SETUP_REPEATS), then replays as many scenes of the workload, each with its
own seed drawn from ``--seed``, as fill ``--seconds`` (``Workload.replays``).
The number of scenes depends only on ``--seconds``, so a run's work and
outputs do not depend on the speed of the host.  Latency percentiles pool
every scan after the first of each scene and are Harrell-Davis estimates;
the ATE is the mean over the scenes.  The end-to-end times (set-up, scan
latency, throughput) are wall-clock times scaled to the speed of a reference
host, which a fixed kernel run between the scans measures (``speed.py``);
the unscaled figures are printed too.  ``--trace 1`` replays the first scene
once untraced and once with spans recorded around the calls into each layer
(``tracing.py``), whatever ``--seconds`` says, reports the per-layer metrics
(span times unscaled) and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload in turn.

The run pins the BLAS libraries to one thread unless their variables are
set: the estimator's matrices are small, and a second BLAS thread on a
shared 2-core host measures the scheduler rather than the program.

Every run checks that each returned state is finite, that the ATE of every
scene is computable and below the workload's divergence limit, and that a
second replay of the first scene (or of its first scans) gives bit-identical
states, warnings, factor counts and keyframe events.  A scan that raises is
counted by error type and the next scans still go to the same estimator.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every metric with its unit, and failures by type.

The program reports nothing about itself yet: the per-layer numbers come
from wrapping its functions here.  In-program telemetry (a per-scan record
of layer timings and LM steps, and reporting the failures that the bare
``except Exception`` in ``OdometryEstimator._emit_oldest`` swallows) is
later work.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402 - after the BLAS thread settings
import scipy  # noqa: E402
from scipy.special import betainc  # noqa: E402

from speed import SpeedLog  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3  # fresh interpreters per run; setup_s is their median
CHECK_SCANS = 8  # scans of the first scene replayed again in an end-to-end run

UNITS = {
    "setup_s": "s", "scan_ms_p50": "ms", "scan_ms_p90": "ms",
    "scans_per_s": "1/s", "ate_rmse_m": "m", "warned_frac": "ratio",
    "failed_frac": "ratio", "peak_rss_mb": "MB",
}
# metrics printed by --trace 0 but left out of the JSON result: both read 0
# at the seed, and the failures are in the result's "failed" count already
REPORT_ONLY = ("warned_frac", "failed_frac")
FACTOR_KINDS = ("prior", "imu-preintegration", "matching-cost-binary",
                "matching-cost-unary", "marginal-prior")


def layer_unit(name: str) -> str:
    special = {"odometry.bias_accel_err": "m/s2", "odometry.bias_gyro_err": "rad/s",
               "trace.overhead_scans_per_s": "1/s"}
    if name in special:
        return special[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "count"


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "loadavg_1m_start": os.getloadavg()[0],
    }


@dataclass
class Replay:
    """Outputs and timings of one replay of a scene."""

    times: list = field(default_factory=list)  # s per successful scan after the first
    speeds: list = field(default_factory=list)  # host speed around each of them
    states: list = field(default_factory=list)  # SensorState, or None if it raised
    notes: list = field(default_factory=list)  # per scan: warning, error type or None
    factor_kinds: list = field(default_factory=list)  # Counter per scan
    keyframe_events: list = field(default_factory=list)

    @property
    def scaled_times(self) -> list:
        """`times` scaled to the reference host's speed (speed.py)."""
        return [dt * v for dt, v in zip(self.times, self.speeds)]

    @property
    def scans_per_s(self) -> float:
        return len(self.times) / sum(self.scaled_times)

    @property
    def failures(self) -> Counter:
        return Counter(n for s, n in zip(self.states, self.notes) if s is None)

    @property
    def warned(self) -> int:
        return sum(s is not None and n is not None
                   for s, n in zip(self.states, self.notes))

    def scan_records(self) -> list:
        """Per-scan hardware-independent outputs, compared across replays."""
        return [(None if s is None else state_vector(s).tobytes(), note,
                 tuple(sorted(kinds.items())))
                for s, note, kinds in zip(self.states, self.notes, self.factor_kinds)]


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics; with a few dozen scans of
    very different cost it varies far less between runs than the single
    order statistic that a plain percentile picks.
    """
    x = np.sort(samples)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def state_vector(state):
    return np.concatenate([state.pose.rotation.quat, state.pose.translation,
                           state.velocity, state.bias_accel, state.bias_gyro])


def error_label(exc: Exception) -> str:
    from limapper.errors import PipelineError

    if isinstance(exc, PipelineError):
        return f"PipelineError.{type(exc).__name__}"
    return f"raw.{type(exc).__module__}.{type(exc).__name__}"


def replay(scene, batches, n_scans: int, tracer=None) -> Replay:
    from limapper.odometry import OdometryEstimator

    est = OdometryEstimator()
    out = Replay()
    log = SpeedLog()
    spans = []  # (start, end) of each scan in out.times
    for k in range(n_scans):
        if tracer is not None:
            tracer.scan = k
        log.sample()
        t0 = time.perf_counter()
        try:
            result = est.process_frame(scene.scans[k], batches[k])
        except Exception as exc:  # counted per type; later scans still go in
            out.states.append(None)
            out.notes.append(error_label(exc))
        else:
            t1 = time.perf_counter()
            if k > 0:
                out.times.append(t1 - t0)
                spans.append((t0, t1))
            out.states.append(result.state)
            out.notes.append(result.warning)
        out.factor_kinds.append(Counter(f.kind for f in est.graph.factors))
    log.sample()
    out.speeds = [log.around(t0, t1) for t0, t1 in spans]
    out.keyframe_events = [
        (e["frame_index"], e["inserted"], tuple(e["dropped_low_overlap"]),
         None if e["removed_by_score"] is None else e["removed_by_score"]["removed"])
        for e in est.keyframe_events]
    return out


def ate(replay_: Replay, scene) -> float:
    from limapper.dataset_io import record_from_pose
    from limapper.evaluation import compute_ate

    records = [record_from_pose(s.stamp, s.pose) for s in replay_.states if s is not None]
    return compute_ate(records, scene.ground_truth).rmse


def check(runs: list, repeats: list, workload) -> tuple[list[str], float]:
    """(reasons the outputs are wrong, mean ATE of `runs` in m).

    `runs` pairs each scene with its replay; `repeats` are further replays of
    the first scene, whole or a prefix, which must reproduce its outputs
    exactly.  The reasons are empty when the outputs are correct; the ATE
    reads 0 when no scene's ATE can be computed.
    """
    problems, errors = [], []
    for i, (scene, r) in enumerate(runs):
        for k, s in enumerate(r.states):
            if s is not None and not np.all(np.isfinite(state_vector(s))):
                problems.append(f"scene {i}, scan {k}: non-finite state")
        try:
            errors.append(ate(r, scene))
        except Exception as exc:  # noqa: BLE001 - reported as a wrong result
            problems.append(f"scene {i}: ATE not computable: "
                            f"{error_label(exc)}: {exc}")
            continue
        if not errors[-1] <= workload.ate_limit:
            problems.append(f"scene {i}: ATE {errors[-1]:.4g} m above "
                            f"{workload.ate_limit} m")
    first = runs[0][1]
    ref = first.scan_records()
    for r in repeats:
        got = r.scan_records()
        if got != ref[:len(got)]:
            problems.append("replay of the same seed gave different outputs")
        elif len(got) == len(ref) and r.keyframe_events != first.keyframe_events:
            problems.append("replay of the same seed gave different keyframes")
    return problems, (statistics.fmean(errors) if errors else 0.0)


def measure_setup(scene, batches, repeats: int) -> tuple[list, list]:
    """(scaled, wall-clock) set-up seconds of `repeats` fresh interpreters,
    each bootstrapping on the first scan."""
    scan, imu = scene.scans[0], batches[0]
    buf = io.BytesIO()
    np.savez(buf, points=scan.points, stamps=scan.stamps,
             span=np.array([scan.scan_start, scan.scan_end]),
             imu_stamps=np.array([s.stamp for s in imu]),
             imu_accel=np.array([s.accel for s in imu]).reshape(-1, 3),
             imu_gyro=np.array([s.gyro for s in imu]).reshape(-1, 3))
    scaled, wall = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=buf.getvalue(), capture_output=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not rec["finite"]:
            raise RuntimeError("bootstrap state is not finite")
        scaled.append(rec["setup_s"])
        wall.append(rec["wall_s"])
    return scaled, wall


def write_spans(path: Path, env: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "scan": s.scan, "error": s.error}) + "\n")


def end_to_end(scenes, batches):
    """Replays each scene once untraced, then a prefix of the first again;
    returns (timed replays, repeats, metrics)."""
    setup, setup_wall = measure_setup(scenes[0], batches[0], SETUP_REPEATS)
    timed = [replay(scene, b, len(scene.scans)) for scene, b in zip(scenes, batches)]
    n = len(scenes[0].scans)
    repeats = [replay(scenes[0], batches[0], min(CHECK_SCANS, n))]
    wall = [dt for r in timed for dt in r.times]
    speeds = [v for r in timed for v in r.speeds]
    samples = [dt for r in timed for dt in r.scaled_times]
    attempted = sum(len(r.states) for r in timed)
    print(f"replays: {len(timed)} timed, {len(samples)} latency samples; "
          f"setup runs: {', '.join(f'{s:.4f}' for s in setup)} s")
    print(f"wall-clock, unscaled: setup_s {statistics.median(setup_wall):.6g}, "
          f"scan_ms_p50 {quantile(wall, 0.5) * 1000.0:.6g}, "
          f"scan_ms_p90 {quantile(wall, 0.9) * 1000.0:.6g}, "
          f"scans_per_s {len(wall) / sum(wall):.6g}; host speed "
          f"{min(speeds):.3f} to {max(speeds):.3f}, median "
          f"{statistics.median(speeds):.3f}")
    return timed, repeats, {
        "setup_s": statistics.median(setup),
        "scan_ms_p50": quantile(samples, 0.5) * 1000.0,
        "scan_ms_p90": quantile(samples, 0.9) * 1000.0,
        "scans_per_s": len(samples) / sum(samples),
        "warned_frac": sum(r.warned for r in timed) / attempted,
        "failed_frac": sum(sum(r.failures.values()) for r in timed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(scene, batches):
    """One untraced and one traced replay; returns (replays, spans, metrics)."""
    import tracing

    n = len(scene.scans)
    replays = [replay(scene, batches, n)]
    tracer = tracing.Tracer()
    with tracer.patched():
        replays.append(replay(scene, batches, n, tracer))
    plain, traced = replays
    metrics = tracing.span_metrics(tracer.spans)
    kinds = sum(traced.factor_kinds[1:], Counter())
    for kind in FACTOR_KINDS:
        metrics[f"factor_graph.factors.{kind}"] = kinds[kind] / max(n - 1, 1)
    events = traced.keyframe_events
    metrics["odometry.keyframes_inserted"] = sum(e[1] for e in events) / n
    metrics["odometry.keyframes_dropped"] = sum(len(e[2]) for e in events) / n
    metrics["odometry.keyframes_removed_by_score"] = (
        sum(e[3] is not None for e in events) / n)
    last = next(s for s in reversed(traced.states) if s is not None)
    metrics["odometry.bias_accel_err"] = float(
        np.linalg.norm(last.bias_accel - scene.spec.accel_bias))
    metrics["odometry.bias_gyro_err"] = float(
        np.linalg.norm(last.bias_gyro - scene.spec.gyro_bias))
    metrics["trace.overhead_scans_per_s"] = plain.scans_per_s - traced.scans_per_s
    return replays, tracer.spans, metrics


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    from limapper.config import PipelineConfig
    from limapper.synthetic import generate_synthetic_scene
    from workloads import imu_batches

    env = environment()
    count = 1 if traced else workload.replays(seconds)
    t0 = time.perf_counter()
    scenes = [generate_synthetic_scene(workload.spec(s, workload.n_frames))
              for s in workload.seeds(seed, count)]
    generate_s = (time.perf_counter() - t0) / count
    init_window = PipelineConfig().odometry.init_window
    batches = [imu_batches(scene, init_window) for scene in scenes]
    print(f"workload {workload.name}: seed {seed}, {count} scenes of "
          f"{len(scenes[0].scans)} scans, "
          f"{np.mean([len(s) for s in scenes[0].scans]):.0f} points per scan")

    if traced:
        replays, spans, metrics = per_layer(scenes[0], batches[0])
        timed, repeats = replays, replays[1:]
        metrics["synthetic.generate_s"] = generate_s
    else:
        timed, repeats, metrics = end_to_end(scenes, batches)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    problems, ate_m = check(list(zip(scenes, timed)), repeats, workload)
    if traced:
        write_spans(OUT / f"{workload.name}-seed{seed}.spans.jsonl", env, spans)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics["ate_rmse_m"] = ate_m
        units = UNITS
    failures = sum((r.failures for r in timed), Counter())

    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for label, count in sorted(failures.items()):
        print(f"failure {label}: {count} scans")
    for p in problems:
        print(f"INCORRECT: {p}")
    return {
        "correct": not problems,
        "attempted": sum(len(r.states) for r in timed),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k not in REPORT_ONLY},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "limapper" / "odometry.py").is_file():
        print(f"perfbench: limapper sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
