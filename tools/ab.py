"""Compare the odometry's outputs, or its time per scan, at a revision with
those of this tree.

    python3 tools/ab.py --base REV [--two-laps]
    python3 tools/ab.py --base REV --time [--two-laps]

Exports REV with ``git archive`` into a temporary directory, so the
repository is only read.

Without ``--time`` it replays the same scenes through both trees, each in a
fresh interpreter with the BLAS libraries pinned to one thread and that
tree's ``src`` and ``perfbench`` on PYTHONPATH.  The scenes are the
benchmark workloads' at their bench length: ``loop`` seeds 1-3 (22 scans),
``dense`` seed 1 (18) and ``gap`` seed 1 (117), and with ``--two-laps`` the
272-scan two-lap ``loop`` scene of the golden runs.  For every scene it
prints two digests per tree: the scene's (its scans' points and stamps and
its IMU samples) and the replay's (``replay_outputs``).  Where the replay's
digest differs, it names the first scan whose outputs differ and gives
each tree's ATE on the scene.  It exits 1 if any digest differs between
the trees.  Digests can differ between hosts, so compare them on one host.

With ``--time`` it imports each tree's ``limapper`` under its own name into
this one process, with the BLAS libraries pinned to one thread, and feeds
both trees' estimators each scan of the warm-up scenes (``loop`` seeds 1-3
and ``dense`` seed 1, TIME_PASSES times over), alternating from scan to
scan which tree goes first.  It checks every scan's state and warning bit
for bit, and exits 1 at the first difference.  For the per-scan time
ratios, this tree's over REV's, it prints the median of each pass's median,
with a bootstrap interval that resamples whole passes, and the spread
(lowest to highest) of the pass medians.  The scans of one pass share the
host's speed, so the interval is drawn over passes, not scans.  Both trees
share the host's drift, scan by scan, which separate benchmark runs do
not.  With ``--two-laps`` it also prints a ``steady`` line: the two-lap
scene, TIME_PASSES times over,
timed from the scan of its first keyframe removal by score on, when the
keyframe set is full.  That scan is found from the keyframe events of a
replay through this tree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, workload, seed, scene length in frames or None for the bench's)
SCENES = [(f"loop-{seed}", "loop", seed, None) for seed in (1, 2, 3)] + [
    ("dense-1", "dense", 1, None), ("gap-1", "gap", 1, None)]
TWO_LAPS = ("two-laps", "loop", 1, 270)
# the scenes that --time replays, each TIME_PASSES times with new estimators
TIME_SCENES = SCENES[:4]
TIME_PASSES = 5
BOOTSTRAP_RESAMPLES = 2000


def scene_digest(scene) -> str:
    """sha256 over every scan's points and stamps, then every IMU sample."""
    h = hashlib.sha256()
    for scan in scene.scans:
        h.update(scan.points.tobytes())
        h.update(scan.stamps.tobytes())
    for s in scene.imu:
        h.update(repr(s.stamp).encode())
        h.update(s.accel.tobytes())
        h.update(s.gyro.tobytes())
    return h.hexdigest()


def replay_outputs(scene) -> tuple[str, list[str], float | None]:
    """(digest, per-scan digests, ATE in m or None) of one replay of the
    scene through a new ``OdometryEstimator`` (the benchmark's
    ``run.replay``).  The digest is sha256 over each scan's state vector
    and its warning or exception type, then the factor kinds in the window
    after each scan, then the keyframe events.  A scan's digest covers its
    state vector, warning or exception type, the factor kinds after it and
    the keyframe event of its frame."""
    import run
    from limapper.config import PipelineConfig
    from workloads import imu_batches

    batches = imu_batches(scene, PipelineConfig().odometry.init_window)
    out = run.replay(scene, batches, len(scene.scans))
    h = hashlib.sha256()
    for state, note in zip(out.states, out.notes):
        h.update(b"" if state is None else run.state_vector(state).tobytes())
        h.update(repr(note).encode())
    h.update(repr([sorted(kinds.items()) for kinds in out.factor_kinds]).encode())
    h.update(repr(out.keyframe_events).encode())
    # a frame's index counts the scans that committed before it
    committed = [k for k, s in enumerate(out.states) if s is not None]
    events = {committed[e[0]]: e for e in out.keyframe_events}
    scans = [hashlib.sha256(repr((rec, events.get(k))).encode()).hexdigest()
             for k, rec in enumerate(out.scan_records())]
    try:
        error = run.ate(out, scene)
    except Exception:  # an ATE that cannot be formed is reported as None
        error = None
    return h.hexdigest(), scans, error


def first_difference(this: list, base: list) -> int | None:
    """The first index at which two lists differ, or at which the shorter
    one ends; None when they are equal."""
    for k, (a, b) in enumerate(zip(this, base)):
        if a != b:
            return k
    return None if len(this) == len(base) else min(len(this), len(base))


def difference_note(this: dict, base: dict) -> str:
    """Where the replays of one scene differ, from the records of the two
    trees: the first differing scan, and each tree's ATE."""
    def mm(error):
        return "none" if error is None else f"{1e3 * error:.4f} mm"

    return (f"first differing scan {first_difference(this['scans'], base['scans'])}, "
            f"ATE {mm(this['ate_m'])} (base {mm(base['ate_m'])})")


def replay_all(two_laps: bool) -> None:
    """Print, one JSON line per scene, its label and both digests."""
    import limapper
    from limapper.synthetic import generate_synthetic_scene
    from workloads import WORKLOADS

    print(json.dumps({"limapper": limapper.__file__}), flush=True)
    for label, name, seed, frames in SCENES + ([TWO_LAPS] if two_laps else []):
        workload = WORKLOADS[name]
        scene = generate_synthetic_scene(workload.spec(seed, frames or workload.n_frames))
        output, scans, error = replay_outputs(scene)
        print(json.dumps({"scene": label, "scans": scans, "ate_m": error,
                          "scene_digest": scene_digest(scene),
                          "output_digest": output}), flush=True)


def tree_digests(tree: Path, two_laps: bool) -> dict:
    """{label: record} of the scenes replayed in a fresh interpreter on the
    tree's sources."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    args = [sys.executable, str(Path(__file__).resolve()), "--replay"]
    child = subprocess.run(args + (["--two-laps"] if two_laps else []), env=env,
                           capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"replay on {tree} failed:\n{child.stderr}")
    lines = [json.loads(line) for line in child.stdout.splitlines()]
    source = Path(lines[0]["limapper"]).resolve()
    if not source.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"replay on {tree} imported limapper from {source}")
    return {rec["scene"]: rec for rec in lines[1:]}


def export(rev: str, dest: Path) -> None:
    """Extract the files of the revision into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def load_limapper(src: Path, name: str):
    """The ``limapper`` package of a tree's ``src``, imported as ``name``, so
    that the packages of two trees live side by side in one process; the
    package imports its own modules relatively, so they load under
    ``name`` too."""
    init = src / "limapper" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def scan_output(estimator, scan, batch) -> tuple:
    """(bytes of the state, warning) of one scan, or (None, exception type
    name) when it raises."""
    try:
        result = estimator.process_frame(scan, batch)
    except Exception as exc:  # compared between the trees like an output
        return None, type(exc).__name__
    s = result.state
    return (b"".join(a.tobytes() for a in (
        s.pose.rotation.matrix(), s.pose.translation, s.velocity, s.bias_accel,
        s.bias_gyro)) + repr(s.stamp).encode(), result.warning)


def first_removal(events, committed) -> int | None:
    """The scan of the first keyframe event that removes a keyframe by
    score, or None if none does.  ``events`` are an estimator's
    ``keyframe_events``, and ``committed`` lists in order the scans that
    committed a frame, since a frame's index counts those."""
    return next((committed[e["frame_index"]] for e in events if e["removed_by_score"]),
                None)


def time_scenes(base, this, scenes, passes: int) -> dict[str, list[list[float]]]:
    """{label: per pass, the per-scan time ratios, this over base} of
    ``passes`` replays of each (label, scene, IMU batches, first timed
    scan) through new estimators of the two ``limapper`` packages; the
    scans before the first timed one still go to both.  Each scan goes to
    both estimators, the first tree alternating from scan to scan.  Raises
    SystemExit at the first scan whose outputs differ."""
    from time import perf_counter

    ratios, turn = {label: [] for label, *_ in scenes}, 0
    for _ in range(passes):
        for label, scene, batches, first in scenes:
            ratios[label].append([])
            ests = [importlib.import_module(p.__name__ + ".odometry").OdometryEstimator()
                    for p in (base, this)]
            for k, (scan, batch) in enumerate(zip(scene.scans, batches)):
                times, outputs = [0.0, 0.0], [None, None]
                for side in ((0, 1) if turn % 2 == 0 else (1, 0)):
                    t0 = perf_counter()
                    outputs[side] = scan_output(ests[side], scan, batch)
                    times[side] = perf_counter() - t0
                turn += 1
                if outputs[0] != outputs[1]:
                    raise SystemExit(f"{label}: outputs differ at scan {k}")
                if k >= first:
                    ratios[label][-1].append(times[1] / times[0])
    return ratios


def pass_medians(per_pass) -> list[float]:
    """The median of the ratios of each pass."""
    import numpy as np

    return [float(np.median(ratios)) for ratios in per_pass]


def bootstrap_median(per_pass) -> tuple[float, float, float]:
    """(median, low, high) of the pass medians, with the 95 % percentile
    bootstrap interval of their median over BOOTSTRAP_RESAMPLES seeded
    resamples of whole passes.  Consecutive scans of one pass share the
    host's speed, so the passes, not the scans, are the independent draws;
    resampling the scans gives an interval narrower than the spread of the
    passes themselves."""
    import numpy as np

    medians = np.asarray(pass_medians(per_pass))
    rng = np.random.default_rng(0)
    draws = np.median(rng.choice(medians, (BOOTSTRAP_RESAMPLES, len(medians))), axis=1)
    low, high = np.percentile(draws, [2.5, 97.5])
    return float(np.median(medians)), float(low), float(high)


def summary(per_pass) -> str:
    """The median of the pass medians with its bootstrap interval over
    whole passes, and the spread of the pass medians."""
    median, low, high = bootstrap_median(per_pass)
    medians = pass_medians(per_pass)
    return (f"{median:.3f} [{low:.3f}, {high:.3f}], pass medians "
            f"{min(medians):.3f}-{max(medians):.3f}, "
            f"over {sum(len(ratios) for ratios in per_pass)} scans")


def steady_scene(this, window: float) -> tuple:
    """(label, scene, IMU batches, first timed scan) of the two-lap scene,
    timed from its first keyframe removal by score on, which a replay
    through this tree's estimator finds."""
    from limapper.synthetic import generate_synthetic_scene
    from workloads import WORKLOADS, imu_batches

    _, name, seed, frames = TWO_LAPS
    scene = generate_synthetic_scene(WORKLOADS[name].spec(seed, frames))
    batches = imu_batches(scene, window)
    est = importlib.import_module(this.__name__ + ".odometry").OdometryEstimator()
    committed = [k for k, (scan, batch) in enumerate(zip(scene.scans, batches))
                 if scan_output(est, scan, batch)[0] is not None]
    first = first_removal(est.keyframe_events, committed)
    if first is None:
        raise SystemExit("the two-lap scene removes no keyframe by score")
    return "steady", scene, batches, first


def time_against(base_src: Path, two_laps: bool) -> None:
    """Print the time ratio of this tree over the one at ``base_src``: of
    the warm-up scenes, and with ``two_laps`` of the steady state."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from limapper.config import PipelineConfig
    from limapper.synthetic import generate_synthetic_scene
    from workloads import WORKLOADS, imu_batches

    base = load_limapper(base_src, "limapper_base")
    this = load_limapper(ROOT / "src", "limapper_this")
    window = PipelineConfig().odometry.init_window
    scenes = []
    for label, name, seed, _ in TIME_SCENES:
        workload = WORKLOADS[name]
        scene = generate_synthetic_scene(workload.spec(seed, workload.n_frames))
        scenes.append((label, scene, imu_batches(scene, window), 1))
    ratios = time_scenes(base, this, scenes, TIME_PASSES)
    print(f"every output the same; time per scan, this tree over base, "
          f"{TIME_PASSES} passes, median of the pass median ratios [95 % "
          f"bootstrap interval over passes], spread of the pass medians:")
    groups = {name: [label for label, n, _, _ in TIME_SCENES if n == name]
              for _, name, _, _ in TIME_SCENES}
    groups["all"] = list(ratios)
    for name, labels in groups.items():
        per_pass = [[r for label in labels for r in ratios[label][p]]
                    for p in range(TIME_PASSES)]
        print(f"  {name}: {summary(per_pass)}")
    if two_laps:
        steady = steady_scene(this, window)
        ratios = time_scenes(base, this, [steady], TIME_PASSES)
        print(f"  steady: {summary(ratios['steady'])}, from scan {steady[3]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare this tree with")
    parser.add_argument("--two-laps", action="store_true",
                        help="also replay the 272-scan two-lap scene; with "
                        "--time, time it from its first removal by score on")
    parser.add_argument("--time", action="store_true",
                        help="time both trees scan by scan in this process")
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        replay_all(args.two_laps)
        return 0
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        export(args.base, Path(tmp))
        if args.time:
            time_against(Path(tmp) / "src", args.two_laps)
            return 0
        base = tree_digests(Path(tmp), args.two_laps)
    this = tree_digests(ROOT, args.two_laps)
    differ = False
    for label, rec in this.items():
        cells = []
        for kind in ("scene", "output"):
            new, old = rec[f"{kind}_digest"], base[label][f"{kind}_digest"]
            differ |= new != old
            cells.append(f"{kind} {new[:16]} "
                         + ("same" if new == old else f"DIFFERS (base {old[:16]})"))
        if rec["output_digest"] != base[label]["output_digest"]:
            cells.append(difference_note(rec, base[label]))
        print(f"{label} ({len(rec['scans'])} scans): " + ", ".join(cells))
    print(f"base {args.base}: " + ("outputs differ" if differ else "every scene the same"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
