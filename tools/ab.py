"""Compare the odometry's outputs at a revision with those of this tree.

    python3 tools/ab.py --base REV [--two-laps]

Exports REV with ``git archive`` into a temporary directory, so the
repository is only read, then replays the same scenes through both trees,
each in a fresh interpreter with the BLAS libraries pinned to one thread and
that tree's ``src`` and ``perfbench`` on PYTHONPATH.  The scenes are the
benchmark workloads' at their bench length: ``loop`` seeds 1-3 (22 scans),
``dense`` seed 1 (18) and ``gap`` seed 1 (117), and with ``--two-laps`` the
272-scan two-lap ``loop`` scene of the golden runs.

For every scene it prints two digests per tree: the scene's (its scans'
points and stamps and its IMU samples) and the replay's (``replay_digest``).
It exits 1 if any digest differs between the trees.  It compares outputs
only and times nothing.  Digests can differ between hosts, so compare them
on one host.
"""

from __future__ import annotations

import argparse
import hashlib
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


def replay_digest(scene) -> str:
    """sha256 over the outputs of one replay of the scene through a new
    ``OdometryEstimator`` (the benchmark's ``run.replay``): each scan's
    state vector and its warning or exception type, then the factor kinds
    in the window after each scan, then the keyframe events."""
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
    return h.hexdigest()


def replay_all(two_laps: bool) -> None:
    """Print, one JSON line per scene, its label and both digests."""
    import limapper
    from limapper.synthetic import generate_synthetic_scene
    from workloads import WORKLOADS

    print(json.dumps({"limapper": limapper.__file__}), flush=True)
    for label, name, seed, frames in SCENES + ([TWO_LAPS] if two_laps else []):
        workload = WORKLOADS[name]
        scene = generate_synthetic_scene(workload.spec(seed, frames or workload.n_frames))
        print(json.dumps({"scene": label, "scans": len(scene.scans),
                          "scene_digest": scene_digest(scene),
                          "output_digest": replay_digest(scene)}), flush=True)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare this tree with")
    parser.add_argument("--two-laps", action="store_true",
                        help="also replay the 272-scan two-lap scene")
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        replay_all(args.two_laps)
        return 0
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        export(args.base, Path(tmp))
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
        print(f"{label} ({rec['scans']} scans): " + ", ".join(cells))
    print(f"base {args.base}: " + ("outputs differ" if differ else "every scene the same"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
