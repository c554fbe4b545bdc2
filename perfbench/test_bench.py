"""Checks of the benchmark's tracer on the first scans of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from limapper.config import PipelineConfig  # noqa: E402
from limapper.synthetic import generate_synthetic_scene  # noqa: E402
from workloads import WORKLOADS, imu_batches  # noqa: E402

SHORT = {"loop": 4, "dense": 3, "gap": 4}  # frames per short scene


def short_scene(name):
    scene = generate_synthetic_scene(WORKLOADS[name].spec(7, SHORT[name]))
    return scene, imu_batches(scene, PipelineConfig().odometry.init_window)


def traced_replay(scene, batches):
    tracer = tracing.Tracer()
    with tracer.patched():
        result = run.replay(scene, batches, len(scene.scans), tracer)
    return tracer, result


def originals():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _, _ in tracing.targets()]


def test_patched_attributes_restored_after_run_and_after_error():
    before = originals()
    scene, batches = short_scene("loop")
    tracer, _ = traced_replay(scene, batches)
    assert tracer.spans
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    with pytest.raises(KeyError):
        with tracing.Tracer().patched():
            assert any(vars(owner)[attr] is not fn for owner, attr, fn in before)
            raise KeyError("traced code failed")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_self_times_add_up_to_scan_time(name):
    scene, batches = short_scene(name)
    tracer, result = traced_replay(scene, batches)
    spans = tracer.spans
    assert not result.failures
    own = tracing.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    assert [spans[i].name for i in roots] == [tracing.ROOT] * len(scene.scans)
    assert [spans[i].scan for i in roots] == list(range(len(scene.scans)))
    for i in roots:
        layers = sum(own[j] for j, s in enumerate(spans) if s.scan == spans[i].scan)
        assert math.isclose(layers, spans[i].duration, rel_tol=1e-9, abs_tol=1e-9)
    for s in spans:
        if s.parent >= 0:
            assert spans[s.parent].scan == s.scan
            assert spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
    metrics = tracing.span_metrics(spans)
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS)
    assert math.isclose(shares, 1.0, rel_tol=1e-9)


def test_counts_and_outputs_repeat_exactly():
    scene, batches = short_scene("loop")
    first_tracer, first = traced_replay(scene, batches)
    second_tracer, second = traced_replay(scene, batches)
    assert (tracing.count_signature(first_tracer.spans)
            == tracing.count_signature(second_tracer.spans))
    assert first.scan_records() == second.scan_records()
    assert run.check([(scene, first)], [second], WORKLOADS["loop"])[0] == []


def test_speed_log_scales_by_kernel_runs_near_the_call():
    log = speed.SpeedLog()
    ref = speed.REFERENCE_S
    log.runs = [(0.0, 2 * ref), (10.0, ref), (10.5, ref), (20.0, ref / 2)]
    assert log.around(10.1, 10.4) == 1.0  # the runs at 0 and 20 s are too far
    assert log.around(1.0, 19.0) == 1.0  # median of all four
    assert speed.speed([ref / 2]) == 2.0
