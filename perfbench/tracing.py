"""Span tracing of limapper from outside the program.

The tracer replaces the bindings that limapper's own callers use (module
globals such as ``limapper.odometry.voxel_downsample`` and methods such as
``FactorGraph.optimize_lm``) with wrappers that record one span per call:
name, start, end, parent span, scan index and a small per-call record
(a count or a cost).  Spans stay in memory; the caller writes them out when
the run ends.  Every patched attribute is put back when ``patched()`` exits,
also when the traced code raised.

A layer is the part of a span name before the first dot.  A span's self time
is its duration minus the durations of its child spans, so the self times of
one scan's spans add up to that scan's ``odometry.process_frame`` span.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from limapper import factor_graph, odometry

ROOT = "odometry.process_frame"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    scan: int
    info: object = None  # per-call record taken from the arguments and result
    error: str | None = None  # exception type name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _optimize_info(args, kwargs, result):
    settings = args[1] if len(args) > 1 else kwargs.get("settings")
    cap = (settings or factor_graph.LmSettings()).max_iterations
    return result.iterations, result.iterations >= cap


def targets():
    """(owner, attribute, span name, info function) for every traced call."""
    fg = factor_graph.FactorGraph
    return [
        (odometry.OdometryEstimator, "process_frame", ROOT, None),
        (odometry, "voxel_downsample", "preprocess.voxel_downsample",
         lambda a, k, r: (len(a[0]), len(r))),
        (odometry, "knn_search", "preprocess.knn_search", None),
        (odometry, "estimate_covariances", "preprocess.estimate_covariances", None),
        (odometry, "deskew", "preprocess.deskew", None),
        (odometry, "preintegrate", "imu.preintegrate", lambda a, k, r: len(a[0])),
        (odometry, "predict_state", "imu.predict_state", None),
        (odometry, "build_voxelmap", "registration.build_voxelmap", None),
        (odometry, "overlap_rate", "registration.overlap_rate", None),
        (factor_graph, "match_terms", "registration.match_terms",
         lambda a, k, r: (r.inliers, len(a[0]))),
        (factor_graph, "linearize_from_terms", "registration.linearize_from_terms",
         None),
        (fg, "optimize_lm", "factor_graph.optimize_lm", _optimize_info),
        (fg, "total_cost", "factor_graph.total_cost", lambda a, k, r: r),
        (fg, "marginalize", "factor_graph.marginalize", None),
        (fg, "marginal_covariance", "factor_graph.marginal_covariance", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.scan = -1  # set by the caller before each process_frame
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.scan)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, info in targets():
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _children(spans: list[Span]) -> dict[int, list[int]]:
    out = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out[s.parent].append(i)
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _lm_steps(costs) -> tuple[int, int]:
    """(candidates, accepted) of one LM solve from its total_cost sequence.

    The first evaluation is the starting cost; every later one is a
    candidate step, accepted exactly when it lowers the current cost.
    """
    current, accepted = costs[0], 0
    for c in costs[1:]:
        if math.isfinite(c) and c < current:
            current = c
            accepted += 1
    return len(costs) - 1, accepted


TIMED = {
    "preprocess.voxel_downsample_ms": "preprocess.voxel_downsample",
    "preprocess.knn_search_ms": "preprocess.knn_search",
    "preprocess.estimate_covariances_ms": "preprocess.estimate_covariances",
    "preprocess.deskew_ms": "preprocess.deskew",
    "imu.preintegrate_ms": "imu.preintegrate",
    "imu.predict_state_ms": "imu.predict_state",
    "registration.match_terms_ms": "registration.match_terms",
    "registration.linearize_from_terms_ms": "registration.linearize_from_terms",
    "registration.build_voxelmap_ms": "registration.build_voxelmap",
    "factor_graph.optimize_lm_ms": "factor_graph.optimize_lm",
    "factor_graph.total_cost_ms": "factor_graph.total_cost",
    "factor_graph.marginalize_ms": "factor_graph.marginalize",
    "factor_graph.marginal_covariance_ms": "factor_graph.marginal_covariance",
}
LAYERS = ("preprocess", "imu", "registration", "factor_graph", "odometry")


def span_metrics(spans: list[Span], first_scan: int = 1) -> dict[str, float]:
    """Per-layer metrics of the scans numbered first_scan and later.

    Timings are the median inclusive duration per call in ms; ``<layer>.share``
    is the layer's summed self time over the summed scan time, so the shares
    add up to 1.  Counts are per scan.
    """
    own = self_times(spans)
    keep = [i for i, s in enumerate(spans) if s.scan >= first_scan]
    roots = [i for i in keep if spans[i].parent < 0]
    n_scans = max(len(roots), 1)
    scan_time = sum(spans[i].duration for i in roots) or 1.0
    by_name = defaultdict(list)
    for i in keep:
        by_name[spans[i].name].append(i)

    out = {}
    for metric, name in TIMED.items():
        out[metric] = _median_ms([spans[i].duration for i in by_name[name]])
    out["odometry.process_frame_self_ms"] = _median_ms([own[i] for i in roots])
    for layer in LAYERS:
        out[f"{layer}.share"] = sum(
            own[i] for i in keep if spans[i].name.split(".", 1)[0] == layer
        ) / scan_time

    kept = [spans[i].info for i in by_name["preprocess.voxel_downsample"]]
    out["preprocess.points_kept_ratio"] = (
        sum(k for _, k in kept) / max(sum(n for n, _ in kept), 1))
    out["imu.samples_per_scan"] = sum(
        spans[i].info for i in by_name["imu.preintegrate"]) / n_scans

    matches = [spans[i].info for i in by_name["registration.match_terms"]]
    out["registration.match_terms_calls"] = len(matches) / n_scans
    out["registration.linearize_calls"] = (
        len(by_name["registration.linearize_from_terms"]) / n_scans)
    out["registration.overlap_rate_calls"] = (
        len(by_name["registration.overlap_rate"]) / n_scans)
    out["registration.inlier_ratio"] = (
        sum(k for k, _ in matches) / max(sum(n for _, n in matches), 1))

    kids = _children(spans)
    iterations = evals = candidates = accepted = caps = failed = 0
    for i in by_name["factor_graph.optimize_lm"]:
        costs = [spans[c].info for c in kids[i]
                 if spans[c].name == "factor_graph.total_cost"
                 and spans[c].error is None]
        tried, took = _lm_steps(costs) if costs else (0, 0)
        candidates += tried
        accepted += took
        if spans[i].error == "NotConverged":
            failed += 1
        elif spans[i].info is not None:
            iterations += spans[i].info[0]
            evals += tried
            caps += spans[i].info[1]
    out["factor_graph.lm_iterations"] = iterations / n_scans
    out["factor_graph.cost_evals_per_iteration"] = evals / max(iterations, 1)
    out["factor_graph.lm_step_accept_ratio"] = accepted / max(candidates, 1)
    out["factor_graph.lm_cap_hits"] = caps / n_scans
    out["factor_graph.lm_not_converged"] = failed / n_scans
    return out


def count_signature(spans: list[Span]) -> tuple:
    """Hardware-independent content of a trace: names, nesting and records."""
    return tuple((s.name, s.parent, s.scan, repr(s.info), s.error) for s in spans)
