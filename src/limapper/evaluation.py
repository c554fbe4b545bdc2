"""Trajectory accuracy metric: absolute trajectory error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap

ASSOCIATION_TOL = 0.05  # seconds


def associate(est_records, gt_records):
    """Pair each estimate with the nearest ground-truth stamp within
    ASSOCIATION_TOL."""
    gt_stamps = np.array([r.stamp for r in gt_records])
    pairs = []
    for rec in est_records:
        i = int(np.searchsorted(gt_stamps, rec.stamp))
        best, best_dt = None, ASSOCIATION_TOL
        for j in (i - 1, i):
            if 0 <= j < len(gt_records):
                dt = abs(gt_stamps[j] - rec.stamp)
                if dt <= best_dt:
                    best, best_dt = j, dt
        if best is not None:
            pairs.append((rec, gt_records[best]))
    return pairs


def umeyama_alignment(src: np.ndarray, dst: np.ndarray):
    """Rigid SE(3) transform (no scale) minimizing ||R src + t - dst||."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (dst - mu_d).T @ (src - mu_s) / len(src)
    u, _, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rot = u @ s @ vt
    t = mu_d - rot @ mu_s
    return rot, t


@dataclass(frozen=True)
class AteResult:
    rmse: float


def compute_ate(estimate, ground_truth) -> AteResult:
    """Post-alignment RMSE of translational residuals.

    Estimate and ground truth are lists of TrajectoryRecord, paired by
    nearest stamp within ASSOCIATION_TOL.  The estimate is first mapped onto
    the ground truth by the closed-form rigid alignment.
    """
    pairs = associate(estimate, ground_truth)
    if len(pairs) < 3:
        raise InsufficientOverlap(f"only {len(pairs)} associated pose pairs")
    est = np.array([p[0].position for p in pairs])
    gt = np.array([p[1].position for p in pairs])
    rot, t = umeyama_alignment(est, gt)
    est = est @ rot.T + t
    errors = np.linalg.norm(est - gt, axis=1)
    return AteResult(rmse=float(np.sqrt(np.mean(errors**2))))
