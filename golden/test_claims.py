"""The paper's claims about the odometry, each checked as an ablation on
the two-lap golden run (``two_laps`` in conftest.py).

- Low drift from keyframe-based fixed-lag smoothing: withholding the
  factors to marginalized keyframes must raise the ATE well above that of
  the run that keeps them (this module).
- Bounded computation cost: the per-scan counters of test_two_laps.py.
- Robustness in feature-less places, from the IMU constraints: pending;
  the odometry does not yet keep track through the gap scene.
"""

from limapper import odometry
from limapper.dataset_io import record_from_pose
from limapper.evaluation import compute_ate
from test_odometry import run


def ate_rmse(scene, results) -> float:
    records = [record_from_pose(r.state.stamp, r.state.pose) for r in results]
    return compute_ate(records, scene.ground_truth).rmse


def test_keyframe_factors_keep_the_drift_low(two_laps, monkeypatch):
    # measured on two laps at seed 1: ATE 4.19 mm with the keyframe factors
    # and 30.89 mm without them (ratio 0.136), in runs of about 12 s and
    # 9 s; the bound on the ratio is 0.5
    scene, _, kept, _, _ = two_laps
    linked = odometry.linked

    def without_keyframe_factors(candidates, values):
        """The block of the linked candidates, less the rows of those to a
        marginalized keyframe (the grounding ones), so that no such factor
        is added; the keyframe set and the links to window frames stay as
        they are."""
        block = linked(candidates, values)
        block.keep([n for n, f in enumerate(block.factors) if not f.grounding])
        return block

    monkeypatch.setattr(odometry, "linked", without_keyframe_factors)
    est, withheld = run(scene)
    assert len(withheld) == len(kept) == 272
    assert all(r.warning is None for r in withheld)
    assert est.keyframes and not any(
        f.kind == "matching-cost-unary" for f in est.graph.factors)
    assert ate_rmse(scene, kept) <= 0.5 * ate_rmse(scene, withheld)
