"""The trajectory record: a stamped position, as the ATE compares them.

Readers and writers of dataset files come with the datasets whose files
they read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Se3Pose


@dataclass(frozen=True)
class TrajectoryRecord:
    stamp: float
    position: np.ndarray  # (3,)


def record_from_pose(stamp: float, pose: Se3Pose) -> TrajectoryRecord:
    return TrajectoryRecord(float(stamp), pose.translation.copy())
