"""Dataset readers and writers.

Formats:

* Scan files: one binary file per scan inside a directory, filenames sorting
  in time order.  Each file starts with an ASCII header line naming the field
  order (``fields: x y z t``) followed by little-endian records of three
  32-bit floats and one 64-bit float.
* IMU: CSV with header ``t,ax,ay,az,wx,wy,wz`` in SI units.
* Trajectories: one line per record, ``stamp x y z qx qy qz qw``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import OutOfOrder, ParseError
from .geometry import Rotation, Se3Pose
from .imu import ImuSample
from .preprocess import RawScan

SCAN_HEADER = b"fields: x y z t\n"
_RECORD = struct.Struct("<fffd")


@dataclass(frozen=True)
class TrajectoryRecord:
    stamp: float
    position: np.ndarray  # (3,)
    orientation: np.ndarray  # quaternion (x, y, z, w)

    def pose(self) -> Se3Pose:
        return Se3Pose(Rotation(self.orientation), self.position)


def record_from_pose(stamp: float, pose: Se3Pose) -> TrajectoryRecord:
    return TrajectoryRecord(float(stamp), pose.translation.copy(),
                            pose.rotation.quat.copy())


# -- scans -------------------------------------------------------------------


def write_scan(scan: RawScan, path: str) -> None:
    n = len(scan)
    data = np.empty(n, dtype=np.dtype([("x", "<f4"), ("y", "<f4"),
                                       ("z", "<f4"), ("t", "<f8")]))
    data["x"] = scan.points[:, 0].astype(np.float32)
    data["y"] = scan.points[:, 1].astype(np.float32)
    data["z"] = scan.points[:, 2].astype(np.float32)
    data["t"] = scan.stamps
    with open(path, "wb") as fh:
        fh.write(SCAN_HEADER)
        fh.write(data.tobytes())


def read_scan(path: str) -> RawScan:
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != SCAN_HEADER:
            raise ParseError(f"bad scan header {header!r}", path=path, offset=0)
        payload = fh.read()
    if len(payload) % _RECORD.size != 0:
        offset = len(SCAN_HEADER) + (len(payload) // _RECORD.size) * _RECORD.size
        raise ParseError("truncated point record", path=path, offset=offset)
    data = np.frombuffer(payload, dtype=np.dtype([("x", "<f4"), ("y", "<f4"),
                                                  ("z", "<f4"), ("t", "<f8")]))
    points = np.column_stack([data["x"], data["y"], data["z"]]).astype(float)
    stamps = data["t"].astype(float)
    if len(stamps):
        start, end = float(stamps.min()), float(stamps.max())
    else:
        start, end = 0.0, 0.0
    return RawScan(points, stamps, start, max(end, start + 1e-9))


# -- IMU ----------------------------------------------------------------------

_IMU_HEADER = "t,ax,ay,az,wx,wy,wz"


def write_imu_csv(samples, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_IMU_HEADER + "\n")
        for s in samples:
            fields = [s.stamp, *s.accel, *s.gyro]
            fh.write(",".join(f"{v:.9g}" for v in fields) + "\n")


def read_imu_csv(path: str) -> list[ImuSample]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _IMU_HEADER:
            raise ParseError(f"bad IMU header {header!r}", path=path, offset=0)
        samples = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ParseError(f"line {lineno}: expected 7 columns, got {len(parts)}",
                                 path=path, offset=lineno)
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}", path=path, offset=lineno)
            samples.append(ImuSample(vals[0], np.array(vals[1:4]), np.array(vals[4:7])))
    for i in range(1, len(samples)):
        if samples[i].stamp <= samples[i - 1].stamp:
            raise OutOfOrder(f"IMU sample {i + 2} (line) out of order "
                             f"({samples[i].stamp:.6f} after {samples[i - 1].stamp:.6f})")
    return samples


# -- trajectories --------------------------------------------------------------


def write_trajectory(records, path: str) -> None:
    with open(path, "w") as fh:
        for r in records:
            vals = " ".join(f"{v:.9g}" for v in [*r.position, *r.orientation])
            fh.write(f"{r.stamp:.8f} {vals}\n")


def read_trajectory(path: str) -> list[TrajectoryRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ParseError(f"line {lineno}: expected 8 fields, got {len(parts)}",
                                 path=path, offset=lineno)
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}", path=path, offset=lineno)
            records.append(TrajectoryRecord(vals[0], np.array(vals[1:4]),
                                            np.array(vals[4:8])))
    for a, b in zip(records, records[1:]):
        if b.stamp <= a.stamp:
            raise OutOfOrder(f"trajectory stamps not increasing at {b.stamp:.8f}")
    return records
