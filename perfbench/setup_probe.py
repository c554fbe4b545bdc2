"""Time the odometry set-up in a fresh interpreter.

Reads the first scan and its IMU batch as an ``.npz`` archive on standard
input, then times importing limapper, constructing ``OdometryEstimator``
and the bootstrap ``process_frame``.  Decoding the input is not timed.
Prints one JSON object: ``{"setup_s": ..., "wall_s": ..., "finite": ...}``,
where ``setup_s`` is ``wall_s`` scaled by the host speed around it
(``speed.py``).

    python3 perfbench/setup_probe.py src < first_scan.npz
"""

import io
import json
import sys
import time

from speed import reference_s, speed


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    data = sys.stdin.buffer.read()
    before = reference_s()
    t0 = time.perf_counter()
    import numpy as np
    from limapper.imu import ImuSample
    from limapper.odometry import OdometryEstimator
    from limapper.preprocess import RawScan
    t1 = time.perf_counter()
    a = np.load(io.BytesIO(data))
    scan = RawScan(a["points"], a["stamps"], float(a["span"][0]), float(a["span"][1]))
    imu = [ImuSample(float(t), acc, gyr)
           for t, acc, gyr in zip(a["imu_stamps"], a["imu_accel"], a["imu_gyro"])]
    t2 = time.perf_counter()
    state = OdometryEstimator().process_frame(scan, imu).state
    t3 = time.perf_counter()
    after = reference_s()
    wall = (t1 - t0) + (t3 - t2)
    finite = bool(np.all(np.isfinite(np.concatenate([
        state.pose.rotation.quat, state.pose.translation, state.velocity,
        state.bias_accel, state.bias_gyro]))))
    print(json.dumps({"setup_s": wall * speed([before, after]), "wall_s": wall,
                      "finite": finite}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
