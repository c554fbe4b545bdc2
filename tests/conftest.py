"""Test settings shared by the suite.

Hypothesis draws its examples from a fixed seed (``derandomize``), so every
run checks the same cases and a failure repeats, and it applies no
per-example deadline, because the speed of a shared host can drift by half
between runs.  ``max_examples`` bounds the time the property tests add.
With fixed examples an example database would add nothing, so none is kept.

The benchmark's directory goes on the import path, so that the tests build
its scenes with its own helpers (``workloads``, ``run``) instead of copies.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

settings.register_profile("limapper", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("limapper")
