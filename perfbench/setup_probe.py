"""Child process: time what a caller pays before the first ascent step.

Usage: setup_probe.py INPUT MODE

In a fresh interpreter, times `import isoembed`, `load_points` and the
direction-set build (`pairwise_unit_differences`, or the row check and
`normalize_rows` that `embed --mode rows` makes), and prints
{"setup_s": ..., "n": ..., "d": ...} as JSON.
"""

import json
import sys
import time

from traced import build_directions  # standard library only at import time

t0 = time.perf_counter()

import isoembed  # noqa: E402

points = isoembed.load_points(sys.argv[1])
units = build_directions(points, sys.argv[2])
setup_s = time.perf_counter() - t0
print(json.dumps({"setup_s": setup_s, "n": units.n, "d": units.d}))
