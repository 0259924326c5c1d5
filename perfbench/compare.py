#!/usr/bin/env python3
"""Compare two benchmark reports written by run.py.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Prints every metric the two reports share with both values and their ratio.
Differences in the recorded environment are printed first; a different NMS
kernel backend is flagged, because the compiled and numpy kernels differ by
about 2.5x on the radius sweep, so such a comparison measures the backend,
not the change.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path)) for path in argv)
    for key in ("workload", "seed", "seconds"):
        if before[key] != after[key]:
            print(f"NOTE {key} differs: {before[key]!r} vs {after[key]!r}")
    for key in sorted(before["env"].keys() | after["env"].keys()):
        a, b = before["env"].get(key), after["env"].get(key)
        if a != b:
            flag = "WARNING backends differ" if key == "backend" else "NOTE env differs"
            print(f"{flag}: {key} = {a!r} vs {b!r}")
    for group in ("end_to_end", "per_layer"):
        shared = [name for name in before[group] if name in after[group]]
        for name in shared:
            a, b = before[group][name], after[group][name]
            ratio = f"{b / a:8.3f}x" if a else "       -"
            print(f"  {name:<40} {a:>14.6g} {b:>14.6g} {ratio}")
    if not (before["correct"] and after["correct"]):
        print(f"WARNING output checks failed: before {before['correct']}, after {after['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
