"""Compare two result files metric by metric.

    python3 perfbench/compare.py before.json after.json

Both files are records written by `run.py --out`. For each workload and
metric present in both, prints the two values and the change as a share
of the first. A metric with a bound in BENCHMARK.json is marked WORSE
when it moved in its bad direction by more than that bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare(before: dict, after: dict, declared: dict) -> list[str]:
    lines = []
    for workload in sorted(before.keys() & after.keys()):
        lines.append(f"== {workload}")
        a, b = before[workload]["values"], after[workload]["values"]
        units = before[workload].get("units", {})
        for name in a:
            if name not in b:
                continue
            change = (b[name] - a[name]) / a[name] if a[name] else None
            spec = declared.get(name, {})
            flag = ""
            if change is not None and "bound" in spec:
                worse = change if spec["better"] == "lower" else -change
                flag = "WORSE" if worse > spec["bound"] else ""
            shown = "n/a" if change is None else f"{change:+.1%}"
            lines.append(f"  {name:<28} {a[name]:>14.6g} {b[name]:>14.6g} "
                         f"{units.get(name, ''):<6} {shown:>8} {flag}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = _load(BENCHMARK)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print("\n".join(compare(_load(argv[0]), _load(argv[1]), declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
