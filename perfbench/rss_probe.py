"""Run one iteration of an already set-up workload in this fresh process.

    python3 perfbench/rss_probe.py <workload> <set-up directory>

Prints one JSON line: the process's peak resident set size, the
iteration's artifact digest and its error, if any.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import bootstrap


def main(argv: list[str]) -> int:
    name, root = argv
    bootstrap.prepare()
    from workloads import WORKLOADS, Prepared, run_iteration

    it = run_iteration(Prepared(WORKLOADS[name], Path(root)))
    print(json.dumps({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "seconds": it.seconds,
        "digest": it.digest,
        "error": it.error,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
