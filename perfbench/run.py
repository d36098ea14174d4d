"""Benchmark relconn on one workload, or on all of them.

    python3 perfbench/run.py --workload errp_L --seed 1 --seconds 10 --trace 0

Set-up generates the workload's dataset from the seed. The untimed part
then runs one iteration in a fresh process for its peak RSS, and the
timed part runs iterations back to back (a closed loop, one client) for
`--seconds`; `run_s` is the median iteration. Every iteration's outputs
are checked.

With `--trace 0` the end-to-end metrics named in BENCHMARK.json are
reported; with `--trace 1` untraced and traced iterations alternate and
the per-layer metrics of the median traced iteration are reported. A
table of every metric comes first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--workload all` it maps each workload to such an object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# relconn, and the benchmark modules that import it, are imported inside
# functions: only after bootstrap.prepare() has pinned BLAS and found src/
import bootstrap
from checks import CheckError, compare_digests

HERE = Path(__file__).resolve().parent
WORK = bootstrap.ROOT / ".perfbench_work"
# set-ups per run: at least this many, and more until this much set-up
# time has been spent
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 6.0
PROBE_TIMEOUT_S = 150
QUALITY = ("eval_accuracy_pct", "cv_accuracy_pct",
           "selection_precision_pct", "sep_n_improved",
           "irrelevant_excluded_frac")
# reported in the table and --out record, but not declared in
# BENCHMARK.json: failed_frac is 0 on a correct run; sep_n_improved and
# irrelevant_excluded_frac change from seed to seed by more than any
# declarable bound (selection_precision_pct, which is declared, does
# not); the four stages never run in reselect_L's iterations, so there
# their times would read a constant 0
EXTRA_UNITS = {"failed_frac": "ratio", "sep_n_improved": "count",
               "irrelevant_excluded_frac": "ratio",
               "stage.fit-csp.s": "s", "stage.train.s": "s",
               "stage.cv.s": "s", "stage.evaluate.s": "s",
               "trace.unaccounted_s": "s"}


def declared_metrics(kind: str) -> dict[str, str]:
    with open(bootstrap.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def set_up(workload, seed: int, root: Path):
    """Set the workload up once in `root`: (prepared, wall seconds)."""
    from workloads import setup

    start = time.perf_counter()
    prepared = setup(workload, seed, root)
    return prepared, time.perf_counter() - start


def set_up_again(workload, seed: int, work: Path,
                 first_seconds: float) -> list[float]:
    """Time more set-ups after the timed loop, each deleted before the
    next, until there are SETUP_MIN_REPEATS and SETUP_BUDGET_S has been
    spent; returns every set-up time, the first included.

    Creating the 800 trial files of an L dataset takes from 0.4 s to 1.0 s
    depending on what the shared disk is doing, so a cheap set-up is
    repeated many times.
    """
    times = [first_seconds]
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_BUDGET_S:
        prepared, seconds = set_up(workload, seed, work / f"again{len(times)}")
        shutil.rmtree(prepared.root)
        times.append(seconds)
    return times


def probe_peak_rss(prepared) -> dict:
    """One iteration in a fresh process; its peak RSS and digest."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rss_probe.py"),
             prepared.workload.name, str(prepared.root)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"fresh process ran over {PROBE_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"fresh process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outcome(attempts) -> dict:
    """Failures across all attempts; an attempt whose artifacts differ
    from the first good attempt's has failed too."""
    ok = [it for it in attempts if it.error is None]
    for it in ok[1:]:
        try:
            compare_digests(ok[0].digest, it.digest)
        except CheckError as e:
            it.error = str(e)
    errors = [it.error for it in attempts if it.error]
    return {"attempted": len(attempts), "failed": len(errors),
            "errors": errors, "correct": not errors}


def closed_loop(seconds: float, step) -> None:
    """Call step() back to back, at least once, until `seconds` passed."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    from workloads import Iteration, run_iteration

    prepared, first_setup = set_up(workload, seed, work / "measured")
    probe = probe_peak_rss(prepared)
    iterations = []
    closed_loop(seconds, lambda: iterations.append(run_iteration(prepared)))
    setup_times = set_up_again(workload, seed, work, first_setup)

    fresh = Iteration(probe.get("seconds", 0.0), probe.get("digest", []),
                      None, probe.get("error"))
    result = outcome(iterations + [fresh])

    ok = [it for it in iterations if it.error is None] or iterations
    run_s = statistics.median(it.seconds for it in ok)
    values = {
        "run_s": run_s,
        "trials_per_s": prepared.trials_per_iteration / run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": probe.get("peak_rss_kb", 0) / 1024.0,
        "failed_frac": result["failed"] / result["attempted"],
    }
    quality = next((it.quality for it in ok if it.quality), {})
    values.update({key: quality.get(key, 0.0) for key in QUALITY})
    notes = {"run_s": f"median of {len(ok)} iterations",
             "setup_s": f"median of {len(setup_times)} set-ups"}
    samples = {"run_s": [it.seconds for it in iterations],
               "setup_s": setup_times,
               "trials_per_iteration": prepared.trials_per_iteration}
    return {**result, "values": values, "kind": "end_to_end",
            "notes": notes, "samples": samples}


def measure_traced(workload, seed: int, seconds: float, work: Path,
                   spans_out: Path | None) -> dict:
    import layers
    import spans
    from workloads import run_iteration

    prepared, setup_seconds = set_up(workload, seed, work / "measured")
    untraced, traced, summaries, recorded = [], [], [], []

    def step():
        untraced.append(run_iteration(prepared))
        recorder = spans.Recorder()
        restore = spans.install(layers.PACKAGE, layers.LAYERS, recorder,
                                layers.HOOKS)
        try:
            traced.append(run_iteration(prepared, recorder))
        finally:
            restore()
        summaries.append(layers.summarize(
            recorder, prepared.n_trials * prepared.n_bands))
        if spans_out is not None:
            recorded.append(recorder.spans)

    closed_loop(seconds, step)
    result = outcome(untraced + traced)
    if spans_out is not None:
        write_spans(spans_out, recorded)

    median_untraced = statistics.median(it.seconds for it in untraced)
    values = sorted(summaries, key=lambda m: m["trace.run_s"])[
        (len(summaries) - 1) // 2]
    values["trace.untraced_run_s"] = median_untraced
    values["trace.overhead_frac"] = (
        statistics.median(m["trace.run_s"] for m in summaries)
        - median_untraced) / median_untraced
    notes = {"trace.run_s": f"median of {len(summaries)} traced iterations"}
    samples = {"untraced_run_s": [it.seconds for it in untraced],
               "traced_run_s": [m["trace.run_s"] for m in summaries],
               "setup_s": [setup_seconds]}
    return {**result, "values": values, "kind": "per_layer",
            "notes": notes, "samples": samples}


def write_spans(path: Path, iterations: list) -> None:
    rows = []
    for i, recorded in enumerate(iterations):
        origin = recorded[0].start if recorded else 0.0
        rows.extend({"iteration": i, "name": s.name, "layer": s.layer,
                     "start_s": s.start - origin, "end_s": s.end - origin,
                     "parent": s.parent} for s in recorded)
    Path(path).write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _blas() -> dict:
    import numpy

    info = {}
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": build.get("name"), "version": build.get("version")}
    except (TypeError, KeyError):
        pass
    threads = {}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            mapped = {line.split()[-1] for line in fh}
    except OSError:
        mapped = set()
    libs = sorted(p for p in mapped if Path(p).name.startswith("lib")
                  and "blas" in Path(p).name.lower())
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(lib_path).name] = getattr(lib, symbol)()
                break
    info["threads"] = threads
    info["env"] = {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS}
    return info


def _git_sha() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree
    (not merely inside one)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != bootstrap.ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "src_relconn_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((bootstrap.SRC / "relconn").rglob("*.py"))),
    }


def report(name: str, record: dict, units: dict[str, str]) -> dict:
    """Print the table; return the contract's result object."""
    from layers import COMPUTED

    values = record["values"]
    print(f"== {name}: {record['kind']}, {record['attempted']} attempted, "
          f"{record['failed']} failed")
    for metric, unit in {**units, **EXTRA_UNITS}.items():
        if metric in values:
            note = record["notes"].get(metric, "")
            if metric in COMPUTED:
                note = "computed from shapes"
            note = f" ({note})" if note else ""
            print(f"  {metric:<28} {values[metric]:>16.6g} {unit}{note}")
    for key, samples in record["samples"].items():
        print(f"  samples {key}: {samples}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full record, environment and "
                             "samples included, as JSON")
    parser.add_argument("--spans-out", type=Path,
                        help="with --trace 1 and one workload, write every "
                             "span as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as e:
        print(f"error: {e}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = declared_metrics("per_layer" if args.trace else "end_to_end")

    records, results = {}, {}
    work = WORK / str(os.getpid())
    try:
        for name in names:
            if args.trace:
                record = measure_traced(WORKLOADS[name], args.seed,
                                        args.seconds, work / name,
                                        args.spans_out)
            else:
                record = measure(WORKLOADS[name], args.seed, args.seconds,
                                 work / name)
            record["environment"] = environment(args.seed)
            results[name] = report(name, record, units)
            records[name] = record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.out is not None:
        full = {name: {**rec, "units": {**units, **EXTRA_UNITS}}
                for name, rec in records.items()}
        args.out.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
