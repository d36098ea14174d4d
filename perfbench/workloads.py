"""The workloads: how each is set up from a seed and what one iteration
runs. The program is driven only through `relconn.cli.main`, in process.

Set-up generates the dataset with `relconn.fixtures.generate_fixture`,
writes the config and reads every trial file once, so the files are warm
in the page cache as they are for a user rerunning a recording.
"""

from __future__ import annotations

import io
import json
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from relconn import cli, geometry
from relconn.fixtures import FixtureSpec, generate_fixture
from relconn.pipeline import ARTIFACTS, PipelineConfig

from checks import CheckError, artifact_digest, quality
from layers import ROOT_SPAN

# BCI IV 2a shape, and the ROADMAP's large ErrP shape
SHAPE_M = dict(n_channels=22, n_per_class=144, sampling_rate_hz=250.0,
               duration_s=4.0)
SHAPE_L = dict(n_channels=64, n_per_class=400, sampling_rate_hz=200.0,
               duration_s=1.0)
SELECTION_STAGES = ("select", "graph", "report")


@dataclass(frozen=True)
class Workload:
    """A dataset shape, a config, and the CLI calls of one iteration.

    With `thresholds` empty an iteration is one `relconn run`. Otherwise
    set-up includes one full run, and an iteration reruns select, graph and
    report as separate calls at each threshold.
    """

    name: str
    fixture: dict
    config: dict
    thresholds: tuple[float, ...] = ()

    def call_groups(self, config_path) -> list[list[list[str]]]:
        """The iteration's CLI calls, grouped: outputs are checked after
        each group."""
        cfg = str(config_path)
        if not self.thresholds:
            return [[["run", "--config", cfg]]]
        return [[[stage, "--config", cfg, "--threshold", repr(t)]
                 for stage in SELECTION_STAGES]
                for t in self.thresholds]


WORKLOADS = {w.name: w for w in (
    # filter- and solver-heavy: two elliptic bands on 4 s trials, a 3.5 s
    # epoch and long L1 fits. Not declared in BENCHMARK.json: its solver
    # work, and so its time, changes too much from seed to seed.
    Workload("mi_concat_M", SHAPE_M,
             {"dataset_kind": "motor_imagery", "band_mode": "concat"}),
    # geometry- and data-heavy: 6.4k tangent maps and five loads of 82 MB
    # per run, short fits
    Workload("errp_L", SHAPE_L, {"dataset_kind": "errp"}),
    # stage-isolated reruns that each load for themselves and never train,
    # so a load-once change for full runs should not move it
    Workload("reselect_L", SHAPE_L, {"dataset_kind": "errp"},
             thresholds=(0.6, 0.7, 0.8, 0.9)),
)}


@dataclass(frozen=True)
class Prepared:
    """A workload set up in its own directory."""

    workload: Workload
    root: Path

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def out_dir(self) -> Path:
        return self.root / "out"

    @cached_property
    def truth(self) -> dict:
        with open(self.root / "data" / "fixture_truth.json", "r",
                  encoding="utf-8") as fh:
            return json.load(fh)

    @property
    def n_trials(self) -> int:
        return 2 * self.workload.fixture["n_per_class"]

    @property
    def n_bands(self) -> int:
        cfg = PipelineConfig.from_file(self.config_path)
        return len(cfg.filter_specs(self.workload.fixture["sampling_rate_hz"]))

    @property
    def trials_per_iteration(self) -> int:
        """Trials through a run; test trials x thresholds for reruns."""
        if not self.workload.thresholds:
            return self.n_trials
        n_test = self.n_trials - self.truth["n_train"]
        return n_test * len(self.workload.thresholds)


class SetupError(Exception):
    pass


# captured before tracing rebinds anything
_main = cli.main
_reset_clamps = getattr(geometry, "reset_clamp_events", None)
_clamp_count = getattr(geometry, "clamp_event_count", None)


def call(argv: list[str], recorder=None) -> tuple[int, float, str]:
    """One CLI invocation: (exit code, wall seconds, captured output).

    The process-global clamp counter is reset first, so each call starts
    as it would in a fresh process.
    """
    if _reset_clamps is not None:
        _reset_clamps()
    log = io.StringIO()
    with redirect_stdout(log), redirect_stderr(log):
        if recorder is None:
            start = time.perf_counter()
            rc = _main(argv)
            seconds = time.perf_counter() - start
        else:
            index = recorder.open(ROOT_SPAN, "pipeline")
            try:
                rc = _main(argv)
            finally:
                recorder.close(index)
            span = recorder.spans[index]
            seconds = span.end - span.start
    if recorder is not None and _clamp_count is not None:
        recorder.count("geometry.clamp_events", _clamp_count())
    return rc, seconds, log.getvalue()


def setup(workload: Workload, seed: int, root: Path) -> Prepared:
    prepared = Prepared(workload, Path(root))
    manifest, _ = generate_fixture(FixtureSpec(**workload.fixture), seed,
                                   prepared.root / "data")
    config = {**workload.config, "manifest": str(manifest),
              "out_dir": str(prepared.out_dir)}
    prepared.config_path.write_text(json.dumps(config, indent=2) + "\n",
                                    encoding="utf-8")
    for path in sorted((prepared.root / "data").rglob("*")):
        if path.is_file():
            path.read_bytes()
    if workload.thresholds:
        rc, _, log = call(["run", "--config", str(prepared.config_path)])
        if rc != 0:
            raise SetupError(f"relconn run exited {rc}: {log.strip()}")
    return prepared


@dataclass
class Iteration:
    seconds: float
    digest: list
    quality: dict | None
    error: str | None = None


def run_iteration(prepared: Prepared, recorder=None) -> Iteration:
    """Run one iteration and check its outputs.

    `seconds` covers the CLI calls only; hashing and reading back the
    quality metrics happen between calls and are not timed. The quality
    metrics are read after every group of calls and averaged, so for
    threshold reruns they are means over the thresholds. Any exception or
    failed check is returned as `error`, so the loop keeps measuring.
    """
    it = Iteration(0.0, [], None)
    try:
        snapshots = []
        for argvs in prepared.workload.call_groups(prepared.config_path):
            for argv in argvs:
                rc, seconds, log = call(argv, recorder)
                it.seconds += seconds
                if rc != 0:
                    raise CheckError(f"relconn {argv[0]} exited {rc}: "
                                     f"{log.strip()[-500:]}")
            it.digest.append(artifact_digest(prepared.out_dir, ARTIFACTS))
            snapshots.append(quality(prepared.out_dir, ARTIFACTS,
                                     prepared.truth))
        it.quality = {key: statistics.fmean(q[key] for q in snapshots)
                      for key in snapshots[0]}
    except CheckError as e:
        it.error = str(e)
    except Exception:
        it.error = traceback.format_exc(limit=3)
    return it
