"""Command line entry point.

Subcommands mirror the pipeline stages plus fixture generation and filter
response export. Exit codes: 0 on success, 2 for validation problems (bad
arguments, manifests, or data), 3 for numeric failures (unstable filters,
indefinite matrices, solver non-convergence).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import NumericError
from .filters import FilterSpec, design_bandpass, write_response_csv
from .fixtures import FixtureSpec, generate_fixture
from . import pipeline as pl


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--manifest", help="override the config manifest path")
    p.add_argument("--out", dest="out_dir", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="override the L1 weight")
    p.add_argument("--k-folds", type=int, help="override the fold count")
    p.add_argument("--threshold", dest="posterior_threshold", type=float,
                   help="override the posterior threshold")
    p.add_argument("--top-fraction", dest="top_edge_fraction", type=float,
                   help="override the kept edge fraction")
    p.add_argument("--n-train", type=int, help="override the train split size")
    p.add_argument("--n-filters", type=int, help="override the filter count")
    p.add_argument("--band-mode", choices=pl.BAND_MODES,
                   help="override the band mode")
    p.add_argument("--dataset-kind", choices=pl.DATASET_KINDS,
                   help="override the dataset kind")


def _load_config(args: argparse.Namespace) -> pl.PipelineConfig:
    # every option but --config is named after the config field it sets
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config")}
    return pl.PipelineConfig.from_file(args.config, **overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relconn",
        description="Reliable-trial selection for EEG connectivity analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = FixtureSpec()
    p = sub.add_parser("fixture", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--channels", type=int, default=defaults.n_channels)
    p.add_argument("--trials-per-class", type=int, default=defaults.n_per_class)
    p.add_argument("--snr", type=float, default=defaults.snr,
                   help="signal-to-noise power ratio (inf for noiseless)")
    p.add_argument("--irrelevant-fraction", type=float,
                   default=defaults.irrelevant_fraction)
    p.add_argument("--fs", type=float, default=defaults.sampling_rate_hz)
    p.add_argument("--duration", type=float, default=defaults.duration_s)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--session-shift", type=float,
                   default=defaults.session_shift)

    p = sub.add_parser("filter-response",
                       help="export a designed filter's magnitude response")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--family", choices=["butterworth", "elliptic"],
                   default="butterworth")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--low", type=float, default=0.1)
    p.add_argument("--high", type=float, default=10.0)
    p.add_argument("--fs", type=float, default=200.0)
    p.add_argument("--ripple", type=float, default=1.0)
    p.add_argument("--atten", type=float, default=50.0)
    p.add_argument("--points", type=int, default=1024)

    for name, help_text in (
            ("fit-csp", "fit spatial filters on the training split"),
            ("train", "train the tangent-space model"),
            ("cv", "cross-validate on the training split"),
            ("evaluate", "score the model on the held-out split"),
            ("select", "pick confident, correctly classified trials"),
            ("graph", "build connectivity graphs and node metrics"),
            ("report", "summarize separability before/after selection"),
            ("run", "run the full pipeline")):
        p = sub.add_parser(name, help=help_text)
        _add_config_options(p)

    return parser


def _run_command(args: argparse.Namespace) -> None:
    if args.command == "fixture":
        spec = FixtureSpec(
            n_channels=args.channels,
            n_per_class=args.trials_per_class,
            snr=math.inf if math.isinf(args.snr) else args.snr,
            irrelevant_fraction=args.irrelevant_fraction,
            sampling_rate_hz=args.fs,
            duration_s=args.duration,
            n_train=args.n_train,
            session_shift=args.session_shift,
        )
        manifest, truth = generate_fixture(spec, args.seed, args.out)
        print(manifest)
        print(truth)
        return

    if args.command == "filter-response":
        spec = FilterSpec(args.family, args.order, (args.low, args.high),
                          args.fs, args.ripple, args.atten)
        write_response_csv(design_bandpass(spec), args.out, args.points)
        print(args.out)
        return

    cfg = _load_config(args)
    stages = {
        "fit-csp": pl.stage_fit_csp,
        "train": pl.stage_train,
        "cv": pl.stage_cv,
        "evaluate": pl.stage_evaluate,
        "select": pl.stage_select,
        "graph": pl.stage_graph,
        "report": pl.stage_report,
    }
    if args.command == "run":
        for path in pl.run_pipeline(cfg).values():
            print(path)
        return
    result = stages[args.command](cfg)
    if isinstance(result, list):
        for path in result:
            print(path)
    else:
        print(result)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run_command(args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
