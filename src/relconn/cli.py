"""Command line entry point.

Subcommands mirror the pipeline stages plus fixture generation and filter
response export. Exit codes: 0 on success, 2 for validation problems (bad
arguments, manifests, or data), 3 for numeric failures, that is any
ArithmeticError (unstable filters, indefinite matrices, solver
non-convergence, overflow).
"""

from __future__ import annotations

import argparse
import sys

from .filters import (FAMILIES, RESPONSE_POINTS, FilterSpec, design_bandpass,
                      write_response_csv)
from .fixtures import FixtureSpec, generate_fixture
from . import pipeline as pl


def _config_options() -> argparse.ArgumentParser:
    """The options of every stage subcommand and `run`, on a parent parser
    built once per `build_parser`. Besides the config and the paths, the
    one option is the posterior threshold, which threshold reruns change
    on every call and which only select reads, recording it in its
    artifact. Every other run value comes from the config alone, so the
    stages that read it cannot disagree on it."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--manifest", help="override the config manifest path")
    p.add_argument("--out", dest="out_dir", help="override the output directory")
    p.add_argument("--threshold", dest="posterior_threshold", type=float,
                   help="override the posterior threshold")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relconn",
        description="Reliable-trial selection for EEG connectivity analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    # options are named after FixtureSpec fields; unset ones keep its defaults
    p = sub.add_parser("fixture", help="Generate a synthetic dataset.",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--channels", dest="n_channels", type=int)
    p.add_argument("--trials-per-class", dest="n_per_class", type=int)
    p.add_argument("--snr", type=float,
                   help="signal-to-noise power ratio (inf for noiseless)")
    p.add_argument("--irrelevant-fraction", type=float)
    p.add_argument("--fs", dest="sampling_rate_hz", type=float)
    p.add_argument("--duration", dest="duration_s", type=float)
    p.add_argument("--n-train", type=int)
    p.add_argument("--session-shift", type=float)

    # the design defaults are those of the errp dataset kind
    design, ((low, high),), _ = pl.DATASET_KINDS["errp"]
    p = sub.add_parser("filter-response",
                       help="Export a designed filter's magnitude response.")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--family", choices=FAMILIES, default=design["family"])
    p.add_argument("--order", type=int, default=design["order"])
    p.add_argument("--low", type=float, default=low)
    p.add_argument("--high", type=float, default=high)
    p.add_argument("--fs", type=float, default=200.0)
    p.add_argument("--ripple", type=float,
                   default=FilterSpec.passband_ripple_db)
    p.add_argument("--atten", type=float,
                   default=FilterSpec.stopband_atten_db)
    p.add_argument("--points", type=int, default=RESPONSE_POINTS)

    config = _config_options()
    for name, fn in [*pl.stages().items(), ("run", pl.run_pipeline)]:
        sub.add_parser(name, help=fn.__doc__.splitlines()[0],
                       parents=[config])
    return parser


def _run_command(args: argparse.Namespace) -> None:
    if args.command == "fixture":
        fields = {key: value for key, value in vars(args).items()
                  if key not in ("command", "out", "seed")}
        manifest, truth = generate_fixture(FixtureSpec(**fields), args.seed,
                                           args.out)
        print(manifest)
        print(truth)
        return

    if args.command == "filter-response":
        spec = FilterSpec(args.family, args.order, (args.low, args.high),
                          args.fs, args.ripple, args.atten)
        write_response_csv(design_bandpass(spec), args.out, args.points)
        print(args.out)
        return

    # every option but --config is named after the config field it sets
    cfg = pl.PipelineConfig.from_file(args.config, **{
        key: value for key, value in vars(args).items()
        if key not in ("command", "config")})
    if args.command == "run":
        paths = pl.run_pipeline(cfg).values()
    else:
        paths = pl.stages()[args.command](pl.Plan(cfg))
    for path in paths:
        print(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run_command(args)
    except ArithmeticError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
