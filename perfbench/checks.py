"""Output checks run on every iteration.

Each iteration's artifacts are hashed and must match the first
iteration's bytes exactly. Results are not compared with a golden file
from another commit: batched LAPACK calls may change the last bits of
artifact values between versions, but never between two runs of one
version.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An iteration's outputs are missing, malformed or not reproducible."""


def artifact_digest(out_dir: Path, artifacts: dict) -> tuple:
    """(artifact name, sha256) for every artifact, in ARTIFACTS order."""
    digest = []
    for name, filename in artifacts.items():
        path = Path(out_dir) / filename
        if not path.is_file():
            raise CheckError(f"artifact {name} ({filename}) was not written")
        digest.append((name, hashlib.sha256(path.read_bytes()).hexdigest()))
    return tuple(digest)


def compare_digests(reference: list, digest: list) -> None:
    """Raise naming the first artifact whose bytes differ."""
    if len(reference) != len(digest):
        raise CheckError("iteration wrote a different number of snapshots")
    for ref_group, group in zip(reference, digest):
        for (name, ref_hash), (_, new_hash) in zip(ref_group, group):
            if ref_hash != new_hash:
                raise CheckError(f"artifact {name} differs from the first "
                                 f"iteration")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def quality(out_dir: Path, artifacts: dict, truth: dict) -> dict[str, float]:
    """Quality metrics read back from the artifacts.

    irrelevant_excluded_frac is the share of the planted irrelevant trials
    among the evaluated (test) trials that the selection left out;
    selection_precision_pct is the share of selected trials that are not
    planted irrelevant ones.
    """
    out_dir = Path(out_dir)
    try:
        cv = _read_json(out_dir / artifacts["cv_summary"])["mean_accuracy"]
        ev = _read_json(out_dir / artifacts["eval_report"])["accuracy"]
        sep = _read_json(out_dir / artifacts["separability"])["n_improved"]
        selected = set(_read_json(out_dir / artifacts["selected_trials"])
                       ["selected_ids"])
        with open(out_dir / artifacts["eval_per_trial"], "r",
                  encoding="utf-8", newline="") as fh:
            evaluated = {int(row["trial_id"]) for row in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError, TypeError) as e:
        raise CheckError(f"cannot read quality metrics: {e!r}") from e

    irrelevant = set(truth["irrelevant_ids"]) & evaluated
    if not irrelevant:
        raise CheckError("no planted irrelevant trial was evaluated")
    if not selected:
        raise CheckError("the selection is empty")
    values = {
        "eval_accuracy_pct": ev,
        "cv_accuracy_pct": cv,
        "sep_n_improved": sep,
        "irrelevant_excluded_frac": len(irrelevant - selected) / len(irrelevant),
        "selection_precision_pct":
            100.0 * len(selected - irrelevant) / len(selected),
    }
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise CheckError(f"quality metric {name} is not a finite "
                             f"number: {value!r}")
    return values
