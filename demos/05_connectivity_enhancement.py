"""Run the full pipeline on a synthetic dataset and show how trial
selection changes the between-class contrast of the graph metrics."""

import json
import tempfile
from pathlib import Path

from relconn.fixtures import FixtureSpec, generate_fixture
from relconn.pipeline import PipelineConfig, run_pipeline

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    manifest, truth_path = generate_fixture(FixtureSpec(), seed=42,
                                            out_dir=work / "data")
    truth = json.loads(truth_path.read_text())
    print(f"dataset: {manifest}")

    cfg = PipelineConfig("errp", str(manifest), str(work / "out"),
                         lam=5.0 / truth["n_train"])
    paths = run_pipeline(cfg)
    print(f"{len(paths)} artifacts in {cfg.out_dir}\n")

    report = json.loads(cfg.out_path("eval_report").read_text())
    picked = json.loads(cfg.out_path("selected_trials").read_text())
    sep = json.loads(cfg.out_path("separability").read_text())

print(f"held-out accuracy: {report['accuracy']:.1f}%")
print(f"selected {picked['n_selected']}/{picked['n_evaluated']} trials "
      f"at threshold {picked['threshold']}")

print("\nbetween-class metric contrast (higher is better):")
print(f"{'metric':>18}  {'all trials':>10}  {'selected':>10}")
for name in sorted(sep["all"]):
    mark = "+" if sep["improved"][name] else " "
    print(f"{name:>18}  {sep['all'][name]:10.4f}  "
          f"{sep['selected'][name]:10.4f} {mark}")
print(f"\nimproved on {sep['n_improved']}/4 metrics")

excluded = [t for t in truth["irrelevant_ids"]
            if t >= truth["n_train"] and t not in set(picked["selected_ids"])]
planted = [t for t in truth["irrelevant_ids"] if t >= truth["n_train"]]
print(f"planted irrelevant excluded: {len(excluded)}/{len(planted)}")
