"""Train the sparse tangent-space classifier on a synthetic set, score it,
and pick out the trials it is confident about."""

import numpy as np

from relconn.classify import (cross_validate, evaluate, select_relevant,
                              stratified_folds, train)
from relconn.csp import fit_csp
from relconn.data import ScatterSet, split_train_test
from relconn.fixtures import FixtureSpec, synthesize_trialset

spec = FixtureSpec(n_per_class=60, duration_s=0.5)
ts, truth = synthesize_trialset(spec, seed=19)
train_set, test_set = split_train_test(ScatterSet.from_trials(ts),
                                       truth["n_train"])
print(f"{len(train_set)} training and {len(test_set)} held-out trials, "
      f"{len(truth['irrelevant_ids'])} planted irrelevant overall")

bank = fit_csp(train_set, n_filters=6)
model = train(train_set, bank, lam=5.0 / len(train_set))
nnz = int(np.count_nonzero(model.weights))
print(f"\nmodel: {nnz}/{model.weights.size} nonzero weights, "
      f"bias {model.bias:+.3f}, {model.n_iter} iterations")

folds = stratified_folds(train_set.labels, k=5, seed=42)
mean, std = cross_validate(train_set, folds, n_filters=6, lam=model.lam)
print(f"5-fold accuracy on the training session: {mean:.1f} +/- {std:.1f}%")

report = evaluate(model, test_set)
print(f"held-out accuracy {report.accuracy:.1f}%, "
      f"precision {report.precision:.1f}%, recall {report.recall:.1f}%")

kept = select_relevant(report, threshold=0.7)
irrelevant = set(truth["irrelevant_ids"])
kept_bad = sum(1 for tid in kept if tid in irrelevant)
print(f"\nselected {len(kept)}/{len(test_set)} trials at threshold 0.7; "
      f"{kept_bad} of them are planted irrelevant")

# the discarded trials sit near the decision boundary
p = report.posteriors[~np.isin(report.trial_ids, kept)]
print(f"mean confidence among discarded trials: "
      f"{np.mean(np.maximum(p, 1 - p)):.3f}")
