"""Fit spatial filters on two-class data with known mixing and inspect
how well the learned directions match the planted ones."""

import numpy as np

from relconn.csp import fit_csp, select_channels, trial_covariances
from relconn.data import ScatterSet, TrialSet

rng = np.random.default_rng(7)
n_ch, n_samp = 6, 400

# ground truth: orthogonal mixing of sources whose variance profile flips
# between the classes
mixing, _ = np.linalg.qr(rng.standard_normal((n_ch, n_ch)))
var0 = np.geomspace(6.0, 0.4, n_ch)
cov = {0: mixing @ np.diag(var0) @ mixing.T,
       1: mixing @ np.diag(var0[::-1]) @ mixing.T}

labels = np.arange(80) % 2
samples = np.stack([np.linalg.cholesky(cov[label])
                    @ rng.standard_normal((n_ch, n_samp)) for label in labels])
names = tuple(f"ch{i + 1:02d}" for i in range(n_ch))
ts = TrialSet(samples, labels, np.arange(80), names, 200.0, ("left", "right"))

# CSP and the classifier see a trial only through its scatter matrix x x'
scatter = ScatterSet.from_trials(ts)
bank = fit_csp(scatter, n_filters=6)
print("eigenvalues (class-0 variance share per filter):")
print("  ", np.round(bank.eigenvalues, 3))

# each filter should line up with one column of the mixing matrix
cos = np.abs(bank.w @ mixing) / np.linalg.norm(bank.w, axis=1)[:, None]
print("\nbest |cosine| between each filter and a planted direction:")
print("  ", np.round(cos.max(axis=1), 4))

picked = select_channels(bank, names)
print("\nchannel with the largest pattern coefficient per filter:")
for idx, name in picked:
    print(f"   filter -> {name} (index {idx})")

covs = trial_covariances(bank, scatter)
print(f"\nprojected covariances: {covs.shape}, "
      f"first trace {np.trace(covs[0]):.4f}")
