"""Reliable-trial selection for EEG functional connectivity analysis.

The package covers the full chain: band-pass filtering and epoching of raw
trials into per-trial scatter matrices, common spatial pattern projection,
shrunk trial covariances, LogEuclidean tangent-space features, sparse
logistic regression with cross-validation, posterior-based trial
selection, and weighted graph metrics comparing connectivity before and
after selection. Each name is imported from its own module, for example
`from relconn.pipeline import run_pipeline`.
"""
