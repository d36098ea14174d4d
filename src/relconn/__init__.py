"""Reliable-trial selection for EEG functional connectivity analysis.

The package covers the full chain: band-pass filtering and epoching of raw
trials into per-trial scatter matrices, common spatial pattern projection,
shrunk trial covariances, LogEuclidean tangent-space features, sparse
logistic regression with cross-validation, posterior-based trial
selection, and weighted graph metrics comparing connectivity before and
after selection.
"""

from .data import (ScatterSet, TrialSet, load_trialset, save_trialset,
                   split_train_test)
from .errors import (ConvergenceError, DataError, FilterDesignError,
                     NumericError, SchemaError, StratificationError)
from .filters import (FilterSpec, SosFilter, apply_filter, design_bandpass,
                      extract_epoch, frequency_response, magnitude_db)
from .geometry import (ReferencePoint, SpdMatrix, logeuclidean_distance,
                       logeuclidean_mean, matrix_exp, matrix_log, tangent_map)
from .csp import (SpatialFilterBank, class_mean_covariances, fit_csp,
                  select_channels, trial_covariances)
from .classify import (EvalReport, TslrModel, cross_validate, evaluate,
                       select_relevant, train)
from .graphs import (ConnectivityGraph, build_graph, clustering_coefficient,
                     local_efficiency, node_metrics, node_strength,
                     participation_coefficient, separability)
from .fixtures import FixtureSpec, generate_fixture, synthesize_trialset
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ScatterSet", "TrialSet", "load_trialset", "save_trialset", "split_train_test",
    "ConvergenceError", "DataError", "FilterDesignError", "NumericError",
    "SchemaError", "StratificationError",
    "FilterSpec", "SosFilter", "apply_filter", "design_bandpass",
    "extract_epoch", "frequency_response", "magnitude_db",
    "ReferencePoint", "SpdMatrix", "logeuclidean_distance",
    "logeuclidean_mean", "matrix_exp", "matrix_log", "tangent_map",
    "SpatialFilterBank", "class_mean_covariances", "fit_csp",
    "select_channels", "trial_covariances",
    "EvalReport", "TslrModel", "cross_validate", "evaluate",
    "select_relevant", "train",
    "ConnectivityGraph", "build_graph", "clustering_coefficient",
    "local_efficiency", "node_metrics", "node_strength",
    "participation_coefficient", "separability",
    "FixtureSpec", "generate_fixture", "synthesize_trialset",
    "PipelineConfig", "run_pipeline",
    "__version__",
]
