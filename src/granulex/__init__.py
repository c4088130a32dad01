"""granulex: heterogeneous classifier ensembles combined through interval
information granules built from per-class posterior samples."""

from .granule import Granule, construct_granule, evidence_score, median_of
from .metadata import ClassCatalog, MetaMatrix
from .learners import Dataset, LearnerSpec, default_roster, extended_roster, fit
from .combiners import dt_fit, granular_intervals
from .training import (
    AlphaGrid,
    TrainedEnsemble,
    default_alpha_grid,
    load_ensemble,
    predict,
    save_ensemble,
    train,
)
from .datasets import GeneratorSpec, generate, load_bundled, load_csv
from .evaluation import (
    ExperimentReport,
    ProtocolConfig,
    bias_variance,
    error_rate,
    macro_f1,
    run_protocol,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
