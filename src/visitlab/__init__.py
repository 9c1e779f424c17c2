"""visitlab: predict and verify visit-count laws for shrinking target sets.

The package pairs closed-form compound-Poisson / Pólya-Aeppli limit laws for
a family of worked mixing systems with desk-scale simulators and empirical
cluster statistics, and reports how well the two agree.
"""

__version__ = "0.1.0"

from .compound import (
    CompoundPoissonSpec,
    DiscretePMF,
    cluster_law_from_alphas,
    cp_pmf,
    cp_sample,
    pa_pmf,
    tv_distance,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    NonStationaryError,
    ResourceLimitError,
    SpecError,
    StructureError,
    UnsupportedPairError,
    VisitlabError,
)
from .predictions import (
    MixingProfile,
    PredictionResult,
    SteinBracketInputs,
    coupling_sync_rate,
    doeblin_alpha2_bound,
    geometric_alpha_sequence,
    predict_furstenberg,
    predict_house_of_cards,
    predict_periodic_cylinder,
    predict_poisson,
    predict_regenerative_entries,
    predict_sync_markov,
    renewal_ratio_sequence,
    spectral_radius,
    stein_bracket,
    word_overlap_period,
)
from .stats import (
    AlphaEstimates,
    ClusterStats,
    WSampleSet,
    collect_cluster_stats,
    collect_w,
    empirical_pmf,
    estimate_alpha,
    estimate_alpha_hat,
    estimate_lambda_tilde,
    estimate_tables,
    kac_horizon,
)
from .systems import (
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
    sample_paths,
    sync_kernel,
    trajectory_rng,
)
from .targets import (
    CylinderTarget,
    GeoDiagonalTarget,
    HalfLineTarget,
    RunLengthTarget,
    SyncCylinderTarget,
    TargetMeasure,
    hits,
    interval_cylinder_measure,
    measure,
    measure_mc,
    sign_cylinder_measure,
)
from .config import ExperimentConfig, config_from_mapping, load_config
from .runner import exit_code_for, predict_for, report_body, run_experiment, write_report
