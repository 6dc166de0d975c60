"""Compare learning algorithms from cross-validation score tables.

Frequentist baselines (correlated t-test, Wilcoxon signed-rank) and three
Bayesian tests (correlated t-test, Dirichlet-process sign/signed-rank,
hierarchical model across datasets) with rope-based decisions and
machine-readable report outputs.
"""

__version__ = "0.1.0"

from .bayes_ttest import (
    HdiSet,
    TrinomialProbs,
    direction_prob,
    hdis,
    posterior,
    rope_probs,
)
from .data import (
    DiffSeries,
    MeanDiffVector,
    Rope,
    ScoreTable,
    mean_differences,
    paired_differences,
    parse_scores,
)
from .decisions import (
    Decision,
    DecisionTable,
    LossMatrix,
    Verdict,
    decision_table,
    loss_decision,
    threshold_decision,
)
from .dp import (
    DirichletParams,
    DpPrior,
    TrinomialSamples,
    prior_sensitivity,
    sign_test_params,
    sign_test_probs,
    sign_test_samples,
    signed_rank_samples,
    simplex_region_probs,
)
from .errors import (
    CoverageError,
    CvCompareError,
    DegenerateDataError,
    ParseError,
    ShapeError,
)
from .frequentist import (
    TTestResult,
    WilcoxonResult,
    correlated_ttest,
    pairwise_pvalues,
    wilcoxon_signed_rank,
)
from .hierarchical import (
    HierConfig,
    HierDraws,
    HierState,
    ShrinkageReport,
    effective_sample_size,
    fit,
    log_posterior,
    next_dataset_probs,
    shrinkage_report,
    split_rhat,
)
from .kernels import (
    LocScaleStudent,
    RngStream,
    cs_loglik,
    student_cdf,
    student_quantile,
    student_sf,
)
from .report import Histogram, barycentric_csv, barycentric_points, density_data, dump_json
