"""OLS regression on network centralities under sparsity and measurement error.

Core pipeline: sample a graphon-generated network, observe it with
Bernoulli edge noise, compute degree / diffusion / eigenvector centralities,
and run OLS with the de-biasing estimators, tests, and confidence sets that
remain valid when the network is sparse and noisily measured.
"""

from . import errors
from .centrality import (
    CentralityVector,
    DiffusionParams,
    RegularizationSpec,
    RegularizedMatrix,
    ScalingPolicy,
    degree,
    diffusion,
    eigenvector_centrality,
    leading_eigenpair,
    regularize,
    regularized_eigenvector_centrality,
)
from .graph_model import (
    BlockWeightedMatrix,
    Graphon,
    LatentSample,
    SparsityRule,
    SymmetricBinaryMatrix,
    SymmetricWeightedMatrix,
    build_true_adjacency,
    observe,
    sample_latent,
)
from .inference import (
    Interval,
    IntervalUnion,
    RegressionFit,
    TestResult,
    bias_correct,
    confidence,
    degree_bias_variance,
    diffusion_bias_variance,
    eigen_bias_variance,
    ols,
    test_beta,
)
from .monte_carlo import (
    CellResult,
    Estimator,
    ExperimentConfig,
    ExperimentResult,
    attenuation_study,
    power_curve,
    rejection_table,
    run_cell,
    run_experiment,
)
from .walks import (
    BiasPolynomial,
    GPolynomial,
    WalkCountTable,
    count_even_path_walks,
    count_even_path_walks_isomorphism,
    derive_b,
    derive_g,
    evaluate_b,
    evaluate_g,
    reference_b,
    reference_g,
)

__version__ = "0.1.0"
