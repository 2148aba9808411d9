"""Multi-modal opinion dynamics on social networks.

Agents hold Gaussian-mixture beliefs about a scalar source, refine them
against shared noisy observations, and mix them with network neighbors
through non-Bayesian social policies. The package pairs the simulation
engine with the closed-form predictors for the variance fixed point, the
wisdom-of-crowds limit, and the stubborn-agent equilibrium, plus a CLI that
runs reproducible seeded experiments.
"""

from .analysis import (
    StabilityReport,
    TheoryPrediction,
    asymptotic_mean_cov,
    predict,
    sigma_fixed_point,
    stability_report,
    stubborn_equilibrium,
    theory,
    verify_covariance_fixed_point,
)
from .belief import (
    GaussianMixtureBelief,
    ObservationModel,
    PosteriorGrid,
    bayes_update,
    posterior_oracle,
)
from .config import (
    PRESET_NAMES,
    SimulationConfig,
    child_rng,
    load_config,
    load_preset,
    save_config,
)
from .dynamics import (
    AgentState,
    PolicyConfig,
    RunStats,
    TrajectoryRecord,
    simulate,
    step,
)
from .errors import (
    ConfigError,
    GmopError,
    GridError,
    InstabilityError,
    InvalidParameterError,
    NumericalError,
)
from .network import (
    SocialGraph,
    SystemMatrices,
    add_influencer_hub,
    assign_random_weights,
    build_system_matrices,
    check_row_sum_condition,
    generate_watts_strogatz,
    load_edge_list,
    normalize_in_weights,
    save_edge_list,
    spectral_radius,
)
from .cli import (
    build_graph,
    emit_plot_data,
    initial_states,
    run_experiment,
    sweep_centrality,
)

__version__ = "0.1.0"
