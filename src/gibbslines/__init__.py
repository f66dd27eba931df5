"""Monte Carlo toolkit for Boltzmann-reweighted Brownian bridge line ensembles."""

from .core import (
    EXP_SATURATION,
    BoundaryData,
    Curve,
    ExpHamiltonian,
    Grid,
    Hamiltonian,
    LineEnsemble,
    McEstimate,
    MINUS_INF,
    OrderedHamiltonian,
    PLUS_INF,
    ScaledExpHamiltonian,
    constant_curve,
)
from .bridge_analytics import (
    barrier_tail_mc,
    bridge_max_tail,
    bridge_min_tail,
    corridor_survival,
    fit_decay_constant,
    gaussian_tail_bound,
    oscillation_tail_estimate,
    sample_bridge_minima,
)
from .bridge_sampler import sample_bridge, sample_free_ensemble
from .gibbs import (
    ConditionalSpec,
    StoppingDomain,
    coupled_scan_batch,
    estimate_Z,
    first_hitting_domain,
    heat_bath_scan_batch,
    heat_bath_sweep,
    log_boltzmann_weight,
    mcmc_sweep,
    monotone_coupled_sweep,
    sample_conditional,
    sample_conditional_batch,
)
from .scaling import (
    ScalingParams,
    parabola_shift,
    scale_to_kpz_frame,
    unscale_from_kpz_frame,
)
from .experiments import (
    ExperimentReport,
    SeparationConfig,
    estimate_excursion_probability,
    run_excursion_experiment,
    run_fluctuation_experiment,
    run_ordering_experiment,
    run_separation_experiment,
    run_z_lowerbound_experiment,
)
from .config import RunConfig, emit_default_config, parse_config, run_experiment

__version__ = "0.1.0"
