"""Spin-lattice relaxation rates from one-, two-, and three-phonon processes.

The library computes golden-rule population-transfer rates between the
eigenstates of a small quantum system coupled linearly to a bath of
Gamma-point phonons, assembles the Markovian population generator, and
extracts T1. Sweeps reproduce the standard scaling analyses: temperature
power laws, phonon-cutoff convergence, and the coupling-strength
crossover between two- and three-phonon relaxation.
"""

from .core import (
    ABSORB,
    BOLTZMANN_CM_PER_K,
    CM_TO_RATE_S,
    EMIT,
    CouplingSet,
    Lineshape,
    Model,
    NearResonantDenominatorWarning,
    PhononBath,
    SignPattern,
    SpinSystem,
    bose_occupation,
    channel_weight,
    lineshape_weight,
    restrict_bath,
    sign_patterns,
    validate_model,
    with_coupling_scale,
)
from .rates import (
    RateBreakdown,
    prune_triples,
    rate_at_order,
    rate_one_phonon,
    rate_three_phonon,
    rate_two_phonon,
)
from .dynamics import (
    DecayMode,
    RateGenerator,
    assemble_generator,
    extract_t1,
    order_generator_matrices,
    propagate_populations,
    slowest_decay,
)
from .sweeps import (
    PowerLawFit,
    SweepSeries,
    crossover_scale,
    find_crossover,
    fit_power_law,
    high_temperature_mask,
    sweep_cutoff,
    sweep_lambda,
    sweep_temperature,
)
from .oracle import (
    ModelSpec,
    generate_model,
    naive_rate_three_phonon,
    naive_rate_two_phonon,
    relative_deviation,
)
from .io import (
    ModelFileError,
    ModelParseError,
    NonHermitianCouplingError,
    NonPositiveFrequencyError,
    ShapeMismatchError,
    load_system,
    save_system,
)

__version__ = "0.1.0"
