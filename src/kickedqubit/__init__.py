"""Closed-form propagators and RK4 integration for suddenly kicked two-state
systems, with a three-state hydrogen 2s-2p application.

The package splits along the physics:

* :mod:`~kickedqubit.su2` — Pauli algebra, SU(2) exponentials, composition;
* :mod:`~kickedqubit.pulses` — pulse shapes, kick sequences, validation;
* :mod:`~kickedqubit.propagators` — closed forms for ideal kicks, rectangular
  pulses, kick pairs and triples, ordering observables, reversal checks;
* :mod:`~kickedqubit.integrator` — one linear-drive model type and batched RK4;
* :mod:`~kickedqubit.hydrogen` — the 2s-2p model with fine structure and decay;
* :mod:`~kickedqubit.experiments` — the dataset catalog behind the CLI.
"""
from __future__ import annotations

from ._version import __version__
from .experiments import (
    EXPERIMENT_IDS,
    ConfigError,
    ExperimentConfig,
    ResultDataset,
    config_sequence,
    default_config,
    default_end_time,
    read_dataset,
    run_convergence,
    run_experiment,
    run_ordering_surface,
)
from .hydrogen import (
    DEFAULT_MHZ,
    HydrogenModel,
    HydrogenParams,
    UNIT_SCALES,
    coupling_rotation,
    default_params,
    default_run_end,
    effective_two_state_model,
    p_target,
    rabi_time,
    revival_time,
    run_pulse_sequence,
    stroboscopic_free_propagator,
)
from .integrator import (
    BACKEND,
    IntegrationDivergedError,
    LinearDriveModel,
    Trajectory,
    TwoStatePulseModel,
    integrate,
    norm_drift,
)
from .propagators import (
    XY_ORDERS,
    OrderingObservable,
    TimeReversalReport,
    free_phase,
    kick_interaction,
    kick_schrodinger,
    kick_width_error,
    multi_kick,
    opposite_kick_pair,
    ordering_observable,
    periodic_kick_power,
    rectangular_exact,
    three_kick_closed,
    time_reversal_check,
    two_kick_closed,
    two_kick_xy,
    untimeordered_opposite_pair,
)
from .pulses import (
    GAUSSIAN_SUPPORT,
    KickSequence,
    PulseSpec,
    beta_angle,
    validate_sequence,
)
from .su2 import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    compose,
    occupation_probabilities,
    su2_exponential,
    unitarity_defect,
)

__all__ = [
    "__version__",
    # su2
    "IDENTITY", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "compose",
    "occupation_probabilities", "su2_exponential", "unitarity_defect",
    # pulses
    "GAUSSIAN_SUPPORT", "KickSequence", "PulseSpec", "beta_angle", "validate_sequence",
    # propagators
    "XY_ORDERS", "OrderingObservable", "TimeReversalReport", "free_phase",
    "kick_interaction", "kick_schrodinger", "kick_width_error", "multi_kick",
    "opposite_kick_pair", "ordering_observable", "periodic_kick_power",
    "rectangular_exact", "three_kick_closed", "time_reversal_check",
    "two_kick_closed", "two_kick_xy", "untimeordered_opposite_pair",
    # integrator
    "BACKEND", "IntegrationDivergedError", "LinearDriveModel", "Trajectory",
    "TwoStatePulseModel", "integrate", "norm_drift",
    # hydrogen
    "DEFAULT_MHZ", "HydrogenModel", "HydrogenParams", "UNIT_SCALES",
    "coupling_rotation", "default_params", "default_run_end", "effective_two_state_model",
    "p_target", "rabi_time", "revival_time", "run_pulse_sequence",
    "stroboscopic_free_propagator",
    # experiments
    "EXPERIMENT_IDS", "ConfigError", "ExperimentConfig", "ResultDataset",
    "config_sequence", "default_config", "default_end_time", "read_dataset",
    "run_convergence", "run_experiment", "run_ordering_surface",
]
