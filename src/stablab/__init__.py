"""stablab: numerical stability laboratory for Jordan *-homomorphisms.

Finite-dimensional C*-algebra arithmetic, a catalog of exact and perturbed
maps, residual checkers for the three-term functional inequality family,
direct-method stabilization with certified error bounds, and a seeded
experiment harness.
"""

from .algebra import (
    DimensionMismatchError,
    Element,
    NonFiniteError,
    element,
    identity,
    matrix_unit,
    op_norm,
    random_element,
    spectral_norms,
    zeros,
)
from .checkers import (
    CheckReport,
    DecayOverflowError,
    Witness,
    additivity_ladder,
    fit_loglog_slope,
    phase_substitution_checks,
    phase_sweep_report,
    superstability_decay_batch,
    superstability_shrinking_batch,
    telescoping_check,
)
from .harness import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATED,
    ConfigError,
    ExperimentConfig,
    RunSummary,
    build_map,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    load_config,
    parse_config,
)
from .mappings import (
    Identity,
    MapSpec,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    apply_array,
    jordan_star_defects,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)
from .stabilizer import (
    CalibrationError,
    ControlDirectionError,
    DivergedError,
    PowerControl,
    StabilizationResult,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    calibrate_control,
    control_value,
    stabilize_batch,
    verify_uniqueness,
)

__version__ = "0.1.0"
