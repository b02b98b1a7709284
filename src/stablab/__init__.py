"""stablab: numerical stability laboratory for Jordan *-homomorphisms.

Finite-dimensional C*-algebra arithmetic, a catalog of exact and perturbed
maps, residual checkers for the three-term functional inequality family,
direct-method stabilization with certified error bounds, and a seeded
experiment harness.
"""

from .algebra import (
    DimensionMismatchError,
    Element,
    UnitScalar,
    add,
    element,
    identity,
    involution,
    matrix_unit,
    mul,
    neg,
    op_norm,
    random_element,
    scale,
    spectral_norms,
    sub,
    zeros,
)
from .checkers import (
    CheckReport,
    DecayOverflowError,
    Witness,
    additivity_ladder,
    fit_loglog_slope,
    jordan_defect,
    phase_substitution_checks,
    phase_sweep_report,
    phased_split_residual,
    split_inequality_check,
    stability_equation_residual,
    star_defect,
    superstability_decay,
    superstability_decay_shrinking,
    superstability_star_decay,
    telescoping_check,
    triple_split_residual,
)
from .harness import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
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
    JordanStarReport,
    MapSpec,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    evaluate,
    is_exact_jordan_star,
    multiplicativity_witness,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)
from .stabilizer import (
    BoundSpec,
    CalibrationError,
    ConstantControl,
    ControlDirectionError,
    DivergedError,
    PowerControl,
    ProfileControl,
    StabilizationResult,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    calibrate_control,
    control_value,
    stabilize_batch,
    stabilize_point,
    verify_uniqueness,
)

__version__ = "0.1.0"
