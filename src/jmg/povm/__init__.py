"""Unsharp observables: validation, dilation to sharp observables on a larger
space, joint observables and marginals, and a joint-measurability feasibility
solver with independent analytic oracles for the noisy qubit families."""

from .dilation import (
    DEFAULT_DILATION_TOL,
    DilationResult,
    JointDilationResult,
    compression,
    dilation_to_json_obj,
    joint_dilation,
    neumark_dilate,
)
from .feasibility import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVER_TOL,
    GUARD_ENV_VAR,
    JmReport,
    jm_feasible,
    jm_report_to_json_obj,
    resource_guard,
    stalled,
)
from .model import (
    POVM,
    JointPOVM,
    PovmCheckReport,
    joint_povm_from_json_obj,
    joint_povm_to_json_obj,
    marginal,
    povm_from_json_obj,
    povm_to_json_obj,
    pvm_defects,
    pvm_jointly_measurable,
    validate_povm,
)
from .noise import (
    HollowTriangleReport,
    demo_hollow_triangle,
    noisy_orthogonal_triple,
    noisy_triple_jm_oracle,
    pair_jm_threshold,
    qubit_pair_jm_oracle,
    symmetric_triple_candidate,
    hollow_triangle_report_to_json_obj,
    triple_jm_threshold,
)
