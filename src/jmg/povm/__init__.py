"""Unsharp observables: validation, dilation to sharp observables on a larger
space, joint observables and marginals, and a joint-measurability feasibility
solver with independent analytic oracles for the noisy qubit families."""

from .dilation import DEFAULT_DILATION_TOL, compression, dilation_to_json_obj, neumark_dilate
from .feasibility import DEFAULT_MAX_ITER, DEFAULT_SOLVER_TOL, JmReport, jm_feasible, jm_report_to_json_obj
from .model import POVM, JointPOVM, marginal, povm_from_json_obj, povm_to_json_obj
from .noise import (
    demo_hollow_triangle,
    hollow_triangle_report_to_json_obj,
    noisy_orthogonal_triple,
    noisy_triple_jm_oracle,
    pair_jm_threshold,
    qubit_pair_jm_oracle,
    triple_jm_threshold,
)
