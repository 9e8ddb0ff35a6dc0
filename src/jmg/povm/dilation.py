"""Dilating unsharp observables to sharp ones on a block-enlarged space.

An observable with elements E(i) on dimension d becomes the compression of
the block-projector family P(i) on dimension d * #outcomes through the
isometry V that stacks the PSD square roots of the E(i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, tolerance
from ..linalg import DEFAULT_TOL, hermitize, matrix_to_json_obj, psd_sqrt
from .model import POVM, JointPOVM, marginal, povm_to_json_obj, validate_povm


@dataclass
class DilationResult:
    isometry: np.ndarray
    pvm: POVM
    enlarged_dim: int


def neumark_dilate(e: POVM, tol: float = 1e-8) -> DilationResult:
    """Stack sqrt(E(i)) row blocks into an isometry; block projectors compress
    back to the original elements."""
    tolerance(tol)
    report = validate_povm(e, tol)
    if not report.valid:
        raise InputError(
            "input is not a valid POVM within "
            f"{tol} (asymmetry {report.max_asymmetry:.2e}, min eig {report.min_eigenvalue:.2e}, "
            f"max eig {report.max_eigenvalue:.2e}, sum error {report.sum_error:.2e})"
        )
    d = e.space_dim
    k = len(e.outcomes)
    enlarged = d * k
    isometry = np.zeros((enlarged, d), dtype=complex)
    blocks = {}
    for idx, label in enumerate(e.outcomes):
        isometry[idx * d : (idx + 1) * d, :] = psd_sqrt(e.elements[label], tol)
        proj = np.zeros((enlarged, enlarged), dtype=complex)
        proj[idx * d : (idx + 1) * d, idx * d : (idx + 1) * d] = np.eye(d)
        blocks[label] = proj
    pvm = POVM(enlarged, e.outcomes, blocks)
    return DilationResult(isometry, pvm, enlarged)


@dataclass
class JointDilationResult:
    isometry: np.ndarray
    joint_pvm: POVM
    coarse_pvms: tuple
    enlarged_dim: int


def joint_dilation(povms, witness: JointPOVM, tol: float = 1e-6) -> JointDilationResult:
    """Dilate a joint observable once; summing its block projectors over all
    but one factor yields commuting sharp observables that compress to the
    original family."""
    tolerance(tol)
    povms = list(povms)
    if len(povms) != len(witness.factor_outcome_sets):
        raise InputError("witness factor count does not match the family")
    for n, e in enumerate(povms):
        if e.space_dim != witness.space_dim:
            raise InputError("witness dimension does not match the family")
        if tuple(e.outcomes) != witness.factor_outcome_sets[n]:
            raise InputError(f"factor {n}: outcome sets differ")
        marg = marginal(witness, n)
        err = max(
            float(np.abs(marg.elements[o] - e.elements[o]).max()) for o in e.outcomes
        )
        if err > tol:
            raise InputError(f"witness marginal {n} misses the input by {err:.3e} > {tol}")
    flat = witness.as_flat_povm()
    base = neumark_dilate(flat, max(tol, 1e-8))
    tuples = witness.outcome_tuples()
    labels = flat.outcomes
    coarse = []
    for n, e in enumerate(povms):
        elems = {}
        for o in e.outcomes:
            total = np.zeros((base.enlarged_dim, base.enlarged_dim), dtype=complex)
            for t, label in zip(tuples, labels):
                if t[n] == o:
                    total += base.pvm.elements[label]
            elems[o] = total
        coarse.append(POVM(base.enlarged_dim, e.outcomes, elems))
    return JointDilationResult(base.isometry, base.pvm, tuple(coarse), base.enlarged_dim)


def compression(isometry: np.ndarray, operator: np.ndarray) -> np.ndarray:
    return hermitize(isometry.conj().T @ operator @ isometry)


def dilation_to_json_obj(result: DilationResult) -> dict:
    return {
        "enlarged_dim": result.enlarged_dim,
        "isometry": matrix_to_json_obj(result.isometry),
        "pvm": povm_to_json_obj(result.pvm),
    }
