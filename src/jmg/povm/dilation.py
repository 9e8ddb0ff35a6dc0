"""Dilating unsharp observables to sharp ones on a block-enlarged space.

An observable with elements E(i) on dimension d becomes the compression of
the block-projector family P(i) on dimension d * #outcomes through the
isometry V that stacks the PSD square roots of the E(i).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, tolerance
from ..linalg import hermitize, matrices_to_json_obj
from .model import POVM, JointPOVM, marginal, povm_to_json_obj, validate_povm

DEFAULT_DILATION_TOL = 1e-8

# k outcomes on dimension d dilate to k^3 d^2 + k d^2 entries; on a 2-vCPU host
# 40 outcomes on d = 6 took 3.7 s and 408 MB, and 19 take 0.9 s and 76 MB.
MAX_DILATION_ENTRIES = 2**18


@dataclass
class DilationResult:
    isometry: np.ndarray
    pvm: POVM
    enlarged_dim: int


def neumark_dilate(e: POVM, tol: float = DEFAULT_DILATION_TOL) -> DilationResult:
    """Stack sqrt(E(i)) row blocks into an isometry; block projectors compress
    back to the original elements."""
    tolerance(tol)
    d = e.space_dim
    k = len(e.outcomes)
    enlarged = d * k
    if k * enlarged**2 + enlarged * d > MAX_DILATION_ENTRIES:
        raise InputError(f"dilation of {k} outcomes on dimension {d} exceeds {MAX_DILATION_ENTRIES} matrix entries")
    report = validate_povm(e, tol)
    if not report.valid:
        raise InputError(
            "input is not a valid POVM within "
            f"{tol} (asymmetry {report.max_asymmetry:.2e}, min eig {report.min_eigenvalue:.2e}, "
            f"max eig {report.max_eigenvalue:.2e}, sum error {report.sum_error:.2e})"
        )
    # validated at tol above: the clip zeroes only eigenvalues in [-tol, 0), as psd_sqrt does
    w, v = np.linalg.eigh(hermitize(np.array(e.element_list())))
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    isometry = hermitize(roots).reshape(enlarged, d)
    blocks = {}
    for idx, label in enumerate(e.outcomes):
        proj = np.zeros((enlarged, enlarged), dtype=complex)
        proj[idx * d : (idx + 1) * d, idx * d : (idx + 1) * d] = np.eye(d)
        blocks[label] = proj
    pvm = copy.copy(e)  # the same outcomes, and for a joint observable the same factors
    pvm.space_dim, pvm.elements = enlarged, blocks
    return DilationResult(isometry, pvm, enlarged)


@dataclass
class JointDilationResult:
    isometry: np.ndarray
    joint_pvm: JointPOVM
    coarse_pvms: tuple
    enlarged_dim: int


def joint_dilation(povms, witness: JointPOVM, tol: float = 1e-6) -> JointDilationResult:
    """Dilate a joint observable once; the marginals of the dilated joint PVM
    are commuting sharp observables that compress to the original family."""
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
    base = neumark_dilate(witness, max(tol, DEFAULT_DILATION_TOL))
    coarse = tuple(marginal(base.pvm, n) for n in range(len(povms)))
    return JointDilationResult(base.isometry, base.pvm, coarse, base.enlarged_dim)


def compression(isometry: np.ndarray, operator: np.ndarray) -> np.ndarray:
    return hermitize(isometry.conj().T @ operator @ isometry)


def dilation_to_json_obj(result: DilationResult) -> dict:
    return {
        "enlarged_dim": result.enlarged_dim,
        "isometry": matrices_to_json_obj([result.isometry])[0],
        "pvm": povm_to_json_obj(result.pvm),
    }
