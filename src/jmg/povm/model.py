"""POVM / joint-observable data model and structural checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..errors import InputError, count, fields, tolerance
from ..linalg import DEFAULT_TOL, as_complex, hermitize, matrices_from_json_obj, matrices_to_json_obj
from ..serialize import dumps


@dataclass
class POVM:
    """Outcome-indexed effects that resolve the identity."""

    space_dim: int
    outcomes: tuple
    elements: dict = field(default_factory=dict)

    def __post_init__(self):
        count(self.space_dim, "space_dim", 1)
        self.outcomes = tuple(self.outcomes)
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InputError("duplicate outcome labels")
        if set(self.elements) != set(self.outcomes):
            raise InputError("element labels must match the outcome list")
        parsed = {}
        for label, m in self.elements.items():
            arr = as_complex(m)
            if arr.shape != (self.space_dim, self.space_dim):
                raise InputError(
                    f"outcome {label!r}: shape {arr.shape} != space_dim {self.space_dim}"
                )
            parsed[label] = arr
        self.elements = parsed

    def element_list(self) -> list:
        return [self.elements[o] for o in self.outcomes]


@dataclass(frozen=True)
class PovmCheckReport:
    max_asymmetry: float
    min_eigenvalue: float
    max_eigenvalue: float
    sum_error: float
    valid: bool


def validate_povm(e: POVM, tol: float = DEFAULT_TOL) -> PovmCheckReport:
    """Hermiticity, 0 <= element <= 1, and sum-to-identity, all within tol."""
    tolerance(tol)
    d = e.space_dim
    stack = np.array(e.element_list(), dtype=complex).reshape(-1, d, d)
    asym, lo, hi = 0.0, 0.0, 0.0
    if len(stack):
        asym = float(np.abs(stack - np.conj(np.swapaxes(stack, -1, -2))).max())
        w = np.linalg.eigvalsh(hermitize(stack))
        lo, hi = float(w.min()), float(w.max())
    # summed in outcome order: numpy's pairwise sum would move the last bits
    sum_error = float(np.abs(sum(stack, np.zeros((d, d), dtype=complex)) - np.eye(d)).max())
    valid = asym <= tol and lo >= -tol and hi <= 1 + tol and sum_error <= tol
    return PovmCheckReport(asym, lo, hi, sum_error, valid)


class JointPOVM(POVM):
    """POVM whose outcomes are the tuples of the product of its factor outcome
    sets, in `itertools.product` order."""

    def __init__(self, space_dim: int, factor_outcome_sets, elements: dict):
        self.factor_outcome_sets = tuple(map(tuple, factor_outcome_sets))
        if not all(isinstance(o, str) for s in self.factor_outcome_sets for o in s):
            raise InputError("factor outcome labels must be strings")
        super().__init__(space_dim, tuple(product(*self.factor_outcome_sets)), elements)


def marginal(joint: JointPOVM, factor: int) -> POVM:
    """Sum out every index except `factor`."""
    k = len(joint.factor_outcome_sets)
    if count(factor, "factor index", 0) >= k:
        raise InputError(f"factor index {factor} outside 0..{k - 1}")
    outcomes = joint.factor_outcome_sets[factor]
    sums = {
        o: np.zeros((joint.space_dim, joint.space_dim), dtype=complex) for o in outcomes
    }
    for key, arr in joint.elements.items():
        sums[key[factor]] = sums[key[factor]] + arr
    return POVM(joint.space_dim, outcomes, sums)


# -- JSON wire format ---------------------------------------------------------


def povm_to_json_obj(e: POVM) -> dict:
    return {
        "space_dim": e.space_dim,
        "outcomes": list(e.outcomes),
        "elements": dict(zip(e.outcomes, matrices_to_json_obj(e.element_list()))),
    }


def povm_from_json_obj(obj) -> POVM:
    dim, outcomes, elements = fields(obj, "POVM", "space_dim", "outcomes", "elements")
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
        raise InputError("outcomes must be a list of strings")
    if not isinstance(elements, dict):
        raise InputError("elements must be an object keyed by outcome")
    for label in outcomes:
        if label not in elements:
            raise InputError(f"missing element for outcome {label!r}")
    # every key is parsed, so POVM rejects one that names no outcome
    return POVM(dim, tuple(outcomes), dict(zip(elements, _float_elements(elements.values()))))


def joint_povm_to_json_obj(j: JointPOVM) -> dict:
    objs = matrices_to_json_obj([j.elements[t] for t in j.outcomes])
    return {
        "space_dim": j.space_dim,
        "factor_outcomes": [list(s) for s in j.factor_outcome_sets],
        # a key is the compact JSON of the outcome tuple
        "elements": {dumps(list(t)): obj for t, obj in zip(j.outcomes, objs)},
    }


def joint_povm_from_json_obj(obj) -> JointPOVM:
    dim, factors, elements = fields(obj, "joint POVM", "space_dim", "factor_outcomes", "elements")
    if not isinstance(factors, list) or not all(isinstance(s, list) for s in factors):
        raise InputError("factor_outcomes must be a list of outcome lists")
    if not isinstance(elements, dict):
        raise InputError("elements must be an object keyed by outcome tuple")
    keys: dict = {}  # outcome tuple -> None, in document order
    for key in elements:
        try:
            labels = json.loads(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad joint outcome key {key!r}") from exc
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise InputError(f"bad joint outcome key {key!r}: not a list of outcome labels")
        if tuple(labels) in keys:
            raise InputError(f"joint outcome {labels} appears under two keys")
        keys[tuple(labels)] = None
    parsed = dict(zip(keys, _float_elements(elements.values())))
    return JointPOVM(dim, tuple(tuple(s) for s in factors), parsed)


def _float_elements(objs) -> list:
    """Matrix wire objects parsed in one pass, rational ones rounded to float."""
    mats = matrices_from_json_obj(list(objs))
    return [m if isinstance(m, np.ndarray) else m.to_ndarray() for m in mats]
