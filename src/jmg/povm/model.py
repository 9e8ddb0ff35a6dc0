"""POVM / joint-observable data model and structural checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..errors import InputError, count, fields, tolerance
from ..linalg import DEFAULT_TOL, commutator, hermitize, matrix_from_json_obj, matrix_to_json_obj


def _as_element(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("observable elements must be square matrices")
    if not np.all(np.isfinite(arr)):
        raise InputError("observable elements must be finite")
    return arr


@dataclass
class POVM:
    """Outcome-indexed effects that resolve the identity."""

    space_dim: int
    outcomes: tuple
    elements: dict = field(default_factory=dict)

    def __post_init__(self):
        count(self.space_dim, "space_dim", 1)
        if not isinstance(self, JointPOVM):  # a JointPOVM's constructor builds its tuple labels
            self.outcomes = tuple(str(o) for o in self.outcomes)
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InputError("duplicate outcome labels")
        if set(self.elements) != set(self.outcomes):
            raise InputError("element labels must match the outcome list")
        parsed = {}
        for label, m in self.elements.items():
            arr = _as_element(m)
            if arr.shape != (self.space_dim, self.space_dim):
                raise InputError(
                    f"outcome {label!r}: shape {arr.shape} != space_dim {self.space_dim}"
                )
            parsed[label] = arr
        self.elements = parsed

    def element_list(self) -> list:
        return [self.elements[o] for o in self.outcomes]

    def total(self) -> np.ndarray:
        return sum(self.element_list(), np.zeros((self.space_dim, self.space_dim), dtype=complex))


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
    asym, lo, hi = 0.0, np.inf, -np.inf
    for arr in e.element_list():
        asym = max(asym, float(np.abs(arr - arr.conj().T).max()))
        w = np.linalg.eigvalsh(hermitize(arr))
        lo = min(lo, float(w.min()))
        hi = max(hi, float(w.max()))
    if not e.outcomes:
        lo = hi = 0.0
    diff = e.total() - np.eye(e.space_dim)
    sum_error = float(np.abs(diff).max()) if diff.size else 0.0
    valid = asym <= tol and lo >= -tol and hi <= 1 + tol and sum_error <= tol
    return PovmCheckReport(asym, lo, hi, sum_error, valid)


def pvm_defects(p: POVM) -> tuple[float, float]:
    """(idempotency defect, orthogonality defect), max-abs over elements."""
    idem, ortho = 0.0, 0.0
    elems = p.element_list()
    for i, a in enumerate(elems):
        idem = max(idem, float(np.abs(a @ a - a).max()))
        for b in elems[i + 1 :]:
            ortho = max(ortho, float(np.abs(a @ b).max()))
    return idem, ortho


def pvm_jointly_measurable(pvms, tol: float = DEFAULT_TOL) -> bool:
    """Pairwise elementwise commutation decides the whole family."""
    tolerance(tol)
    pvms = list(pvms)
    dims = {p.space_dim for p in pvms}
    if len(dims) > 1:
        raise InputError(f"space dimensions differ: {sorted(dims)}")
    for i, p in enumerate(pvms):
        for q in pvms[i + 1 :]:
            for a in p.element_list():
                for b in q.element_list():
                    if float(np.abs(commutator(a, b)).max()) > tol:
                        return False
    return True


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
        "elements": {o: matrix_to_json_obj(e.elements[o]) for o in e.outcomes},
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
    parsed = {}
    for label, mobj in elements.items():
        m = matrix_from_json_obj(mobj)
        parsed[label] = m if isinstance(m, np.ndarray) else m.to_ndarray().astype(complex)
    return POVM(dim, tuple(outcomes), parsed)


def joint_povm_to_json_obj(j: JointPOVM) -> dict:
    return {
        "space_dim": j.space_dim,
        "factor_outcomes": [list(s) for s in j.factor_outcome_sets],
        "elements": {
            json.dumps(list(t), separators=(",", ":")): matrix_to_json_obj(j.elements[t])
            for t in j.outcomes
        },
    }


def joint_povm_from_json_obj(obj) -> JointPOVM:
    dim, factors, elements = fields(obj, "joint POVM", "space_dim", "factor_outcomes", "elements")
    if not isinstance(factors, list) or not all(isinstance(s, list) for s in factors):
        raise InputError("factor_outcomes must be a list of outcome lists")
    if not isinstance(elements, dict):
        raise InputError("elements must be an object keyed by outcome tuple")
    parsed = {}
    for key, mobj in elements.items():
        try:
            labels = json.loads(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad joint outcome key {key!r}") from exc
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise InputError(f"bad joint outcome key {key!r}: not a list of outcome labels")
        tup = tuple(labels)
        if tup in parsed:
            raise InputError(f"joint outcome {list(tup)} appears under two keys")
        m = matrix_from_json_obj(mobj)
        parsed[tup] = m if isinstance(m, np.ndarray) else m.to_ndarray().astype(complex)
    return JointPOVM(dim, tuple(tuple(s) for s in factors), parsed)
