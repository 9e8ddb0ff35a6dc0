"""The input boundary: every tolerance, count and document field from outside
the program is checked by the rules in ``jmg.errors``."""

import numpy as np
import pytest

from jmg.errors import InputError
from jmg.graphs import graph_from_json_obj, parse_graph
from jmg.linalg import (
    RationalMatrix,
    hermitian_check,
    matrix_from_json_obj,
    matrix_to_json_obj,
    numerical_rank,
    psd_sqrt,
)
from jmg.povm import (
    POVM,
    JointPOVM,
    jm_feasible,
    joint_dilation,
    joint_povm_from_json_obj,
    joint_povm_to_json_obj,
    neumark_dilate,
    noisy_orthogonal_triple,
    povm_from_json_obj,
    povm_to_json_obj,
    pvm_jointly_measurable,
    validate_povm,
)
from jmg.realize import (
    extend_outcomes,
    lift_to_pvms,
    lower_bound_graph,
    pvm_realization_from_json_obj,
    pvm_realization_to_json_obj,
    realization_from_json_obj,
    realization_to_json_obj,
    realize_direct_sum,
    verify_realization,
)

from helpers import basis_pvm

FORK = parse_graph("3; 0-1, 0-2")
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _pair():
    return noisy_orthogonal_triple(0.5)[:2]


def _dilate_pair(tol):
    povms = _pair()
    joint_dilation(povms, jm_feasible(povms).witness, tol)


# Each call succeeds at a valid tolerance.
TOL_ENTRY_POINTS = {
    "verify_realization": lambda tol: verify_realization(FORK, realize_direct_sum(FORK), tol),
    "numerical_rank": lambda tol: numerical_rank(np.eye(2), tol),
    "hermitian_check": lambda tol: hermitian_check(np.eye(2), tol=tol),
    "psd_sqrt": lambda tol: psd_sqrt(np.eye(2), tol),
    "validate_povm": lambda tol: validate_povm(_pair()[0], tol),
    "pvm_jointly_measurable": lambda tol: pvm_jointly_measurable(
        [basis_pvm(2, [[0], [1]]), basis_pvm(2, [[0], [1]], HADAMARD)], tol
    ),
    "neumark_dilate": lambda tol: neumark_dilate(_pair()[0], tol),
    "joint_dilation": _dilate_pair,
    "jm_feasible": lambda tol: jm_feasible(_pair(), tol),
}


@pytest.mark.parametrize("name", sorted(TOL_ENTRY_POINTS))
def test_tol_entry_points_reject_bad_tolerances(name):
    call = TOL_ENTRY_POINTS[name]
    call(1e-6)
    for bad in (float("nan"), float("inf"), float("-inf"), -1.0):
        with pytest.raises(InputError, match="tol must be finite and non-negative"):
            call(bad)


def _valid_documents():
    realization = realize_direct_sum(FORK)
    povms = _pair()
    return {
        "graph": (graph_from_json_obj, {"vertices": 3, "edges": [[0, 1], [0, 2]]}),
        "matrix": (matrix_from_json_obj, matrix_to_json_obj(RationalMatrix.identity(2))),
        "realization": (realization_from_json_obj, realization_to_json_obj(realization)),
        "pvm realization": (
            pvm_realization_from_json_obj,
            pvm_realization_to_json_obj(lift_to_pvms(realization)),
        ),
        "POVM": (povm_from_json_obj, povm_to_json_obj(povms[0])),
        "joint POVM": (joint_povm_from_json_obj, joint_povm_to_json_obj(jm_feasible(povms).witness)),
    }


COUNT_FIELDS = [
    ("graph", "vertices"),
    ("matrix", "rows"),
    ("matrix", "cols"),
    ("realization", "space_dim"),
    ("pvm realization", "space_dim"),
    ("POVM", "space_dim"),
    ("joint POVM", "space_dim"),
]


@pytest.mark.parametrize("kind, key", COUNT_FIELDS)
@pytest.mark.parametrize("bad", [True, 2.0, -1])
def test_readers_reject_bad_counts(kind, key, bad):
    read, doc = _valid_documents()[kind]
    read(doc)
    with pytest.raises(InputError, match=f"{key} must be a"):
        read({**doc, key: bad})


@pytest.mark.parametrize("kind", sorted({kind for kind, _ in COUNT_FIELDS}))
def test_readers_reject_non_objects_and_missing_fields(kind):
    read, doc = _valid_documents()[kind]
    for not_an_object in ([], None, "x", 3):
        with pytest.raises(InputError, match=f"{kind} object must be a JSON object"):
            read(not_an_object)
    first = next(iter(doc))
    with pytest.raises(InputError, match=f"{kind} object missing field: '{first}'"):
        read({k: v for k, v in doc.items() if k != first})


def test_boolean_edge_vertices_rejected():
    with pytest.raises(InputError, match="edge vertex"):
        graph_from_json_obj({"vertices": 2, "edges": [[True, False]]})


@pytest.mark.parametrize("max_iter", [2.5, True, 0])
def test_jm_feasible_rejects_bad_max_iter(max_iter):
    with pytest.raises(InputError, match="max_iter must be a positive integer"):
        jm_feasible(_pair(), max_iter=max_iter)


@pytest.mark.parametrize("bad", [2.5, "3", True])
def test_extend_outcomes_rejects_bad_counts(bad):
    realization = realize_direct_sum(FORK)
    extend_outcomes(realization, {0: 3, 1: 2, 2: 2})
    with pytest.raises(InputError, match="vertex 0: outcome count must be an integer >= 2"):
        extend_outcomes(realization, {0: bad, 1: 2, 2: 2})


# Each call succeeds with the count 2.
LIBRARY_COUNTS = {
    "POVM": ("space_dim", lambda n: POVM(n, ("0",), {"0": np.eye(2)})),
    "JointPOVM": ("space_dim", lambda n: JointPOVM(n, (("0",),), {("0",): np.eye(2)})),
    "lower_bound_graph": ("d", lower_bound_graph),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_COUNTS))
@pytest.mark.parametrize("bad", [True, 2.0, "2", 0])
def test_library_counts_rejected(name, bad):
    what, call = LIBRARY_COUNTS[name]
    call(2)
    with pytest.raises(InputError, match=f"^{what} must be a positive integer"):
        call(bad)
