"""Noisy orthogonal qubit observables and the pairwise-vs-triple gap.

Three unsharp qubit observables along orthogonal axes can be pairwise
jointly measurable while the triple is not; their compatibility hypergraph is
then the hollow triangle, which no graph induces.  Independent analytic
oracles (a norm criterion for pairs, a symmetry-reduced search for the
triple) pin down the noise thresholds the solver must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..graphs import Hypergraph, is_graph_induced
from .feasibility import DEFAULT_MAX_ITER, DEFAULT_SOLVER_TOL, JmReport, jm_feasible, jm_report_to_json_obj
from .model import POVM, povm_to_json_obj

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_EYE2 = np.eye(2, dtype=complex)
_BISECTION_STEPS = 60  # halvings of [0, 1], past the float64 spacing near 1


def noisy_orthogonal_triple(eta: float) -> list:
    """Three two-outcome qubit observables (1 +/- eta * sigma_k) / 2."""
    if not (0.0 <= eta <= 1.0):
        raise InputError(f"noise parameter {eta} outside [0, 1]")
    povms = []
    for sigma in PAULI:
        povms.append(
            POVM(
                2,
                ("+", "-"),
                {"+": (_EYE2 + eta * sigma) / 2, "-": (_EYE2 - eta * sigma) / 2},
            )
        )
    return povms


def qubit_pair_jm_oracle(a, b) -> bool:
    """Compatibility of two unbiased two-outcome qubit observables with Bloch
    vectors a and b: the two diagonals of the (a, b) parallelogram must fit in
    a total length of 2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise InputError("Bloch vectors must have three components")
    if np.linalg.norm(a) > 1 + 1e-12 or np.linalg.norm(b) > 1 + 1e-12:
        raise InputError("Bloch vectors must lie in the unit ball")
    return float(np.linalg.norm(a + b) + np.linalg.norm(a - b)) <= 2.0


_SIGNS = [(s0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)]


def symmetric_triple_candidate(eta: float) -> dict:
    """Solve the marginal equations inside the sign-symmetric family.

    Conjugating a joint observable by the Pauli unitaries while flipping the
    matching outcome signs preserves the marginals of the noisy triple and
    maps joint observables to joint observables, so averaging any witness
    lands in the family G(s) = c*1 + sum_k u_k s_k sigma_k.  The coefficients
    are found by least squares on the marginal equations (the residual is
    checked to vanish), not assumed.
    """
    if not (0.0 <= eta <= 1.0):
        raise InputError(f"noise parameter {eta} outside [0, 1]")
    rows, rhs = [], []
    # One equation per (axis, outcome sign, Pauli component of the slice sum).
    for axis in range(3):
        for sign in (1, -1):
            slice_signs = [s for s in _SIGNS if s[axis] == sign]
            row_id = [float(len(slice_signs))] + [0.0, 0.0, 0.0]
            rows.append(row_id)
            rhs.append(0.5)
            for component in range(3):
                row = [0.0, 0.0, 0.0, 0.0]
                row[1 + component] = float(sum(s[component] for s in slice_signs))
                rows.append(row)
                rhs.append(sign * eta / 2 if component == axis else 0.0)
    theta, residual, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    leftover = float(np.linalg.norm(np.array(rows) @ theta - np.array(rhs)))
    if leftover > 1e-12:
        raise InputError("symmetric marginal system unexpectedly unsolvable")
    c, u = float(theta[0]), theta[1:]
    return {
        s: c * _EYE2 + sum(float(u[k]) * s[k] * PAULI[k] for k in range(3)) for s in _SIGNS
    }


def noisy_triple_jm_oracle(eta: float) -> bool:
    """Triple compatibility by PSD-checking the symmetry-reduced candidate."""
    candidate = symmetric_triple_candidate(eta)
    min_eig = min(float(np.linalg.eigvalsh(g).min()) for g in candidate.values())
    return min_eig >= -1e-12


def _bisect_threshold(predicate) -> float:
    lo, hi = 0.0, 1.0
    if not predicate(lo):
        raise InputError("predicate must hold at zero noise")
    if predicate(hi):
        return hi
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def pair_jm_threshold() -> float:
    """Largest common noise at which two orthogonal-axis observables stay
    compatible (bisection over the pair oracle)."""
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    return _bisect_threshold(lambda t: qubit_pair_jm_oracle(t * e0, t * e1))


def triple_jm_threshold() -> float:
    """Largest noise at which the orthogonal triple stays compatible
    (bisection over the symmetry-reduced search)."""
    return _bisect_threshold(noisy_triple_jm_oracle)


# -- the dilation caveat demo -------------------------------------------------

REGIME_HOLLOW = "hollow_triangle"
REGIME_ALL_FEASIBLE = "all_feasible"
REGIME_PAIR_INFEASIBLE = "pair_infeasible"

_HOLLOW_CONCLUSION = (
    "every pair admits a joint observable but the triple does not, so the "
    "compatibility hypergraph is the hollow triangle and no graph induces it; "
    "if one isometry dilated all three observables to sharp ones with the same "
    "compatibilities, the pairwise-commuting sharp triple would admit a joint "
    "sharp observable whose compression would be a joint observable for the "
    "original triple, which does not exist -- dilation cannot preserve these "
    "compatibility relations"
)


@dataclass
class HollowTriangleReport:
    eta: float
    povms: list
    pair_reports: dict
    triple_report: JmReport
    hypergraph: Hypergraph
    hypergraph_graph_induced: bool
    regime: str
    conclusion: str


def demo_hollow_triangle(
    eta: float = 0.6,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> HollowTriangleReport:
    """Run the three pairwise queries and the triple query at one noise level
    and classify the outcome."""
    povms = noisy_orthogonal_triple(eta)
    pair_reports = {}
    for i in range(3):
        for j in range(i + 1, 3):
            pair_reports[(i, j)] = jm_feasible([povms[i], povms[j]], tol, max_iter)
    triple_report = jm_feasible(povms, tol, max_iter)

    feasible_pairs = [pair for pair, rep in pair_reports.items() if rep.feasible]
    if triple_report.feasible:
        maximal = [frozenset({0, 1, 2})]
    else:
        maximal = [frozenset(p) for p in feasible_pairs]
    covered = set().union(*maximal) if maximal else set()
    maximal += [frozenset({v}) for v in range(3) if v not in covered]
    hypergraph = Hypergraph(3, frozenset(maximal), downward_closed=True)
    induced = is_graph_induced(hypergraph)

    if len(feasible_pairs) == 3 and not triple_report.feasible:
        regime, conclusion = REGIME_HOLLOW, _HOLLOW_CONCLUSION
    elif len(feasible_pairs) == 3:
        regime, conclusion = REGIME_ALL_FEASIBLE, "no obstruction at this noise level"
    else:
        regime, conclusion = (
            REGIME_PAIR_INFEASIBLE,
            "not a hollow triangle: at least one pair is already incompatible",
        )
    return HollowTriangleReport(
        eta, povms, pair_reports, triple_report, hypergraph, induced, regime, conclusion
    )


def hollow_triangle_report_to_json_obj(report: HollowTriangleReport) -> dict:
    return {
        "eta": float(report.eta),
        "povms": [povm_to_json_obj(e) for e in report.povms],
        "pairwise": {
            f"{i},{j}": jm_report_to_json_obj(rep) for (i, j), rep in sorted(report.pair_reports.items())
        },
        "triple": jm_report_to_json_obj(report.triple_report),
        "hypergraph": {
            "vertices": report.hypergraph.vertex_count,
            "maximal_hyperedges": sorted(sorted(h) for h in report.hypergraph.hyperedges),
        },
        "hypergraph_graph_induced": report.hypergraph_graph_induced,
        "regime": report.regime,
        "conclusion": report.conclusion,
    }
