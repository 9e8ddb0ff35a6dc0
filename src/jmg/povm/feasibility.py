"""Joint-measurability feasibility by alternating projections.

A family of observables is jointly measurable exactly when some joint
observable over the product outcome space has them as marginals.  The stacked
joint elements are driven back and forth between the affine set "marginals
equal the inputs" (a closed-form least-norm correction) and the product PSD
cone (batched eigenvalue clamping).  A residual at tolerance certifies
feasibility together with the witness; hitting the iteration cap only
*suggests* infeasibility (the residual history shows the plateau), it proves
nothing.

One step costs two thin real matrix products, one batched ``eigh`` and one
batched product to rebuild the clamped iterate.  With M the K x T indicator of
the marginal sums (K outcomes in all, T joint outcomes), b the stacked targets
and C the T x K least-norm correction, the hermitized affine step
herm(x - C(Mx - b)) equals x - C(Mx) + q on Hermitian x, where q = C herm(b) is
built once.  M and C act on the real and imaginary parts of all d*d entries of
each joint element at once; the T x T map I - CM is never formed, so memory
and time per step stay O(K T d^2).  The residual needs no subtraction: for
Hermitian A with eigenvalues w, the PSD clamp A+ keeps the eigenvectors and
zeroes the negative eigenvalues, so ||A - A+||_F = ||min(w, 0)||_2.  The
clamped iterate is Hermitian only up to rounding; ``eigh`` reads one triangle,
so it is hermitized once, when it is returned as the witness.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import InputError
from ..linalg import hermitize
from .model import JointPOVM, POVM, joint_povm_to_json_obj, validate_povm

DEFAULT_SOLVER_TOL = 1e-7
DEFAULT_MAX_ITER = 50_000
DEFAULT_GUARD_VARS = 100_000
GUARD_ENV_VAR = "JMG_GUARD_VARS"


@dataclass
class JmReport:
    verdict: str  # "feasible" | "infeasible_stalled"
    witness: JointPOVM | None
    iterations: int
    final_residual: float
    residual_history_summary: list

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def resource_guard() -> int:
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_VARS
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{GUARD_ENV_VAR} must be positive")
    return value


def _marginal_system(povms, tuples):
    """Indicator matrix of the slice sums and the stacked targets."""
    d = povms[0].space_dim
    rows = []
    targets = []
    for n, e in enumerate(povms):
        for o in e.outcomes:
            rows.append([1.0 if t[n] == o else 0.0 for t in tuples])
            targets.append(e.elements[o])
    m = np.array(rows, dtype=float)
    b = np.stack(targets).astype(complex)
    return m, b, d


def jm_feasible(
    povms,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    guard_vars: int | None = None,
) -> JmReport:
    """Search for a joint observable with the given marginals.

    Starts from the uniform joint assignment and alternates the affine
    projection with the PSD clamp.  The residual is the Frobenius distance
    between the two projected iterates; at or below `tol` the clamped iterate
    is returned as the witness.
    """
    povms = list(povms)
    if not povms:
        raise InputError("at least one observable is required")
    dims = {e.space_dim for e in povms}
    if len(dims) > 1:
        raise InputError(f"space dimensions differ: {sorted(dims)}")
    for n, e in enumerate(povms):
        report = validate_povm(e, 1e-6)
        if not report.valid:
            raise InputError(f"input {n} is not a valid POVM within 1e-6")
    d = povms[0].space_dim
    outcome_sets = tuple(tuple(e.outcomes) for e in povms)
    joint_size = math.prod(len(s) for s in outcome_sets)
    variables = joint_size * d * d
    guard = resource_guard() if guard_vars is None else guard_vars
    if variables > guard:
        raise InputError(
            f"joint problem needs {variables} real variables, over the guard {guard} "
            f"(override with {GUARD_ENV_VAR})"
        )
    if max_iter < 1:
        raise InputError("max_iter must be positive")
    tuples = list(product(*outcome_sets))

    m, b, _ = _marginal_system(povms, tuples)
    t = len(tuples)
    correction = m.T @ np.linalg.pinv(m @ m.T)  # least-norm affine step
    # the hermitized target term of the affine step, on the stacked real entries
    offset = np.tensordot(correction, hermitize(b), axes=(1, 0)).reshape(t, -1).view(float)

    x = np.broadcast_to(np.eye(d, dtype=complex) / t, (t, d, d)).copy()
    history: list[float] = []
    verdict = "infeasible_stalled"
    witness = None
    iterations = max_iter
    residual = np.inf
    for it in range(max_iter):
        xf = x.reshape(t, -1).view(float)
        affine = (xf - correction @ (m @ xf) + offset).view(complex).reshape(t, d, d)
        w, v = np.linalg.eigh(affine)
        negative = np.minimum(w, 0.0).ravel()
        residual = math.sqrt(negative @ negative)
        history.append(residual)
        x = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        if residual <= tol:
            verdict = "feasible"
            iterations = it + 1
            witness = JointPOVM(d, outcome_sets, dict(zip(tuples, hermitize(x))))
            break
    return JmReport(verdict, witness, iterations, residual, _summarize(history))


def _summarize(history, keep: int = 40) -> list:
    if not history:
        return []
    stride = max(1, len(history) // keep)
    picks = list(range(0, len(history), stride))
    if picks[-1] != len(history) - 1:
        picks.append(len(history) - 1)
    return [(i, history[i]) for i in picks]


def stalled(report: JmReport, window_fraction: float = 0.1, rel_improvement: float = 1e-3) -> bool:
    """Residual plateau over the trailing window (evidence, not proof)."""
    points = [r for _, r in report.residual_history_summary]
    if report.feasible or len(points) < 2:
        return False
    span = max(1, int(len(points) * window_fraction))
    head, tail = points[-span - 1], points[-1]
    if head <= 0:
        return True
    return (head - tail) / head < rel_improvement


def jm_report_to_json_obj(report: JmReport) -> dict:
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "final_residual": float(report.final_residual),
        "residual_history_summary": [[int(i), float(r)] for i, r in report.residual_history_summary],
        "witness": None if report.witness is None else joint_povm_to_json_obj(report.witness),
    }
