"""Joint-measurability feasibility by alternating projections.

A family of observables is jointly measurable exactly when some joint
observable over the product outcome space has them as marginals.  The stacked
joint elements are driven back and forth between the affine set "marginals
equal the inputs" (a closed-form least-norm correction) and the product PSD
cone (clamping each element's negative eigenvalues to zero).  A residual at
tolerance certifies feasibility together with the witness; hitting the
iteration cap only *suggests* infeasibility (the residual history shows the
plateau), it proves nothing.

The iterate is held as real coordinates, one row per joint element.  With M
the K x T indicator of the marginal sums (K outcomes in all, T joint
outcomes), b the stacked targets and C the T x K least-norm correction, the
hermitized affine step herm(x - C(Mx - b)) equals y - C(My) + q on the
coordinates y of Hermitian x, where q is the coordinates of C herm(b), built
once.  M and C mix rows and act on every coordinate column alike, so any
linear change of coordinates within each element commutes with them: the step
is the same two thin real products whichever coordinates are used.  The T x T
map I - CM is never formed, so memory and time per step stay O(K T d^2).

For d >= 3 the coordinates are the float view of all d*d complex entries and
the clamp is a batched ``eigh``: A+ keeps the eigenvectors and zeroes the
negative eigenvalues.  The clamped iterate is Hermitian only up to rounding;
``eigh`` reads one triangle, so it is hermitized once, when it is returned as
the witness.

For d = 2 the coordinates are Bloch coordinates, H = a0 I + a.sigma with
a0 = (H00 + H11)/2, a1 = Re H01, a2 = -Im H01 and a3 = (H00 - H11)/2, and
the clamp needs no ``eigh``.  The eigenvalues are l+- = a0 +- |a|, with
eigenprojectors (I +- a.sigma/|a|)/2, so the clamp is
a0 <- (l+^+ + l-^+)/2 and a <- a (l+^+ - l-^+)/(2|a|), where
x^+ = max(x, 0).  When |a| = 0 both eigenvalues are a0, the factor's
numerator is exactly 0, and dividing by max(|a|, tiny) instead of |a| keeps
the vector part 0 without a NaN.  The witness is rebuilt from the
coordinates, so its elements are exactly Hermitian.

In both cases the residual needs no subtraction: for Hermitian A with
eigenvalues w, ||A - A+||_F = ||min(w, 0)||_2.

When the two sets do not meet, the iterates approach a gap pair (Bauschke &
Borwein, Set-Valued Anal. 1, 185 (1993)), and in float64 the iterate usually
repeats bitwise.  Each step is a pure function of the previous iterate (C, M,
q and the clamp are fixed for the query), so after a repeat with period p
every later step repeats an earlier one.  The loop keeps one checkpoint
(Brent's cycle detection): the residual and iterate after steps 0, 1, 3, 7,
15, ..., held by reference, which is safe because both clamps return fresh
arrays.  When a later step matches it bitwise, the rest of the residual
history is filled by history[i] = history[i - p] and the loop stops.  Every
state of the cycle was already compared with the tolerance, so the verdict,
the iteration count, the final residual and the summary are exactly those of
the full loop, not estimates.  The verdict stays ``infeasible_stalled``: a
repeating iterate shows that this iteration will not reach the tolerance, not
that no joint observable exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import cycle, islice, product

import numpy as np

from ..errors import InputError, count, tolerance
from ..linalg import hermitize
from .model import JointPOVM, joint_povm_to_json_obj, validate_povm

DEFAULT_SOLVER_TOL = 1e-7
DEFAULT_MAX_ITER = 50_000
MAX_JOINT_VARIABLES = 100_000  # joint outcomes x d^2: the real variables of one iterate
_SUMMARY_POINTS = 40  # about this many residuals of a run's history are reported


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


def _marginal_system(povms, tuples):
    """Indicator matrix of the slice sums and the stacked targets."""
    rows = []
    targets = []
    for n, e in enumerate(povms):
        for o in e.outcomes:
            rows.append([1.0 if t[n] == o else 0.0 for t in tuples])
            targets.append(e.elements[o])
    m = np.array(rows, dtype=float)
    b = np.stack(targets).astype(complex)
    return m, b


# Bloch coordinates (a0, a1, a2, a3) of the Hermitian part of a 2x2 matrix,
# from its float view (Re H00, Im H00, Re H01, Im H01, Re H10, Im H10,
# Re H11, Im H11), and back
_TO_BLOCH = np.array(
    [
        [0.5, 0, 0, 0.5],
        [0, 0, 0, 0],
        [0, 0.5, 0, 0],
        [0, 0, -0.5, 0],
        [0, 0.5, 0, 0],
        [0, 0, 0.5, 0],
        [0.5, 0, 0, -0.5],
        [0, 0, 0, 0],
    ]
)
_FROM_BLOCH = np.array(
    [
        [1, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0, -1, 0],
    ],
    dtype=float,
)
_VECTOR_NORM2 = np.array([[0.0], [1.0], [1.0], [1.0]])  # (a0, a) -> |a|^2
_SIGNS = np.array([-1.0, 1.0])  # l- = a0 - |a|, l+ = a0 + |a|
# (l-^+, l+^+) -> ((l+^+ + l-^+)/2, then (l+^+ - l-^+)/2 for each component of a)
_FROM_EIGENVALUES = np.array([[0.5, -0.5, -0.5, -0.5], [0.5, 0.5, 0.5, 0.5]])
_TINY = np.finfo(float).tiny


def _real_view(h: np.ndarray) -> np.ndarray:
    """The entries of a stack of complex matrices as one float row each."""
    return h.reshape(len(h), -1).view(float)


def _bloch(h: np.ndarray) -> np.ndarray:
    return _real_view(h) @ _TO_BLOCH


def _from_bloch(y: np.ndarray) -> np.ndarray:
    return (y @ _FROM_BLOCH).view(complex).reshape(len(y), 2, 2)


def _bloch_clamp(y: np.ndarray):
    """PSD clamp of each row's 2x2 matrix in Bloch coordinates, and the
    residual: the clamped eigenvalues mapped to (a0, (l+^+ - l-^+)/2, ...)
    and multiplied by (1, a/|a|)."""
    r = np.sqrt((y * y) @ _VECTOR_NORM2)  # |a|, as a column
    eigenvalues = y[:, :1] + r * _SIGNS  # l-, l+
    positive = np.maximum(eigenvalues, 0.0)
    direction = y / np.maximum(r, _TINY)  # a / |a|, and 0 when a = 0
    direction[:, 0] = 1.0
    negative = (eigenvalues - positive).ravel()
    return (positive @ _FROM_EIGENVALUES) * direction, math.sqrt(negative @ negative)


def _eigh_clamp(y: np.ndarray, d: int):
    """PSD clamp of each row's d x d matrix by ``eigh``, and the residual."""
    w, v = np.linalg.eigh(y.view(complex).reshape(len(y), d, d))
    negative = np.minimum(w, 0.0).ravel()
    clamped = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return _real_view(clamped), math.sqrt(negative @ negative)


def _from_real_view(y: np.ndarray, d: int) -> np.ndarray:
    return hermitize(y.view(complex).reshape(len(y), d, d))


def jm_feasible(
    povms,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> JmReport:
    """Search for a joint observable with the given marginals.

    Starts from the uniform joint assignment and alternates the affine
    projection with the PSD clamp.  The residual is the Frobenius distance
    between the two projected iterates; at or below `tol` the clamped iterate
    is returned as the witness.  Once the iterate repeats bitwise, the rest of
    the run is replayed from the cycle, with the report the full loop gives.
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
    if variables > MAX_JOINT_VARIABLES:
        raise InputError(
            f"joint problem needs {variables} real variables, over the guard {MAX_JOINT_VARIABLES}"
        )
    count(max_iter, "max_iter", 1)
    tolerance(tol)
    tuples = list(product(*outcome_sets))

    if d == 2:
        coords, clamp, joint = _bloch, _bloch_clamp, _from_bloch
    else:
        coords, clamp, joint = _real_view, partial(_eigh_clamp, d=d), partial(_from_real_view, d=d)
    m, b = _marginal_system(povms, tuples)
    t = len(tuples)
    correction = m.T @ np.linalg.pinv(m @ m.T)  # least-norm affine step
    # the hermitized target term of the affine step, in coordinates
    offset = coords(np.tensordot(correction, hermitize(b), axes=(1, 0)))

    y = coords(np.broadcast_to(np.eye(d, dtype=complex) / t, (t, d, d)).copy())
    history: list[float] = []
    verdict = "infeasible_stalled"
    witness = None
    iterations = max_iter
    residual = np.inf
    saved_at, saved_residual, saved_y = -1, math.nan, None  # Brent's checkpoint
    for it in range(max_iter):
        y, residual = clamp(y - correction @ (m @ y) + offset)
        history.append(residual)
        if residual <= tol:
            verdict = "feasible"
            iterations = it + 1
            witness = JointPOVM(d, outcome_sets, dict(zip(tuples, joint(y))))
            break
        if residual == saved_residual and np.array_equal(y, saved_y):
            # the iterate repeats bitwise: the rest of the run replays the cycle
            period = it - saved_at
            history += islice(cycle(history[-period:]), max_iter - 1 - it)
            residual = history[-1]
            break
        if it & (it + 1) == 0:  # it = 2^k - 1: the gap to the next checkpoint doubles
            saved_at, saved_residual, saved_y = it, residual, y
    return JmReport(verdict, witness, iterations, residual, _summarize(history))


def _summarize(history) -> list:
    if not history:
        return []
    stride = max(1, len(history) // _SUMMARY_POINTS)
    picks = list(range(0, len(history), stride))
    if picks[-1] != len(history) - 1:
        picks.append(len(history) - 1)
    return [(i, history[i]) for i in picks]


def jm_report_to_json_obj(report: JmReport) -> dict:
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "final_residual": float(report.final_residual),
        "residual_history_summary": [[int(i), float(r)] for i, r in report.residual_history_summary],
        "witness": None if report.witness is None else joint_povm_to_json_obj(report.witness),
    }
