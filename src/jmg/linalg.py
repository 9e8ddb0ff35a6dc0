"""Dense matrix kernel in two scalar regimes.

Exact rational matrices carry the graph-to-projection constructions, so the
"commute exactly when adjacent" checks run with zero tolerance.  Complex
float matrices carry POVMs, dilations, and the feasibility solver, where
eigendecompositions force floating point.

All matrix values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError

DEFAULT_TOL = 1e-9

# The one storage rule: numerators are int64 while every entry is below this
# bound and Python integers (object dtype) otherwise.  Before each sum or
# product, a bound from the operands' largest entries decides whether int64
# arithmetic is exact or the operands must be lifted to Python integers.
_INT64_SAFE = 2**62


def _max_abs(num: np.ndarray) -> int:
    return int(np.abs(num).max()) if num.size else 0


def _store(num: np.ndarray) -> np.ndarray:
    if _max_abs(num) < _INT64_SAFE:
        return num.astype(np.int64, copy=False)
    return num.astype(object, copy=False)


def _scaled(num: np.ndarray, factor: int) -> np.ndarray:
    """num * factor, in int64 when the result provably fits."""
    if num.dtype == np.int64 and max(_max_abs(num), 1) * abs(factor) < _INT64_SAFE:
        return num * factor
    return num.astype(object) * factor


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, in int64 when inner * max|a| * max|b| provably fits."""
    if a.dtype == b.dtype == np.int64 and a.shape[1] * _max_abs(a) * _max_abs(b) < _INT64_SAFE:
        return a @ b
    return a.astype(object) @ b.astype(object)


def _int_vector(values) -> np.ndarray:
    return _store(np.array([int(x) for x in values], dtype=object))


def _entry_array(values) -> np.ndarray:
    arr = np.array(values, dtype=object)
    if arr.ndim != 2:
        raise InputError("matrix data must be two-dimensional")
    for x in arr.flat:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise InputError(f"integer numerator expected, got {x!r}")
    return _int_vector(arr.flat).reshape(arr.shape)


class RationalMatrix:
    """Matrix of exact rationals: integer numerators over one common positive
    denominator, globally gcd-reduced so equal values compare equal."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerators, denominator: int = 1):
        if denominator == 0:
            raise InputError("denominator must be nonzero")
        # an array is copied, so changing it later cannot change the matrix
        num = numerators.copy() if isinstance(numerators, np.ndarray) else _entry_array(numerators)
        if num.ndim != 2:
            raise InputError("matrix data must be two-dimensional")
        den = int(denominator)
        if den < 0:
            num, den = -num, -den
        self._num, self._den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        if num.size == 0 or not np.any(num):
            return np.zeros(num.shape, dtype=np.int64), 1
        g = math.gcd(int(np.gcd.reduce(num.ravel())), den)
        if g > 1:
            num = num // g
            den //= g
        return _store(num), den

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        """Build from nested int / Fraction / "num/den" string entries."""
        parsed = [[_as_fraction(x) for x in row] for row in rows]
        ncols = {len(r) for r in parsed}
        if len(ncols) > 1:
            raise InputError("ragged rows")
        den = math.lcm(*(f.denominator for row in parsed for f in row))
        num = [[int(f * den) for f in row] for row in parsed]
        shape = (len(parsed), ncols.pop() if parsed else 0)
        arr = np.array(num, dtype=object).reshape(shape)
        return cls(arr, den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(np.eye(n, dtype=np.int64), 1)

    @classmethod
    def outer(cls, u, v, denominator: int = 1) -> "RationalMatrix":
        """Outer product of integer vectors, divided by `denominator`."""
        return cls(_product(_int_vector(u)[:, None], _int_vector(v)[None, :]), denominator)

    # -- structure ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._num.shape[0]

    @property
    def cols(self) -> int:
        return self._num.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._num.shape

    @property
    def denominator(self) -> int:
        return self._den

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self._num[i, j]), self._den)

    def to_fractions(self) -> list[list[Fraction]]:
        return [[Fraction(int(x), self._den) for x in row] for row in self._num]

    def to_ndarray(self) -> np.ndarray:
        if self._num.dtype == object:
            return np.array([[float(Fraction(int(x), self._den)) for x in row] for row in self._num])
        return self._num.astype(np.float64) / float(self._den)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not np.any(self._num)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and bool(np.array_equal(self._num, self._num.T))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._den == other._den
            and bool(np.array_equal(self._num, other._num))
        )

    def __hash__(self):
        return hash((self.shape, self._den, tuple(int(x) for x in self._num.flat)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._add_sub(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._add_sub(other, -1)

    def _add_sub(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} vs {other.shape}")
        den = math.lcm(self._den, other._den)
        # two int64 terms below 2^62 each cannot overflow their sum
        a = _scaled(self._num, den // self._den)
        b = _scaled(other._num, sign * (den // other._den))
        return RationalMatrix(a + b, den)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(-self._num, self._den)

    def __mul__(self, scalar) -> "RationalMatrix":
        f = _as_fraction(scalar)
        return RationalMatrix(_scaled(self._num, f.numerator), self._den * f.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        return RationalMatrix(_product(self._num, other._num), self._den * other._den)

    @property
    def T(self) -> "RationalMatrix":
        return RationalMatrix(self._num.T.copy(), self._den)

    def trace(self) -> Fraction:
        return Fraction(sum(int(self._num[i, i]) for i in range(min(self.shape))), self._den)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.to_fractions()!r})"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"exact rational expected, got {type(x).__name__}")


# Integer products are exact in float64 while every partial sum stays below
# this bound.
_FLOAT64_EXACT = 2**53


def numerator_stack(mats, dim: int) -> np.ndarray:
    """The numerators of `mats` (dim x dim each) as one (len, dim, dim) stack.

    With B = max(dim * max|num|^2, max(den) * max|num|), every entry of a
    product N_i N_j, every partial sum on the way, and every entry of D_i N_i
    is an integer below B.  The stack is float64 when B < 2^53 (float64 holds
    these integers exactly, so BLAS products compare exactly), int64 when
    B < 2^62, and Python ints otherwise.
    """
    big = max((_max_abs(m._num) for m in mats), default=0)
    den = max((m._den for m in mats), default=1)
    bound = max(dim * big * big, den * big)
    if bound < _FLOAT64_EXACT:
        dtype = np.float64
    elif bound < _INT64_SAFE:
        dtype = np.int64
    else:
        dtype = object
    stack = np.empty((len(mats), dim, dim), dtype=dtype)
    for k, m in enumerate(mats):
        stack[k] = m._num
    return stack


# -- shared operations (dispatch on scalar regime) ---------------------------


def commutator(a, b):
    """ab - ba, exact for rational inputs, complex float otherwise."""
    if isinstance(a, RationalMatrix) and isinstance(b, RationalMatrix):
        if a.rows != a.cols or a.shape != b.shape:
            raise InputError("commutator needs equal square matrices")
        ab = a @ b
        if a.is_symmetric() and b.is_symmetric():
            # ba = (ab)^T when both factors are symmetric
            return ab - ab.T
        return ab - b @ a
    a, b = _as_complex(a), _as_complex(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise InputError("commutator needs equal square matrices")
    return a @ b - b @ a


def direct_sum(blocks):
    """Block-diagonal matrix; an empty list yields the 0x0 rational matrix."""
    blocks = list(blocks)
    if not blocks:
        return RationalMatrix.zeros(0, 0)
    if isinstance(blocks[0], RationalMatrix):
        for blk in blocks:
            if not isinstance(blk, RationalMatrix) or blk.rows != blk.cols:
                raise InputError("direct_sum expects square blocks of one regime")
        den = math.lcm(*(blk.denominator for blk in blocks))
        parts = [_scaled(blk._num, den // blk.denominator) for blk in blocks]
        dim = sum(blk.rows for blk in blocks)
        dtype = object if any(part.dtype == object for part in parts) else np.int64
        num = np.zeros((dim, dim), dtype=dtype)
        at = 0
        for part in parts:
            d = part.shape[0]
            num[at : at + d, at : at + d] = part
            at += d
        return RationalMatrix(num, den)
    arrs = [_as_complex(blk) for blk in blocks]
    for arr in arrs:
        if arr.shape[0] != arr.shape[1]:
            raise InputError("direct_sum expects square blocks")
    dim = sum(arr.shape[0] for arr in arrs)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for arr in arrs:
        d = arr.shape[0]
        out[at : at + d, at : at + d] = arr
        at += d
    return out


def is_projection(p: RationalMatrix) -> bool:
    """Exact test: symmetric and idempotent."""
    if not isinstance(p, RationalMatrix):
        raise InputError("is_projection operates on exact matrices")
    if p.rows != p.cols:
        raise InputError("projection test needs a square matrix")
    return p.is_symmetric() and (p @ p) == p


def numerical_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Singular values above tol (float) or exact pivot count (rational)."""
    if isinstance(a, RationalMatrix):
        return _exact_rank(a)
    arr = _as_complex(a)
    if arr.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(arr, compute_uv=False) > tol))


def _exact_rank(m: RationalMatrix) -> int:
    grid = [[Fraction(int(x), 1) for x in row] for row in m._num]
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if grid[r][c] != 0), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        lead = grid[rank][c]
        for r in range(rank + 1, rows):
            f = grid[r][c]
            if f:
                scale = f / lead
                grid[r] = [x - scale * y for x, y in zip(grid[r], grid[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


# -- float regime -------------------------------------------------------------


@dataclass(frozen=True)
class HermitianCheckReport:
    max_asymmetry: float
    min_eigenvalue: float
    verdict: bool


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise InputError("matrix expected")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2


def hermitian_check(a, require_psd: bool = False, tol: float = DEFAULT_TOL) -> HermitianCheckReport:
    """Asymmetry / spectrum report; to test a <= 1, pass 1 - a with PSD on."""
    arr = _as_complex(a)
    if arr.shape[0] != arr.shape[1]:
        raise InputError("hermitian_check needs a square matrix")
    if arr.size == 0:
        return HermitianCheckReport(0.0, 0.0, True)
    asym = float(np.abs(arr - arr.conj().T).max())
    min_eig = float(np.linalg.eigvalsh(hermitize(arr)).min())
    verdict = asym <= tol and (not require_psd or min_eig >= -tol)
    return HermitianCheckReport(asym, min_eig, verdict)


def psd_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-tol, 0) clamp to zero."""
    arr = _as_complex(a)
    if arr.shape[0] != arr.shape[1]:
        raise InputError("psd_sqrt needs a square matrix")
    if arr.size == 0:
        return arr.copy()
    asym = float(np.abs(arr - arr.conj().T).max())
    if asym > tol:
        raise InputError(f"matrix is not Hermitian within {tol} (asymmetry {asym:.3e})")
    w, v = np.linalg.eigh(hermitize(arr))
    if w.min() < -tol:
        raise InputError(f"matrix is not PSD within {tol} (eigenvalue {w.min():.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return hermitize(root)


# -- JSON wire format ---------------------------------------------------------


def matrix_to_json_obj(m) -> dict:
    if isinstance(m, RationalMatrix):
        # entries share one denominator, so each distinct numerator is reduced
        # and formatted once
        values, index = np.unique(m._num.ravel(), return_inverse=True)
        den = m._den
        literals = []
        for v in values.tolist():
            g = math.gcd(v, den)
            literals.append(f"{v // g}/{den // g}")
        entries = np.array(literals, dtype=object)[index].tolist()
        return {"rows": m.rows, "cols": m.cols, "scalar": "rational", "entries": entries}
    arr = _as_complex(m)
    entries = [[float(x.real), float(x.imag)] for x in arr.flat]
    return {"rows": arr.shape[0], "cols": arr.shape[1], "scalar": "complex", "entries": entries}


def _rational_entries(literals: list) -> tuple[np.ndarray, int]:
    """Flat integer numerators over one common denominator.

    Each distinct literal is parsed once by `_as_fraction`, so the accepted set
    is exactly its.  Only str and int literals are pooled: 1, 1.0 and True are
    equal as dict keys but not as literals.
    """
    if set(map(type, literals)) <= {str, int}:
        distinct = list(dict.fromkeys(literals))
        slot = dict(zip(distinct, range(len(distinct))))
        index = np.fromiter(map(slot.__getitem__, literals), dtype=np.intp, count=len(literals))
    else:
        distinct, index = literals, np.arange(len(literals))
    values = [_as_fraction(x) for x in distinct]
    den = math.lcm(*(f.denominator for f in values))
    return _int_vector([f.numerator * (den // f.denominator) for f in values])[index], den


def matrix_from_json_obj(obj):
    try:
        rows, cols, scalar, entries = obj["rows"], obj["cols"], obj["scalar"], obj["entries"]
    except (TypeError, KeyError) as exc:
        raise InputError(f"matrix object missing field: {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise InputError("matrix rows/cols must be nonnegative integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    if scalar == "rational":
        num, den = _rational_entries(entries)
        return RationalMatrix(num.reshape(rows, cols), den)
    if scalar == "complex":
        flat = []
        for e in entries:
            if not (isinstance(e, list) and len(e) == 2):
                raise InputError("complex entries must be [re, im] pairs")
            flat.append(complex(float(e[0]), float(e[1])))
        return np.array(flat, dtype=complex).reshape(rows, cols)
    raise InputError(f"unknown scalar regime {scalar!r}")


def rational_vector_to_json_obj(vec) -> list[str]:
    return [f"{_as_fraction(x).numerator}/{_as_fraction(x).denominator}" for x in vec]


def rational_vector_from_json_obj(obj) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise InputError("rational vector must be a list")
    return tuple(_as_fraction(x) for x in obj)
