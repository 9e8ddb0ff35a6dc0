"""Dense matrix kernel in two scalar regimes.

Exact rational matrices carry the graph-to-projection constructions, so the
"commute exactly when adjacent" checks run with zero tolerance.  Complex
float matrices carry POVMs, dilations, and the feasibility solver, where
eigendecompositions force floating point.

All matrix values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, groupby

import numpy as np

from .errors import InputError, count, fields, tolerance
from .serialize import Raw

DEFAULT_TOL = 1e-9

# The one storage rule: numerators are int64 while every entry is below this
# bound and Python integers (object dtype) otherwise.  Single-matrix sums and
# products compute on Python integers, so they cannot overflow, and their
# results are stored by this rule.
_INT64_SAFE = 2**62


def _max_abs(num: np.ndarray) -> int:
    # two reductions, with no temporary array of absolute values
    return max(int(num.max()), -int(num.min())) if num.size else 0


def _store(num: np.ndarray) -> np.ndarray:
    if _max_abs(num) < _INT64_SAFE:
        return num.astype(np.int64, copy=False)
    return num.astype(object, copy=False)


def _ints(values) -> np.ndarray:
    return np.array([int(x) for x in values], dtype=object)


class RationalMatrix:
    """Matrix of exact rationals: integer numerators over one common positive
    denominator, globally gcd-reduced so equal values compare equal."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerators, denominator=1):
        """`numerators` is an int64 array, which is copied, so changing it
        later cannot change the matrix, or a grid of literals that
        `from_rows` accepts (an array of another dtype is read as one).
        `denominator` is a literal by the same rule."""
        grid = numerators if isinstance(numerators, np.ndarray) else np.array(numerators, dtype=object)
        if grid.ndim != 2:
            raise InputError("matrix data must be two-dimensional")
        if grid.dtype == np.int64:
            num, den = grid.copy(), 1
        else:
            num, den = _rational_entries(grid.tolist())
            num = num.reshape(grid.shape)
        m = self._reduced(num, den * _as_fraction(denominator))
        self._num, self._den = m._num, m._den

    @classmethod
    def _of(cls, num: np.ndarray, den: int) -> "RationalMatrix":
        """A matrix from numerators and a denominator already normalized."""
        m = object.__new__(cls)
        m._num, m._den = num, den
        return m

    @classmethod
    def _reduced(cls, num: np.ndarray, den) -> "RationalMatrix":
        """num / den normalized, for a fresh 2-d integer array `num`, which
        the matrix takes over (it is not copied), and a nonzero int or
        Fraction `den`, divided by exactly."""
        den = Fraction(den)
        if den == 0:
            raise InputError("denominator must be nonzero")
        # num / (p/q) = (sign(p) q num) / |p|, scaled on Python ints, as
        # -(-2**63) and q times an int64 entry need not fit int64
        scale = den.denominator if den > 0 else -den.denominator
        if scale != 1:
            num = num.astype(object) * scale
        (num,), (den,) = _normalize(num[None], [abs(den.numerator)])
        return cls._of(num, den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        """Build from nested int / Fraction / "num/den" string entries, parsed
        by the rule of the wire format."""
        rows = list(rows)
        ncols = {len(r) for r in rows}
        if len(ncols) > 1:
            raise InputError("ragged rows")
        width = ncols.pop() if rows else 0
        num, den = _rational_entries(rows)
        return cls._reduced(num.reshape(len(rows), width), den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(np.zeros((rows, cols), dtype=np.int64), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(np.eye(n, dtype=np.int64), 1)

    @classmethod
    def outer(cls, u, v, denominator=1) -> "RationalMatrix":
        """Outer product of vectors of the literals `from_rows` accepts,
        divided by the literal `denominator`."""
        u, v = list(u), list(v)
        (nu, du), (nv, dv) = _rational_entries([u]), _rational_entries([v])
        return cls._reduced(np.outer(nu.astype(object), nv.astype(object)), du * dv * _as_fraction(denominator))

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
        rows = self._num.tolist()
        # one Fraction per distinct numerator
        table = {x: Fraction(int(x), self._den) for x in set(chain.from_iterable(rows))}
        return [list(map(table.__getitem__, row)) for row in rows]

    def to_ndarray(self) -> np.ndarray:
        """Entries correctly rounded: below 2^53 the numerators and the
        denominator are exact doubles, and one division rounds once."""
        if self._num.dtype == np.int64 and max(self._den, _max_abs(self._num)) < _FLOAT64_EXACT:
            return self._num.astype(np.float64) / float(self._den)
        return np.array([[float(Fraction(int(x), self._den)) for x in row] for row in self._num])

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
        a = self._num.astype(object) * (den // self._den)
        b = other._num.astype(object) * (sign * (den // other._den))
        return RationalMatrix._reduced(a + b, den)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(-self._num, self._den)

    def __mul__(self, scalar) -> "RationalMatrix":
        f = _as_fraction(scalar)
        return RationalMatrix._reduced(self._num.astype(object) * f.numerator, self._den * f.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        num = self._num.astype(object) @ other._num.astype(object)
        return RationalMatrix._reduced(num, self._den * other._den)

    @property
    def T(self) -> "RationalMatrix":
        return RationalMatrix._of(self._num.T.copy(), self._den)

    def trace(self) -> Fraction:
        return Fraction(sum(int(self._num[i, i]) for i in range(min(self.shape))), self._den)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.to_fractions()!r})"


def _normalize(num: np.ndarray, dens: list) -> tuple[list, list]:
    """Each matrix num[k] / dens[k] of a (k, rows, cols) integer stack divided
    by the gcd of its entries and its positive denominator, and stored by the
    one storage rule; a zero matrix gets denominator 1.  That divisor divides
    the gcd of the diagonal and the denominator, so a matrix for which that
    is 1, such as a rank-one projection or its complement, is already
    reduced, and only the others take the gcd of all their entries.  The
    division is made in place, so `num` must belong to the caller.  The
    numerators returned are views of one array, so they share no memory with
    each other, but may with `num`."""
    if len(num) == 0:
        return [], []
    diagonal_gcds = np.gcd.reduce(np.diagonal(num, axis1=1, axis2=2), axis=1).tolist()
    dens = list(dens)
    for i, g in enumerate(diagonal_gcds):
        if math.gcd(g, dens[i]) == 1:
            continue
        # a zero matrix keeps divisor 1 (its numerators stay 0) and gets den
        # 1; otherwise the divisor is at most max|num|, so it fits num's dtype
        g = int(np.gcd.reduce(num[i], axis=None))
        q = math.gcd(g, dens[i]) if g else 1
        dens[i] = dens[i] // q if g else 1
        if q > 1:
            num[i] //= q
    if num.dtype == np.int64 and _max_abs(num) < _INT64_SAFE:
        return list(num), dens
    return [_store(m) for m in num], dens


def matrices_from_stack(num: np.ndarray, denominators) -> list:
    """The matrices num[k] / denominators[k] of a (k, rows, cols) integer
    stack (one denominator may stand for all), normalized together.  The
    stack is taken over, not copied: the caller must not change it after."""
    dens = [denominators] * len(num) if isinstance(denominators, int) else list(denominators)
    mats, dens = _normalize(num, dens)
    return [RationalMatrix._of(m, d) for m, d in zip(mats, dens)]


def padded_numerators(mats, dim: int) -> tuple[np.ndarray, list]:
    """The numerators of `mats` in the top-left corners of a zero
    (len(mats), dim, dim) stack, with their denominators; None stands for the
    zero matrix over 1.  The stack is int64 when every numerator and every
    denominator is below 2^62, so a sum or difference of two of them cannot
    overflow, and holds Python integers otherwise."""
    dens = [1 if m is None else m._den for m in mats]
    narrow = max(dens, default=1) < _INT64_SAFE and all(
        m is None or m._num.dtype == np.int64 for m in mats
    )
    stack = np.zeros((len(mats), dim, dim), dtype=np.int64 if narrow else object)
    for k, m in enumerate(mats):
        if m is not None:
            stack[k, : m.rows, : m.cols] = m._num
    return stack, dens


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, str):
        # no decimal exponent: "1e999999999" is nine bytes but a number that
        # takes hours to build
        if "e" in x or "E" in x:
            raise InputError(f"bad rational literal {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"exact rational expected, got {type(x).__name__}")


# Integer products are exact in float64 while every partial sum stays below
# this bound, and in float32 below 2^24.
_FLOAT64_EXACT = 2**53
_FLOAT32_EXACT = 2**24


def family_stacks(families, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators N_k of every element of `families` (dim x dim each) as
    one stack, and one operator A = sum_k w_k N_k per family as another, with
    w_k = (k+1) (L / D_k) for the lcm L of the family's denominators D_k; when
    every family has one element, each A is its N and one stack is both.

    With S = max over families of sum_k w_k max|N_k| (at least max|N|) and
    B = max(dim * S^2, max(D) * max|N|), every entry and partial sum of an A,
    of a product of two As or of two Ns, and of a D N is an integer below B.
    Both stacks take the narrowest type whose significand holds every integer
    below B: float32 when B < 2^24, float64 when B < 2^53, Python ints
    otherwise.  Each sum of integer products in such a type, in any order,
    only adds integers below B, so no step rounds and BLAS products compare
    exactly.
    """
    mats = [m for family in families for m in family]
    nums = [m._num for m in mats]
    # every element's max|N_k| in one reduction over the float32 stack, which
    # is exact while each is below 2^24; the stack is kept in that tier
    stack = None
    if all(n.dtype == np.int64 for n in nums):
        stack = np.array(nums, dtype=np.float32).reshape(len(mats), dim, dim)
        peaks = np.abs(stack).max(axis=(1, 2), initial=0).astype(np.int64).tolist()
    if stack is None or max(peaks, default=0) >= _FLOAT32_EXACT:
        peaks = list(map(_max_abs, nums))
    peaks = iter(peaks)
    terms, bound = [], 0  # (w_k, max|N_k|) per element, by family
    for family in families:
        lcm = math.lcm(*(m._den for m in family))
        terms.append([((k + 1) * (lcm // m._den), next(peaks)) for k, m in enumerate(family)])
        bound = max(bound, sum(w * peak for w, peak in terms[-1]))
    big = max((peak for family in terms for _, peak in family), default=0)
    b = max(dim * bound * bound, max((m._den for m in mats), default=1) * big)
    dtype = np.float32 if b < _FLOAT32_EXACT else np.float64 if b < _FLOAT64_EXACT else object
    if stack is None or dtype is not np.float32:
        stack = np.array(nums, dtype=dtype).reshape(len(mats), dim, dim)
    if len(mats) == len(families):
        return stack, stack
    ops = np.zeros((len(families), dim, dim), dtype=dtype)
    elements = iter(stack)
    for total, family in zip(ops, terms):
        for (w, peak), n in zip(family, elements):
            if peak:  # a zero matrix adds nothing; S does not bound its weight
                total += w * n
    return stack, ops


# -- shared operations (dispatch on scalar regime) ---------------------------


def commutator(a, b):
    """ab - ba, exact for rational inputs, complex float otherwise.  The float
    regime also takes two equal (k, d, d) stacks, one commutator a slice, and
    serves the span-restricted check; the exact one is the reference that the
    tests of the vectorized exact verify compare against."""
    if isinstance(a, RationalMatrix) and isinstance(b, RationalMatrix):
        if a.rows != a.cols or a.shape != b.shape:
            raise InputError("commutator needs equal square matrices")
        return a @ b - b @ a
    a, b = as_complex(a, stack=True), as_complex(b, stack=True)
    if a.shape[-1] != a.shape[-2] or a.shape != b.shape:
        raise InputError("commutator needs equal square matrices")
    return a @ b - b @ a


def direct_sum(blocks):
    """Block-diagonal matrix of square rational blocks; an empty list yields
    the 0x0 matrix."""
    blocks = list(blocks)
    for blk in blocks:
        if not isinstance(blk, RationalMatrix) or blk.rows != blk.cols:
            raise InputError("direct_sum expects square rational blocks")
    den = math.lcm(*(blk.denominator for blk in blocks))
    out = np.zeros((sum(blk.rows for blk in blocks),) * 2, dtype=object)
    at = 0
    for blk in blocks:
        d = blk.rows
        out[at : at + d, at : at + d] = blk._num.astype(object) * (den // blk.denominator)
        at += d
    return RationalMatrix._reduced(out, den)


def rank_one_projections(v: RationalMatrix) -> list:
    """v_x v_x^T / |v_x|^2 for the rows v_x of `v`, one per vertex; int64 if no norm overflows."""
    num = v._num if v.cols * _max_abs(v._num) ** 2 < _INT64_SAFE else v._num.astype(object)
    norms = (num * num).sum(axis=1).tolist()
    if 0 in norms:
        raise InputError(f"vertex {norms.index(0)}: zero vector")
    return matrices_from_stack(num[:, :, None] * num[:, None, :], norms)


def numerical_rank(a: RationalMatrix) -> int:
    """The exact rank of a rational matrix: the rank of M M^T or M^T M."""
    if not isinstance(a, RationalMatrix):
        raise InputError("numerical_rank expects a rational matrix")
    return ldlt(a @ a.T if a.rows <= a.cols else a.T @ a)[2]


def ldlt(h: RationalMatrix) -> tuple[np.ndarray, list, int]:
    """(L, D, rank) in Python integers with N = L diag(D)^-1 L^T exactly, for the
    numerators N of a symmetric PSD `h`.  Bareiss elimination takes the diagonal
    pivots p_j in order; each trailing entry is a minor of N, so // is exact.
    L[:, j] is p_j's column from p_j down, D_j = p_(j-1) p_j (p_(-1) = 1).  A zero
    pivot with a zero row is skipped; a negative one, or one with a nonzero row, is
    a proof that h is not PSD."""
    if not h.is_symmetric():
        raise InputError("ldlt needs a symmetric matrix")
    a = h._num.astype(object)
    pivots, dens, prev = [], [], 1
    for k in range(h.rows):
        lead = a[k, k]
        if lead < 0 or (lead == 0 and a[k, k + 1 :].any()):
            raise InputError("matrix is not positive semidefinite")
        if lead == 0:
            continue
        col = a[k + 1 :, k]
        a[k + 1 :, k + 1 :] = (lead * a[k + 1 :, k + 1 :] - np.multiply.outer(col, col)) // prev
        pivots.append(k)
        dens.append(prev * lead)
        prev = lead
    return np.tril(a)[:, pivots], dens, len(pivots)


# -- float regime -------------------------------------------------------------


def as_complex(a, stack: bool = False) -> np.ndarray:
    """`a` as a complex matrix with finite entries; with `stack`, a (k, d, d)
    stack of them is accepted too."""
    if isinstance(a, RationalMatrix):
        raise InputError("float matrix expected, got a rational one: regimes do not mix")
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 and not (stack and arr.ndim == 3):
        raise InputError("matrix expected")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return arr


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2


def psd_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-tol, 0) clamp to zero."""
    tolerance(tol)
    arr = as_complex(a)
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


class _Slots(dict):
    """Key -> slot: a key not seen before takes the next free slot, so the
    keys are the distinct ones in order of first appearance."""

    __slots__ = ()

    def __missing__(self, key):
        self[key] = slot = len(self)
        return slot


# integer types narrower than int64, each with its largest value
_NARROW_CODES = tuple((t, int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32))


def _distinct_rows(mats) -> tuple[list, list]:
    """For rational matrices of one denominator and one width: the JSON text
    (quoted literals, comma-joined) of each distinct row, and the
    distinct-row index of every row of the matrices, in order.

    Rows are pooled by the bytes of their codes: int64 numerators are their
    own codes, Python-int numerators are coded by their rank among the
    distinct values, and codes are stored in the narrowest integer type that
    holds them, so the keys are short.  Each distinct value is then reduced
    and formatted once, and each distinct row joined once.  A literal is the
    lowest-terms fraction, so pooling does not change it."""
    den, width = mats[0]._den, mats[0].cols
    if not width:
        return [""], [0] * sum(m.rows for m in mats)
    codes = np.concatenate([m._num for m in mats])
    values = None
    if codes.dtype == object:
        values, codes = np.unique(codes, return_inverse=True)
    peak = _max_abs(codes)
    dtype = next((t for t, top in _NARROW_CODES if peak <= top), np.int64)
    codes = codes.reshape(-1, width).astype(dtype, copy=False)
    keys = codes.view(np.dtype((np.void, codes.itemsize * width))).ravel().tolist()
    slots = _Slots()
    index = list(map(slots.__getitem__, keys))
    distinct = np.frombuffer(b"".join(slots), dtype=dtype).reshape(-1, width)
    # the distinct codes: each sorted code that differs from its left
    # neighbour (np.unique builds a hash table, and its first use raises the
    # peak resident memory by about 1.5 MB)
    found = np.sort(distinct, axis=None, kind="stable")  # a radix sort for 8- and 16-bit codes
    first = np.ones(found.shape, dtype=bool)
    first[1:] = found[1:] != found[:-1]
    found = found[first]
    literals = []
    for v in (found if values is None else values[found]).tolist():
        g = math.gcd(v, den)
        literals.append(f"{v // g}/{den // g}")
    rows = np.array(literals, dtype=object)[np.searchsorted(found, distinct)].tolist()
    return ['"' + '","'.join(row) + '"' for row in rows], index


def rows_to_json_obj(m: RationalMatrix) -> Raw:
    """The rows of `m` as a JSON list of literal lists."""
    texts, index = _distinct_rows([m])
    return Raw("[" + ",".join(["[" + texts[k] + "]" for k in index]) + "]")


def rows_from_json_obj(obj):
    """The list of rows that `rows_to_json_obj` writes, read back from its
    `Raw`; any other value, such as the list a document holds, is returned
    as it is, for the caller to check."""
    return _entry_list(obj) if isinstance(obj, Raw) else obj


def matrices_to_json_obj(mats) -> list:
    """Wire objects of `mats`, for `serialize.dumps`: the entries of each are
    a `Raw`, their JSON text.  The rational matrices of one denominator and
    one width are written by distinct row (`_distinct_rows`), so a text joins
    the texts of its rows; a complex matrix is written in one `%` format over
    its (re, im) doubles, which spells each as `serialize.format_float`
    does (`as_complex` has rejected non-finite entries)."""
    objs: list = [None] * len(mats)
    groups: dict = {}
    for i, m in enumerate(mats):
        if isinstance(m, RationalMatrix):
            groups.setdefault((m._den, m.cols), []).append(i)
        else:
            arr = as_complex(m)
            # each complex128 is the memory layout of one (re, im) pair of
            # doubles; a strided view is copied into that layout first
            parts = tuple(np.ascontiguousarray(arr).view(np.float64).ravel().tolist())
            text = "[" + ",".join(["[%.17g,%.17g]"] * arr.size) % parts + "]"
            objs[i] = {"rows": arr.shape[0], "cols": arr.shape[1], "scalar": "complex", "entries": Raw(text)}
    for (_, cols), group in groups.items():
        texts, index = _distinct_rows([mats[i] for i in group])
        at = 0
        for i in group:
            rows = mats[i].rows
            mine = index[at : at + rows]
            at += rows
            # a matrix of width 0 has empty rows, which its text does not list
            text = "[" + ",".join(map(texts.__getitem__, mine)) + "]" if cols else "[]"
            objs[i] = {"rows": rows, "cols": cols, "scalar": "rational", "entries": Raw(text)}
    return objs


def _numerators(values: list, index) -> tuple[np.ndarray, int]:
    """The numerators of the Fractions `values` over their common
    denominator, taken at `index` (all of them, in order, for None)."""
    den = math.lcm(*(f.denominator for f in values))
    num = _store(_ints(f.numerator * (den // f.denominator) for f in values))
    return (num if index is None else num[index]), den


def _rational_entries(chunks: list) -> tuple[np.ndarray, int]:
    """Flat integer numerators of the literal lists `chunks`, in order, over
    one common denominator.

    The literals are pooled when every one is a `str` or an `int` (1, 1.0
    and True are equal keys but not equal literals), in order of first
    appearance, and each distinct literal is parsed once by `_as_fraction`,
    so a bad literal is reported at its first occurrence; any other input is
    parsed literal by literal.
    """
    literals = list(chain.from_iterable(chunks))
    index = None
    if set(map(type, literals)) <= {str, int}:
        pool = _Slots()
        index = np.fromiter(map(pool.__getitem__, literals), dtype=np.intp, count=len(literals))
        literals = list(pool)
    return _numerators([_as_fraction(x) for x in literals], index)


def _text_rows(text: str, rows: int, cols: int) -> list | None:
    """The rows of the JSON list `text` of rows * cols > 0 entries, each as
    the text of its cols items joined by `,`, when `text` is ASCII and holds
    exactly rows * cols - 1 commas; None otherwise."""
    size = rows * cols
    if not size or not text.isascii() or text[:1] != "[" or text[-1:] != "]":
        return None
    commas = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord(","))
    if len(commas) != size - 1:
        return None
    # each row lies between the `[` or a row-ending comma and the next
    # row-ending comma or the `]`
    bounds = [0, *commas[cols - 1 :: cols].tolist(), len(text) - 1]
    return [text[a + 1 : b] for a, b in zip(bounds, bounds[1:])]


def _text_entries(rows: list, width: int) -> tuple[np.ndarray, int] | None:
    """`_rational_entries` of rows given as their texts, each with width - 1
    commas (`_text_rows`), or None unless the rows pass `_string_items`: their
    items are then JSON strings that read back as written, width per row.

    Rows are pooled by their text, so only the distinct rows are split into
    literals; those are pooled in turn and each distinct one is parsed once.
    Both pools keep order of first appearance, so the literals are parsed in
    the order `_rational_entries` parses them and a bad one is the same."""
    slots = _Slots()
    row_index = np.fromiter(map(slots.__getitem__, rows), dtype=np.intp, count=len(rows))
    if not _string_items(list(slots)):
        return None
    pool = _Slots()
    index = []
    for row in slots:
        index += map(pool.__getitem__, row[1:-1].split('","'))
    num, den = _numerators([_as_fraction(x) for x in pool], np.array(index, dtype=np.intp))
    return num.reshape(len(slots), width)[row_index].ravel(), den


def _entry_list(entries, size: int | None = None):
    """`entries` as a list of `size` items, such as a rows x cols matrix's
    rows * cols entries, or as any JSON value when `size` is None; a `Raw`
    is read from its JSON text."""
    if isinstance(entries, Raw):
        try:
            entries = json.loads(entries.text)
        except ValueError as exc:
            raise InputError(f"matrix entries are not valid JSON ({exc})") from exc
    if size is not None and (not isinstance(entries, list) or len(entries) != size):
        raise InputError(f"expected {size} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    return entries


def _complex_matrix(entries: list, rows: int, cols: int) -> np.ndarray:
    for e in entries:
        if not (isinstance(e, list) and len(e) == 2):
            raise InputError("complex entries must be [re, im] pairs")
    parts = list(chain.from_iterable(entries))
    # JSON numbers only: bool is an int subclass, so types are compared exactly
    if not set(map(type, parts)) <= {int, float}:
        bad = next(x for x in parts if type(x) not in (int, float))
        raise InputError(f"complex entry parts must be numbers, got {bad!r}")
    try:
        pairs = np.array(parts, dtype=np.float64)
    except OverflowError as exc:
        raise InputError(f"complex entry part out of float range ({exc})") from exc
    # each (re, im) pair of doubles is the memory layout of one complex128
    return pairs.view(np.complex128).reshape(rows, cols)


# An empty matrix's other dimension is bounded by no entry count.  Up to this
# bound any stack of the matrices a document can hold stays far below
# NumPy's limit on an array's size.
_MAX_DIM = 2**31 - 1


def matrices_from_json_obj(objs: list) -> list:
    """Matrices of wire objects, whose entries are a list or a `Raw` of its
    JSON text.  Each object's structure is checked in order; then each run
    of consecutive rational matrices of one width is parsed in one pass, and
    each run of consecutive matrices of one shape is normalized together.
    A run whose entries are all `Raw`s is parsed from their text by
    `_text_entries`, and any other by `_rational_entries`."""
    out: list = []
    rational = []
    for obj in objs:
        rows, cols, scalar, entries = fields(obj, "matrix", "rows", "cols", "scalar", "entries")
        count(rows, "matrix rows", 0)
        count(cols, "matrix cols", 0)
        texts = _text_rows(entries.text, rows, cols) if isinstance(entries, Raw) and scalar == "rational" else None
        if texts is None:
            entries = _entry_list(entries, rows * cols)
        if max(rows, cols) > _MAX_DIM:
            raise InputError(f"matrix shape {rows}x{cols}: rows and cols must be at most {_MAX_DIM}")
        if scalar == "rational":
            rational.append((len(out), rows, cols, entries, texts))
            out.append(None)
        elif scalar == "complex":
            out.append(_complex_matrix(entries, rows, cols))
        else:
            raise InputError(f"unknown scalar regime {scalar!r}")
    for cols, run in groupby(rational, key=lambda r: r[2]):
        run = list(run)
        parsed = None
        if all(r[4] is not None for r in run):
            parsed = _text_entries([row for r in run for row in r[4]], cols)
        if parsed is None:
            parsed = _rational_entries([_entry_list(entries, rows * cols) for _, rows, cols, entries, _ in run])
        num, den = parsed
        at = 0
        # consecutive matrices of one shape are one slice of `num`
        for rows, same in groupby(run, key=lambda r: r[1]):
            same = list(same)
            end = at + len(same) * rows * cols
            for (i, *_), m in zip(same, matrices_from_stack(num[at:end].reshape(len(same), rows, cols), den)):
                out[i] = m
            at = end
    return out


# A compact entries list of strings opens with this; `"entries":[` spells the
# key of the matrix wire format.
_ENTRIES_LIST = '"entries":["'


# `_string_items` checks its text a block at a time: temporaries of this
# size stay in cache, where ones the size of a file's lists are fresh pages
# on every call and cost several times the arithmetic.
_BLOCK = 1 << 16


def _string_items(texts: list) -> bool:
    """Whether each of `texts` is one or more `"…"` items joined by `,`, each
    ASCII with no quote, comma, backslash or control character inside: the
    body of a JSON list of strings that json.loads reads back as written."""
    # joined by `,` with a comma added on each side, every item's opening
    # quote has a comma on its left only and its closing quote one on its
    # right only, and every comma but the two added ones sits between a
    # closing and an opening quote; the ends, which those two commas hide
    # from the block loop, are checked first
    text = ",".join(["", *texts, ""])
    if not (texts and texts[0][:1] == '"' and texts[-1][-1:] == '"' and text.isascii() and "\\" not in text):
        return False
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if b.min() < 32:
        return False
    for at in range(1, len(b) - 1, _BLOCK):
        w = b[at - 1 : at + _BLOCK + 1]
        quote, comma = w == ord('"'), w == ord(",")
        if (quote[1:-1] & (comma[:-2] == comma[2:])).any() or (comma[1:-1] > (quote[:-2] & quote[2:])).any():
            return False
    return True


def lift_entries(text: str) -> tuple[str, list]:
    """`text` with each compact entries list of strings cut out and the
    constant `NaN` in its place, and the lists cut, in document order, as
    `Raw`s of their text; `(text, [])` when none is cut or the rest of
    `text` already holds `NaN` or `Infinity`.

    A list is cut when `"entries":[` follows `{` or `,` and its body, up to
    the first `]`, passes `_string_items`.  Such a list is a complete JSON
    value, so the cut text is valid JSON exactly when `text` is: where `text`
    is valid the list is an object's value, and `NaN` is one too; where it
    holds the list anywhere else (after a key inside a list, or with its
    opening quote closing a string) both texts fail at the same point
    before it.  json.loads of the cut text, with each `NaN` read as its
    list, is therefore json.loads of `text` with those lists as `Raw`s.
    """
    spans, at = [], text.find(_ENTRIES_LIST)
    while at > 0:
        if text[at - 1] not in "{,":
            at = text.find(_ENTRIES_LIST, at + 1)
            continue
        start = at + len(_ENTRIES_LIST) - 2  # the list's `[`
        end = text.find("]", start) + 1
        if not end:
            break
        spans.append((start, end))
        at = text.find(_ENTRIES_LIST, end)
    if spans and not _string_items([text[s + 1 : e - 1] for s, e in spans]):
        spans = [(s, e) for s, e in spans if _string_items([text[s + 1 : e - 1]])]
    if not spans:
        return text, []
    # the text around the cut lists
    starts, ends = zip(*spans)
    gaps = [text[e:s] for e, s in zip((0, *ends), (*starts, len(text)))]
    if any("NaN" in gap or "Infinity" in gap for gap in gaps):
        return text, []
    return "NaN".join(gaps), [Raw(text[s:e]) for s, e in spans]
