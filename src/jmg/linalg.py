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
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, groupby

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
            num, den = _rational_entries(grid.tolist(), grid.shape[1])
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
        num, den = _rational_entries(rows, width)
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
        (nu, du), (nv, dv) = _rational_entries([u], len(u)), _rational_entries([v], len(v))
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
    terms, bound = [], 0  # (w_k, max|N_k|) per element, by family
    for family in families:
        lcm = math.lcm(*(m._den for m in family))
        terms.append([((k + 1) * (lcm // m._den), _max_abs(m._num)) for k, m in enumerate(family)])
        bound = max(bound, sum(w * peak for w, peak in terms[-1]))
    big = max((peak for family in terms for _, peak in family), default=0)
    b = max(dim * bound * bound, max((m._den for m in mats), default=1) * big)
    dtype = np.float32 if b < _FLOAT32_EXACT else np.float64 if b < _FLOAT64_EXACT else object
    # each stack is written once, in its final dtype
    stack = np.array([m._num for m in mats], dtype=dtype).reshape(len(mats), dim, dim)
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
    """ab - ba, exact for rational inputs, complex float otherwise."""
    if isinstance(a, RationalMatrix) and isinstance(b, RationalMatrix):
        if a.rows != a.cols or a.shape != b.shape:
            raise InputError("commutator needs equal square matrices")
        return a @ b - b @ a
    a, b = as_complex(a), as_complex(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise InputError("commutator needs equal square matrices")
    return a @ b - b @ a


def direct_sum(blocks):
    """Block-diagonal matrix; an empty list yields the 0x0 rational matrix."""
    blocks = list(blocks)
    if not blocks:
        return RationalMatrix.zeros(0, 0)
    exact = isinstance(blocks[0], RationalMatrix)
    if exact:
        for blk in blocks:
            if not isinstance(blk, RationalMatrix) or blk.rows != blk.cols:
                raise InputError("direct_sum expects square blocks of one regime")
        den = math.lcm(*(blk.denominator for blk in blocks))
        arrs = [blk._num.astype(object) * (den // blk.denominator) for blk in blocks]
    else:
        arrs = [as_complex(blk) for blk in blocks]
        for arr in arrs:
            if arr.shape[0] != arr.shape[1]:
                raise InputError("direct_sum expects square blocks")
    dim = sum(arr.shape[0] for arr in arrs)
    out = np.zeros((dim, dim), dtype=arrs[0].dtype)
    at = 0
    for arr in arrs:
        d = arr.shape[0]
        out[at : at + d, at : at + d] = arr
        at += d
    return RationalMatrix._reduced(out, den) if exact else out


def rank_one_projections(v: RationalMatrix) -> list:
    """v_x v_x^T / |v_x|^2 for the rows v_x of `v`, one per vertex; int64 if no norm overflows."""
    num = v._num if v.cols * _max_abs(v._num) ** 2 < _INT64_SAFE else v._num.astype(object)
    norms = (num * num).sum(axis=1).tolist()
    if 0 in norms:
        raise InputError(f"vertex {norms.index(0)}: zero vector")
    return matrices_from_stack(num[:, :, None] * num[:, None, :], norms)


def numerical_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Singular values above tol (float), or the exact rank of M M^T or M^T M (rational)."""
    tolerance(tol)
    if isinstance(a, RationalMatrix):
        return ldlt(a @ a.T if a.rows <= a.cols else a.T @ a)[2]
    arr = as_complex(a)
    if arr.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(arr, compute_uv=False) > tol))


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


def as_complex(a) -> np.ndarray:
    if isinstance(a, RationalMatrix):
        raise InputError("float matrix expected, got a rational one: regimes do not mix")
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
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


def _rational_entries(chunks: list, width: int) -> tuple[np.ndarray, int]:
    """Flat integer numerators of the literal lists `chunks`, in order, over
    one common denominator.  Each chunk is a run of whole rows of `width`
    literals.

    Rows are pooled first, keyed by their literals joined with NUL: the join
    proves every literal a string, and within one width equal keys are equal
    rows unless a literal holds a NUL, which no valid literal does.  The keys
    come from one iterator over the chunks, and no row is kept: a list of
    row tuples sets off garbage-collector passes that cost about as much as
    the row pool saves.  Then the literals of the distinct rows, sliced from
    their chunks, are pooled, and each distinct literal is parsed once by
    `_as_fraction`.  Both pools keep order of first appearance, so the
    accepted set is exactly `_as_fraction`'s and a bad literal is reported
    at its first occurrence.  Chunks holding a non-string literal skip the
    row pool; their str and int literals are still pooled (1, 1.0 and True
    are equal keys but not equal literals), and any other literal is parsed
    where it stands.
    """
    size = sum(map(len, chunks))
    rows = size // width if width else 0
    slots = _Slots()
    try:
        keys = map("\x00".join, zip(*[chain.from_iterable(chunks)] * width))
        row_index = np.fromiter(map(slots.__getitem__, keys), dtype=np.intp, count=rows)
    except TypeError:  # a non-string literal
        row_index, poolable = None, set(map(type, chain.from_iterable(chunks))) <= {str, int}
    else:
        poolable = True
    distinct = chunks
    if row_index is not None and len(slots) < rows:
        # the first occurrence of each row, in order of first appearance,
        # sliced from its chunk
        starts = list(accumulate((len(c) // width for c in chunks), initial=0))
        distinct = []
        for i in np.unique(row_index, return_index=True)[1].tolist():
            k = bisect_right(starts, i) - 1
            at = (i - starts[k]) * width
            distinct.append(chunks[k][at : at + width])
    if poolable:
        pool = _Slots()
        index = np.fromiter(map(pool.__getitem__, chain.from_iterable(distinct)), dtype=np.intp,
                            count=sum(map(len, distinct)))
        literals = list(pool)
    else:
        literals, index = list(chain.from_iterable(chunks)), np.arange(size)
    values = [_as_fraction(x) for x in literals]
    den = math.lcm(*(f.denominator for f in values))
    num = _store(_ints(f.numerator * (den // f.denominator) for f in values))[index]
    if distinct is not chunks:
        num = num.reshape(len(distinct), width)[row_index].ravel()
    return num, den


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


def matrices_from_json_obj(objs: list) -> list:
    """Matrices of wire objects.  Each object's structure is checked in
    order; then each run of consecutive rational matrices of one width is
    parsed by one `_rational_entries` call, row by row in file order, and
    each run of consecutive matrices of one shape is normalized together."""
    out: list = []
    rational = []
    for obj in objs:
        rows, cols, scalar, entries = fields(obj, "matrix", "rows", "cols", "scalar", "entries")
        count(rows, "matrix rows", 0)
        count(cols, "matrix cols", 0)
        if not isinstance(entries, list) or len(entries) != rows * cols:
            raise InputError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
        if scalar == "rational":
            rational.append((len(out), rows, cols, entries))
            out.append(None)
        elif scalar == "complex":
            out.append(_complex_matrix(entries, rows, cols))
        else:
            raise InputError(f"unknown scalar regime {scalar!r}")
    for cols, run in groupby(rational, key=lambda r: r[2]):
        run = list(run)
        num, den = _rational_entries([r[3] for r in run], cols)
        at = 0
        # consecutive matrices of one shape are one slice of `num`
        for rows, same in groupby(run, key=lambda r: r[1]):
            same = list(same)
            end = at + len(same) * rows * cols
            for (i, *_), m in zip(same, matrices_from_stack(num[at:end].reshape(len(same), rows, cols), den)):
                out[i] = m
            at = end
    return out
