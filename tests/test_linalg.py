import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jmg.errors import InputError
from jmg.linalg import (
    RationalMatrix,
    _as_fraction,
    _normalize,
    commutator,
    direct_sum,
    ldlt,
    matrices_from_json_obj,
    matrices_to_json_obj,
    numerical_rank,
    psd_sqrt,
)
from jmg.serialize import Raw, dumps

from helpers import is_projection, matrix_from_json_obj, matrix_to_json_obj, reference_dumps, wire

HALF = Fraction(1, 2)
PIN = RationalMatrix.from_rows([[1, 0], [0, 0]])
TILT = RationalMatrix.from_rows([[HALF, HALF], [HALF, HALF]])


def fractions_strategy():
    small = st.integers(-9, 9)
    big = st.integers(-9, 9).map(lambda k: k * 10**13)
    return st.tuples(st.one_of(small, big), st.integers(1, 9)).map(lambda t: Fraction(*t))


def rational_matrices(n: int):
    return st.lists(
        st.lists(fractions_strategy(), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix.from_rows)


class TestRationalMatrix:
    def test_caller_array_not_aliased(self):
        a = np.eye(2, dtype=np.int64)
        m = RationalMatrix(a)
        before = hash(m)
        a[0, 0] = 5
        assert m.entry(0, 0) == 1
        assert hash(m) == before
        assert m == RationalMatrix.identity(2)

    def test_entries_normalized(self):
        m = RationalMatrix.from_rows([[Fraction(2, 4), Fraction(-6, 4)]])
        assert m.entry(0, 0) == HALF
        assert m.entry(0, 1) == Fraction(-3, 2)

    def test_equality_is_canonical(self):
        a = RationalMatrix([[2, 0], [0, 2]], 4)
        b = RationalMatrix([[1, 0], [0, 1]], 2)
        assert a == b

    def test_string_entries(self):
        m = RationalMatrix.from_rows([["1/3", "-2/6"]])
        assert m.entry(0, 0) == Fraction(1, 3) == -m.entry(0, 1)

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: RationalMatrix.outer([HALF], [2]), [[1]]),
            (lambda: RationalMatrix.outer(["1/3", 3], [HALF], 2), [[Fraction(1, 12)], [Fraction(3, 4)]]),
            (lambda: RationalMatrix([[HALF, "1/3"]], 2), [[Fraction(1, 4), Fraction(1, 6)]]),
            (lambda: RationalMatrix(np.array([[HALF]], dtype=object)), [[HALF]]),
            (lambda: RationalMatrix(np.array([[3]], dtype=np.uint8), -6), [[-HALF]]),
            (lambda: RationalMatrix.outer([1], [1], Fraction(5, 2)), [[Fraction(2, 5)]]),
            (lambda: RationalMatrix([[1]], Fraction(5, 2)), [[Fraction(2, 5)]]),
            (lambda: RationalMatrix(np.array([[2**62 - 1]]), Fraction(1, 3)), [[3 * (2**62 - 1)]]),
            (lambda: RationalMatrix([[1]], "-5/2"), [[-Fraction(2, 5)]]),
            (lambda: RationalMatrix([[1]], 2.5), "exact rational expected, got float"),
            (lambda: RationalMatrix.outer([1], [1], 2.0), "exact rational expected, got float"),
            (lambda: RationalMatrix([[1]], True), "exact rational expected, got bool"),
            (lambda: RationalMatrix.outer([1.5], [1]), "exact rational expected, got float"),
            (lambda: RationalMatrix.outer([1], [True]), "exact rational expected, got bool"),
            (lambda: RationalMatrix([[1.5]]), "exact rational expected, got float"),
            (lambda: RationalMatrix(np.array([[1.5]])), "exact rational expected, got float"),
            (lambda: RationalMatrix(np.array([[True]])), "exact rational expected, got bool"),
            (lambda: RationalMatrix([[True]]), "exact rational expected, got bool"),
            (lambda: RationalMatrix(np.array([1, 2])), "two-dimensional"),
            (lambda: RationalMatrix([[1, 2], [3]]), "two-dimensional"),
        ],
        ids=[
            "outer-fraction", "outer-literals", "list-literals", "object-array", "uint8-array",
            "outer-fraction-denominator", "fraction-denominator", "int64-fraction-denominator",
            "string-denominator", "float-denominator", "outer-float-denominator", "bool-denominator",
            "outer-float", "outer-bool", "list-float", "float-array", "bool-array", "list-bool",
            "one-dimensional", "ragged",
        ],
    )
    def test_literal_rule(self, build, expected):
        # every entry is read by the rule of from_rows; integer arrays are copied
        if isinstance(expected, str):
            with pytest.raises(InputError, match=expected):
                build()
        else:
            assert build() == RationalMatrix.from_rows(expected)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            RationalMatrix([[1]], 0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            PIN + RationalMatrix.zeros(3, 3)
        with pytest.raises(InputError):
            PIN @ RationalMatrix.zeros(3, 3)

    def test_int64_input_at_2_62_is_lifted(self):
        m = RationalMatrix(np.array([[2**62, 3], [0, 1]], dtype=np.int64))
        assert m._num.dtype == object
        assert m.entry(0, 0) == 2**62
        assert RationalMatrix(np.array([[2**62 - 1]], dtype=np.int64))._num.dtype == np.int64

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RationalMatrix(np.array([[-(2**63)]], dtype=np.int64), -1),
            lambda: RationalMatrix([["-9223372036854775808"]], -1),
        ],
        ids=["int64 array", "literal grid"],
    )
    def test_negative_denominator_negates_exactly(self, build):
        # -(-2^63) does not fit int64
        assert build().entry(0, 0) == 2**63

    def test_huge_entries_stay_exact(self):
        big = 10**30
        m = RationalMatrix([[big, 0], [0, big]], 1)
        sq = m @ m
        assert sq.entry(0, 0) == big**2

    def test_trace(self):
        assert TILT.trace() == 1

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(3), rational_matrices(3), rational_matrices(3))
    def test_associativity_exact(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(3), rational_matrices(3))
    def test_commutator_antisymmetric(self, a, b):
        assert commutator(a, b) == -commutator(b, a)

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices(2))
    def test_json_round_trip(self, m):
        assert matrix_from_json_obj(wire(matrix_to_json_obj(m))) == m


def storage_entries():
    """Numerators of every band: small, int64 near 2^31 and 2^61 (whose sums
    and products reach 2^62), and Python ints from 2^62 up."""
    small = st.integers(-9, 9)
    near = st.tuples(st.sampled_from([2**31, 2**61]), st.integers(-3, 3), st.sampled_from([1, -1]))
    huge = st.tuples(st.integers(0, 2**64), st.sampled_from([1, -1])).map(lambda t: (2**62 + t[0]) * t[1])
    return st.one_of(small, near.map(lambda t: (t[0] + t[1]) * t[2]), huge)


def storage_matrices(rows: int, cols: int):
    dens = st.sampled_from([1, 2, 3, 2**31, 2**62])
    grids = st.lists(storage_entries(), min_size=rows * cols, max_size=rows * cols)
    return st.builds(lambda g, d: RationalMatrix(np.array(g, dtype=object).reshape(rows, cols), d), grids, dens)


def fraction_grid(m: RationalMatrix) -> np.ndarray:
    return np.array(m.to_fractions(), dtype=object).reshape(m.shape)


def assert_stored(m: RationalMatrix, expected: np.ndarray) -> None:
    """`m` equals the Fraction reference and follows the one storage rule."""
    assert m.to_fractions() == expected.tolist()
    largest = max((abs(int(x)) for x in m._num.flat), default=0)
    assert m._num.dtype == (np.int64 if largest < 2**62 else object)


# Numerator and denominator pairs that a float64 division of their rounded
# values misrounds: both at or above 2^53, then only the denominator, then
# only the numerator.
ROUNDING_PAIRS = [
    (1575505510810671608, 969615727393626215),
    (3151577179968871166, 3679554795537222958),
    (3788992575102227951, 3053145920825697564),
    (1038538341492520963, 4563042713872258383),
    (5874079624724009, 2453384593015668128),
    (3884428891471536879, 488243),
]


class TestToNdarray:
    @pytest.mark.parametrize("n, d", ROUNDING_PAIRS)
    @pytest.mark.parametrize("tier", [np.int64, object])
    def test_entries_correctly_rounded(self, n, d, tier):
        if tier is np.int64:
            m = RationalMatrix(np.array([[n]], dtype=np.int64), d)
        else:  # an entry of 2^63 * d over d stores the matrix as Python ints
            m = RationalMatrix([[n, 2**63 * d]], d)
        assert m._num.dtype == tier
        got = m.to_ndarray()
        assert got.dtype == np.float64
        assert got[0, 0] == float(Fraction(n, d))


SUM_AT_2_62 = RationalMatrix(np.array([[2**61, 1], [2**61, 2]], dtype=np.int64))
PRODUCT_AT_2_62 = RationalMatrix(np.array([[2**31, 0], [2**31, 1]], dtype=np.int64))


def reference_normalize(stack: np.ndarray, dens: list) -> tuple[list, list]:
    """Each matrix over its denominator divided by the gcd of all its entries
    and the denominator, in Python integers; a zero matrix gets denominator 1."""
    nums, out = [], []
    for m, d in zip(stack, dens):
        g = math.gcd(*map(int, m.flat))
        q = math.gcd(g, d) if g else 1
        nums.append([[int(v) // q for v in row] for row in m.tolist()])
        out.append(d // q if g else 1)
    return nums, out


@st.composite
def normalize_stacks(draw):
    """A stack of 0-4 matrices of 0-3 rows and columns, some zero, with
    denominators; entries past 2^62 put it in Python ints, and a shared
    factor f divides every diagonal entry and the denominator, so only the
    full reduction decides the divisor."""
    k, rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    wide = draw(st.booleans())
    entry = st.one_of(st.integers(-12, 12), st.integers(-12, 12).map(lambda v: v * 2**62)) if wide else st.integers(-12, 12)
    stack = np.array(draw(st.lists(st.lists(entry, min_size=rows * cols, max_size=rows * cols), min_size=k, max_size=k)),
                     dtype=object if wide else np.int64).reshape(k, rows, cols)
    dens = draw(st.lists(st.integers(1, 36), min_size=k, max_size=k))
    for i in range(k):
        choice = draw(st.sampled_from(["free", "zero", "shared"]))
        if choice == "zero":
            stack[i] = 0
        elif choice == "shared":
            f = draw(st.integers(2, 6))
            for j in range(min(rows, cols)):
                stack[i, j, j] *= f
            dens[i] *= f
    return stack, dens


class TestNormalize:
    @settings(max_examples=100, deadline=None)
    @given(normalize_stacks())
    @example((np.array([[[2, 0], [0, 0]]], dtype=np.int64), [2]))  # the direct-sum pin
    @example((np.zeros((2, 2, 3), dtype=np.int64), [4, 1]))
    def test_matches_the_full_reduction(self, case):
        stack, dens = case
        nums, got = _normalize(stack.copy(), list(dens))
        want_nums, want = reference_normalize(stack, dens)
        assert got == want
        assert [m.tolist() for m in nums] == want_nums
        for m, values in zip(nums, want_nums):
            peak = max((abs(v) for row in values for v in row), default=0)
            assert m.dtype == (np.int64 if peak < 2**62 else object)


class TestStorageRule:
    @settings(max_examples=80, deadline=None)
    @given(storage_matrices(2, 2), storage_matrices(2, 2), fractions_strategy(), storage_entries())
    @example(SUM_AT_2_62, SUM_AT_2_62, Fraction(2), 2**61)
    @example(PRODUCT_AT_2_62, PRODUCT_AT_2_62.T, Fraction(1, 2), 2**31)
    def test_single_matrix_results_match_fractions(self, a, b, q, k):
        fa, fb = fraction_grid(a), fraction_grid(b)
        assert_stored(a + b, fa + fb)
        assert_stored(a - b, fa - fb)
        assert_stored(a * q, fa * q)
        assert_stored(a @ b, fa.dot(fb))
        u, v = [k, 1, -k], [k, 2]
        assert_stored(RationalMatrix.outer(u, v, 3), np.array([[Fraction(x * y, 3) for y in v] for x in u]))
        blocks = np.zeros((4, 4), dtype=object) + Fraction(0)
        blocks[:2, :2], blocks[2:, 2:] = fa, fb
        assert_stored(direct_sum([a, b]), blocks)

    def test_int64_operands_reaching_2_62_are_lifted(self):
        assert SUM_AT_2_62._num.dtype == PRODUCT_AT_2_62._num.dtype == np.int64
        assert (SUM_AT_2_62 + SUM_AT_2_62)._num.dtype == object
        assert (SUM_AT_2_62 * 2)._num.dtype == object
        assert (PRODUCT_AT_2_62 @ PRODUCT_AT_2_62.T).entry(0, 0) == 2**62
        assert RationalMatrix.outer([2**31], [2**31]).entry(0, 0) == 2**62


# int64 numerators, and Python-int numerators from 2^62 up
FRESH_OPERANDS = [
    (TILT, RationalMatrix.from_rows([[2, 0], [Fraction(1, 3), 1]])),
    (
        RationalMatrix.from_rows([[2**70, HALF], [0, 1]]),
        RationalMatrix.from_rows([[1, 2**65], [-3, Fraction(1, 7)]]),
    ),
]


class TestFreshResults:
    """Every result owns its numerators: `_reduced` and `_of` take over the
    arrays that the operation has just built, and none of them is an operand's."""

    @pytest.mark.parametrize("a, b", FRESH_OPERANDS)
    def test_results_share_no_memory_with_operands(self, a, b):
        u = np.array([1, -2], dtype=np.int64)
        results = {
            "+": a + b,
            "-": a - b,
            "*": a * 1,
            "@": a @ b,
            "neg": -a,
            "T": a.T,
            "outer": RationalMatrix.outer(u, u),
            "direct_sum": direct_sum([a]),
        }
        for name, m in results.items():
            for operand in (a._num, b._num, u):
                assert not np.shares_memory(m._num, operand), name
        assert results["neg"] + a == RationalMatrix.zeros(2, 2)
        assert results["T"].T == a


class TestCommutator:
    def test_pinned_pair(self):
        expected = RationalMatrix.from_rows([[0, HALF], [-HALF, 0]])
        assert commutator(PIN, TILT) == expected

    def test_self_commutation(self):
        assert commutator(PIN, PIN).is_zero()

    def test_identity_commutes(self):
        assert commutator(PIN, RationalMatrix.identity(2)).is_zero()

    def test_float_regime(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.linalg.norm(commutator(a, b)) > 1
        assert np.linalg.norm(commutator(a, a)) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_float_stacks_match_slices(self, k, d, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, k, d, d)) + 1j * rng.normal(size=(2, k, d, d))
        stacked = commutator(a, b)
        assert stacked.shape == (k, d, d)
        assert all(np.array_equal(stacked[i], commutator(a[i], b[i])) for i in range(k))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (np.full((2, 2), np.nan), np.eye(2), "matrix entries must be finite"),
            (np.eye(2), np.full((2, 2), np.inf), "matrix entries must be finite"),
            (np.zeros((2, 3)), np.zeros((2, 3)), "commutator needs equal square matrices"),
            (np.eye(2), np.eye(3), "commutator needs equal square matrices"),
        ],
        ids=["nan", "inf", "non-square", "mismatched"],
    )
    def test_float_stacks_rejected_as_matrices_are(self, a, b, message):
        for pair in ((a, b), (np.stack([a] * 3), np.stack([b] * 3))):
            with pytest.raises(InputError, match=f"^{message}$"):
                commutator(*pair)

    def test_stack_and_matrix_do_not_mix(self):
        with pytest.raises(InputError, match="^commutator needs equal square matrices$"):
            commutator(np.zeros((1, 2, 2)), np.zeros((2, 2)))
        with pytest.raises(InputError, match="^commutator needs equal square matrices$"):
            commutator(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))
        for shape in ((2,), (1, 1, 2, 2)):
            with pytest.raises(InputError, match="^matrix expected$"):
                commutator(np.zeros(shape), np.zeros(shape))


class TestDirectSum:
    def test_two_blocks(self):
        m = direct_sum([PIN, TILT])
        assert m.shape == (4, 4)
        assert m.entry(0, 0) == 1
        assert m.entry(2, 2) == HALF
        assert m.entry(0, 2) == 0

    def test_single_block(self):
        assert direct_sum([TILT]) == TILT

    def test_empty_is_0x0(self):
        m = direct_sum([])
        assert m.shape == (0, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4))
    def test_copies_of_projection_stay_projection(self, k):
        m = direct_sum([TILT] * k)
        assert is_projection(m)


FLOAT_PIN = np.array([[1, 0], [0, 0]], dtype=complex)


@pytest.mark.parametrize(
    "call",
    [
        lambda: direct_sum([FLOAT_PIN, PIN]),
        lambda: direct_sum([PIN, FLOAT_PIN]),
        lambda: commutator(PIN, FLOAT_PIN),
        lambda: commutator(FLOAT_PIN, PIN),
        lambda: numerical_rank(FLOAT_PIN),
    ],
    ids=["direct_sum float first", "direct_sum rational first", "commutator rational first",
         "commutator float first", "numerical_rank float"],
)
def test_mixed_regimes_are_input_errors(call):
    with pytest.raises(InputError):
        call()


class TestIsProjection:
    def test_tilt(self):
        assert is_projection(TILT)

    def test_zero(self):
        assert is_projection(RationalMatrix.zeros(2, 2))

    def test_not_symmetric(self):
        assert not is_projection(RationalMatrix.from_rows([[1, 1], [0, 1]]))

    def test_not_idempotent(self):
        assert not is_projection(RationalMatrix.from_rows([[2, 0], [0, 0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 1.0]))

    def test_random_psd_construct_and_check(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = m.conj().T @ m
            s = psd_sqrt(a)
            assert np.linalg.norm(s @ s - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
            assert np.abs(s - s.conj().T).max() <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="Hermitian"):
            psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(InputError, match="PSD"):
            psd_sqrt(np.diag([1.0, -1.0]).astype(complex))

    def test_clamps_tiny_negative(self):
        s = psd_sqrt(np.diag([1.0, -1e-12]).astype(complex))
        assert np.linalg.eigvalsh(s).min() >= 0


class TestNumericalRank:
    def test_fork_gram_exact(self):
        gram = RationalMatrix.from_rows([[1, 0, 0], [0, 2, 1], [0, 1, 2]])
        assert numerical_rank(gram) == 3

    def test_exact_rank_deficient(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert numerical_rank(m) == 1

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices(3), st.permutations(range(3)))
    def test_exact_rank_permutation_invariant(self, m, perm):
        rows = m.to_fractions()
        permuted = RationalMatrix.from_rows([rows[i] for i in perm])
        assert numerical_rank(m) == numerical_rank(permuted)

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices(3), st.lists(fractions_strategy(), min_size=3, max_size=3))
    def test_exact_rank_invertible_multiply_invariant(self, m, offdiag):
        # unit upper-triangular factors are always invertible
        u = RationalMatrix.from_rows(
            [[1, offdiag[0], offdiag[1]], [0, 1, offdiag[2]], [0, 0, 1]]
        )
        assert numerical_rank(u @ m) == numerical_rank(m)


def fraction_rank(m: RationalMatrix) -> int:
    """Gaussian elimination on Fractions: the exact rank before fraction-free
    elimination, kept as the reference."""
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


RANK_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-3, 3).map(lambda k: k * 2**63 + 1),  # above 2^62
)


@st.composite
def low_rank_matrices(draw):
    """A (rows x k)(k x cols) integer product, so the rank is at most k, with
    some columns zeroed and a random denominator."""
    rows, cols, k = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(RANK_ENTRIES, min_size=k, max_size=k), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(RANK_ENTRIES, min_size=cols, max_size=cols), min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(0, 5)))
    grid = [
        [0 if j in zeroed else sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
        for i in range(rows)
    ]
    den = draw(st.integers(1, 2**70))
    return RationalMatrix(np.array(grid, dtype=object).reshape(rows, cols), den)


class TestBareissRank:
    @settings(max_examples=200, deadline=None)
    @given(low_rank_matrices())
    def test_matches_fraction_elimination(self, m):
        assert numerical_rank(m) == fraction_rank(m)

    def test_huge_rank_deficient(self):
        m = RationalMatrix([[2**70, 2**70 + 1, 0], [2**71, 2**71 + 2, 0], [3, 5, 0]], 7)
        assert m._num.dtype == object
        assert numerical_rank(m) == fraction_rank(m) == 2

    def test_rows_the_pivot_column_misses_are_scaled(self):
        # after the first step row 1 must become 5 * row 1; left unscaled, the
        # next exact division by 5 would floor a nonzero entry to zero
        m = RationalMatrix([[5, 1, 0], [0, 1, 1], [0, 1, 2]])
        assert numerical_rank(m) == fraction_rank(m) == 3

    def test_zero_columns_and_empty(self):
        for rows in ([[0, 0, 1], [0, 0, 2]], [[0, 0], [0, 0]]):
            m = RationalMatrix(rows)
            assert numerical_rank(m) == fraction_rank(m)
        assert numerical_rank(RationalMatrix.zeros(0, 3)) == 0


def fraction_ldlt(m: RationalMatrix):
    """Symmetric elimination on Fractions with the diagonal pivots taken in
    order: the unit lower columns and the pivots of m, or None when m is not
    PSD.  The reference for `ldlt`."""
    a = m.to_fractions()
    n = len(a)
    columns, pivots = [], []
    for k in range(n):
        d = a[k][k]
        if d < 0 or (d == 0 and any(a[k][k + 1 :])):
            return None
        if d == 0:
            continue
        col = [Fraction(0)] * k + [a[i][k] / d for i in range(k, n)]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= col[i] * a[k][j]
        columns.append(col)
        pivots.append(d)
    return columns, pivots


def congruent(draw, n: int, middle: list) -> RationalMatrix:
    """U M U^T over a random denominator, for a random unit lower-triangular
    integer U and the symmetric integer matrix M: diagonal pivoting finds the
    pivots of M in order, each scaled by the denominator."""
    u = np.eye(n, dtype=object)
    for i in range(n):
        for j in range(i):
            u[i, j] = draw(st.integers(-4, 4))
    num = u @ np.array(middle, dtype=object).reshape(n, n) @ u.T
    return RationalMatrix(num, draw(st.integers(1, 2**70)))


@st.composite
def psd_matrices(draw):
    """Full-rank PSD matrices, and rank-deficient V V^T, some with entries
    of 2^62 and above."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        pivots = draw(st.lists(st.integers(1, 2**64), min_size=n, max_size=n))
        return congruent(draw, n, np.diag(np.array(pivots, dtype=object)).tolist())
    k = draw(st.integers(0, n))
    v = draw(st.lists(st.lists(RANK_ENTRIES, min_size=k, max_size=k), min_size=n, max_size=n))
    num = np.array(v, dtype=object).reshape(n, k)
    return RationalMatrix(num @ num.T, draw(st.integers(1, 2**70)))


@st.composite
def indefinite_matrices(draw):
    """U M U^T where M has positive pivots, then either a negative pivot or a
    2 x 2 block [[0, b], [b, c]] with b != 0: a zero pivot whose row is not
    zero."""
    before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    diag = draw(st.lists(st.integers(1, 9), min_size=before + after, max_size=before + after))
    if draw(st.booleans()):
        block = [[draw(st.integers(-2**64, -1))]]
    else:
        b = draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1]))
        block = [[0, b], [b, draw(st.integers(-9, 9))]]
    m = len(block)
    n = before + m + after
    middle = np.zeros((n, n), dtype=object)
    middle[np.arange(before), np.arange(before)] = diag[:before]
    middle[before : before + m, before : before + m] = block
    middle[np.arange(before + m, n), np.arange(before + m, n)] = diag[before:]
    return congruent(draw, n, middle.tolist())


class TestLdlt:
    @settings(max_examples=60, deadline=None)
    @given(psd_matrices())
    def test_matches_fraction_elimination(self, h):
        lower, dens, rank = ldlt(h)
        columns, pivots = fraction_ldlt(h)
        n = h.rows
        assert lower.shape == (n, rank) and len(dens) == rank == len(pivots)
        num = np.array([[int(x) for x in row] for row in h._num], dtype=object).reshape(n, n)
        rebuilt = lower @ np.diag(np.array([Fraction(1, d) for d in dens], dtype=object)) @ lower.T
        assert (rebuilt == num).all()
        for j, (col, d) in enumerate(zip(columns, pivots)):
            k = next(i for i, c in enumerate(col) if c)  # the pivot's index
            p = lower[k, j]
            assert [Fraction(x, p) for x in lower[:, j]] == col
            assert Fraction(p * p, dens[j]) == d * h.denominator
        assert rank == numerical_rank(h)

    @settings(max_examples=40, deadline=None)
    @given(indefinite_matrices())
    def test_indefinite_rejected(self, h):
        assert fraction_ldlt(h) is None
        with pytest.raises(InputError, match="not positive semidefinite"):
            ldlt(h)

    def test_zero_pivot_with_nonzero_row_rejected(self):
        with pytest.raises(InputError, match="not positive semidefinite"):
            ldlt(RationalMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 5]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            ldlt(RationalMatrix([[1, 1], [0, 1]]))


class TestJson:
    def test_rational_entries_are_strings(self):
        obj = matrix_to_json_obj(TILT)
        assert obj["scalar"] == "rational"
        assert dumps(obj["entries"]) == reference_dumps(["1/2", "1/2", "1/2", "1/2"])

    def test_complex_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5j, -1]], dtype=complex)
        back = matrix_from_json_obj(wire(matrix_to_json_obj(m)))
        assert np.array_equal(back, m)

    def test_entry_count_checked(self):
        with pytest.raises(InputError, match="entries"):
            matrix_from_json_obj({"rows": 2, "cols": 2, "scalar": "rational", "entries": ["1/1"]})

    def test_unknown_scalar(self):
        with pytest.raises(InputError, match="scalar"):
            matrix_from_json_obj({"rows": 0, "cols": 0, "scalar": "octonion", "entries": []})

    @pytest.mark.parametrize("part", [None, "1", True, [0]])
    def test_complex_parts_must_be_numbers(self, part):
        for pair in ([part, 0], [0, part]):
            with pytest.raises(InputError, match="complex entry parts must be numbers"):
                matrix_from_json_obj({"rows": 1, "cols": 1, "scalar": "complex", "entries": [pair]})

    def test_complex_integer_parts_parse(self):
        m = matrix_from_json_obj({"rows": 1, "cols": 2, "scalar": "complex", "entries": [[1, 0], [-0.0, 2]]})
        assert m.dtype == complex and m.shape == (1, 2)
        # bit for bit what complex(float(re), float(im)) gives, signed zero included
        assert m.tobytes() == np.array([complex(1.0, 0.0), complex(-0.0, 2.0)]).tobytes()

    def test_complex_part_out_of_float_range(self):
        with pytest.raises(InputError, match="float range"):
            matrix_from_json_obj({"rows": 1, "cols": 1, "scalar": "complex", "entries": [[10**400, 0]]})


def fraction_literals(m: RationalMatrix) -> list:
    """The wire entries as Fraction formats them, entry by entry."""
    return [f"{f.numerator}/{f.denominator}" for row in m.to_fractions() for f in row]


def wide_fractions():
    small = st.integers(-9, 9)
    huge = st.tuples(st.integers(-3, 3), st.integers(-9, 9)).map(lambda t: t[0] * 2**63 + t[1])
    return st.tuples(st.one_of(small, huge), st.integers(1, 12)).map(lambda t: Fraction(*t))


def one_entry(literal):
    return matrix_from_json_obj({"rows": 1, "cols": 1, "scalar": "rational", "entries": [literal]})


class TestRationalWire:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(fractions_strategy(), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_to_json_matches_fraction_formatting_int64(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert m._num.dtype == np.int64
        assert dumps(matrix_to_json_obj(m)["entries"]) == reference_dumps(fraction_literals(m))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(wide_fractions(), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_to_json_matches_fraction_formatting_big(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert dumps(matrix_to_json_obj(m)["entries"]) == reference_dumps(fraction_literals(m))
        assert matrix_from_json_obj(wire(matrix_to_json_obj(m))) == m

    def test_entries_above_2_62_stay_python_ints(self):
        m = RationalMatrix.from_rows([[2**62, Fraction(-1, 3)], [0, 2**70 + 1]])
        assert m._num.dtype == object
        expected = [f"{2**62}/1", "-1/3", "0/1", f"{2**70 + 1}/1"]
        assert dumps(matrix_to_json_obj(m)["entries"]) == reference_dumps(expected)

    @pytest.mark.parametrize("literal", [" 1/2 ", "3", "1.5", "-0/5", "+7/14", 4, -12])
    def test_from_json_accepts_what_as_fraction_accepts(self, literal):
        assert one_entry(literal).entry(0, 0) == _as_fraction(literal)

    @pytest.mark.parametrize("literal", ["1/-2", "1/0", "", True, 1.5, None, [1, 2]])
    def test_from_json_rejects_what_as_fraction_rejects(self, literal):
        with pytest.raises(InputError):
            _as_fraction(literal)
        with pytest.raises(InputError):
            one_entry(literal)

    def test_equal_keys_are_not_pooled_across_types(self):
        # 1 == True == 1.0 as dict keys, but only 1 is a rational literal
        for bad in (True, 1.0):
            with pytest.raises(InputError):
                matrix_from_json_obj(
                    {"rows": 1, "cols": 2, "scalar": "rational", "entries": [1, bad]}
                )
        m = matrix_from_json_obj({"rows": 1, "cols": 3, "scalar": "rational", "entries": ["1", 1, "2/4"]})
        assert m.to_fractions() == [[1, 1, HALF]]

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (2, 0)):
            m = matrix_from_json_obj({"rows": rows, "cols": cols, "scalar": "rational", "entries": []})
            assert m.shape == (rows, cols)
            assert dumps(matrix_to_json_obj(m)["entries"]) == reference_dumps([])


def reference_to_json_obj(m) -> dict:
    """One matrix at a time, entry by entry: the codec before literal tables."""
    if isinstance(m, RationalMatrix):
        return {"rows": m.rows, "cols": m.cols, "scalar": "rational", "entries": fraction_literals(m)}
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "scalar": "complex",
        "entries": [[float(x.real), float(x.imag)] for x in m.flat],
    }


def reference_from_json_obj(obj):
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if obj["scalar"] == "complex":
        return np.array([complex(*e) for e in entries], dtype=complex).reshape(rows, cols)
    values = [_as_fraction(x) for x in entries]
    den = math.lcm(*(f.denominator for f in values))
    num = np.array([f.numerator * (den // f.denominator) for f in values], dtype=object)
    return RationalMatrix(num.reshape(rows, cols), den)


def same_matrix(a, b) -> bool:
    if isinstance(a, RationalMatrix):
        return isinstance(b, RationalMatrix) and a == b and a._num.dtype == b._num.dtype
    return isinstance(b, np.ndarray) and b.dtype == complex and np.array_equal(a, b)


# about 2^41: the rank-one projection onto (a, b) has numerators near 2^40
BIG_A, BIG_B = 1_048_583, 1_048_573
MIXED = [
    TILT,
    PIN,
    RationalMatrix.from_rows([[Fraction(1, 3), 0], [Fraction(-2, 9), 1]]),
    RationalMatrix.outer((BIG_A, BIG_B), (BIG_A, BIG_B), BIG_A**2 + BIG_B**2),
    RationalMatrix.from_rows([[2**62, Fraction(-1, 3)], [0, 2**70 + 1]]),
    np.array([[1 + 2j, -0.0], [0.5j, 1 / 3]], dtype=complex),
    RationalMatrix.zeros(0, 0),
    RationalMatrix.from_rows([[HALF, 0], [0, Fraction(3, 2)]]),
    RationalMatrix.zeros(2, 2),
]


def small_or_wide_matrices():
    return st.integers(0, 3).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(fractions_strategy(), wide_fractions()), min_size=cols, max_size=cols),
            max_size=3,
        ).map(RationalMatrix.from_rows)
    )


def repeated_row_matrices():
    """Matrices whose rows are drawn from a few distinct rows, scaled by a
    random rational, so rows repeat within and across matrices and one call
    mixes denominators, widths, empty shapes and numerators past 2^62."""
    row_pool = st.integers(0, 3).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(fractions_strategy(), wide_fractions()), min_size=cols, max_size=cols),
            min_size=1, max_size=3,
        )
    )
    return st.tuples(row_pool, st.lists(st.integers(0, 2), max_size=5), fractions_strategy()).map(
        lambda t: RationalMatrix.from_rows([t[0][i % len(t[0])] for i in t[1]]) * (t[2] or 1)
        if t[1] else RationalMatrix.zeros(0, len(t[0][0]))
    )


class TestBatchedCodec:
    def test_writer_matches_per_matrix(self):
        assert dumps(matrices_to_json_obj(MIXED)) == reference_dumps([reference_to_json_obj(m) for m in MIXED])
        assert all(dumps(matrix_to_json_obj(m)) == reference_dumps(reference_to_json_obj(m)) for m in MIXED)

    def test_reader_matches_per_matrix(self):
        objs = [reference_to_json_obj(m) for m in MIXED]
        batched = matrices_from_json_obj(objs)
        for m, got in zip(MIXED, batched):
            assert same_matrix(got, reference_from_json_obj(reference_to_json_obj(m)))
            assert same_matrix(got, m)
        assert batched[4]._num.dtype == object and batched[3]._num.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_or_wide_matrices(), max_size=5))
    def test_round_trip_matches_per_matrix(self, mats):
        objs = matrices_to_json_obj(mats)
        assert dumps(objs) == reference_dumps([reference_to_json_obj(m) for m in mats])
        for m, got in zip(mats, matrices_from_json_obj(wire(objs))):
            assert same_matrix(got, m)
            assert same_matrix(got, reference_from_json_obj(reference_to_json_obj(m)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(repeated_row_matrices(), max_size=6))
    def test_written_bytes_match_per_entry(self, mats):
        objs = matrices_to_json_obj(mats)
        reference = [reference_to_json_obj(m) for m in mats]
        assert dumps(objs) == reference_dumps(reference)
        for m, got in zip(mats, matrices_from_json_obj(wire(objs))):
            assert same_matrix(got, m)

    def test_rows_of_every_shape(self):
        wide = RationalMatrix.from_rows([[2**62, Fraction(-1, 3)], [2**62, Fraction(-1, 3)], [0, 2**70 + 1]])
        mats = [
            RationalMatrix.zeros(0, 3), RationalMatrix.zeros(3, 0), RationalMatrix.zeros(0, 0),
            wide, wide * Fraction(1, 7), TILT, PIN, TILT * 3,
            np.array([[1j]]),
        ]
        objs = matrices_to_json_obj(mats)
        assert dumps(objs) == reference_dumps([reference_to_json_obj(m) for m in mats])
        assert [dumps(o["entries"]) for o in objs[:3]] == ["[]", "[]", "[]"]
        assert wide._num.dtype == object

    def test_bad_literal_in_last_matrix(self):
        objs = [reference_to_json_obj(m) for m in (TILT, PIN, TILT)]
        objs[-1]["entries"][3] = "1/0"
        with pytest.raises(InputError) as single:
            matrix_from_json_obj(objs[-1])
        with pytest.raises(InputError) as batched:
            matrices_from_json_obj(objs)
        assert str(batched.value) == str(single.value) == "bad rational literal '1/0'"

    def test_pooled_matrices_share_no_memory(self):
        objs = [reference_to_json_obj(m) for m in (TILT, PIN, TILT, RationalMatrix.identity(2))]
        mats = matrices_from_json_obj(objs)
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert not np.shares_memory(a._num, b._num)
        assert mats[0] == mats[2] == TILT


# spellings of a few values, literals that are not rationals, and values
# that equal a literal as dict keys without being one
LITERALS = ["1/2", "2/4", " 1/2 ", "0.5", "+7/14", "-3", "3", "-0/5", "0/1", "1/0", "x", "", "1/-2"]
TAINTS = [True, 1.0, None]


def literals():
    text = st.one_of(st.sampled_from(LITERALS), fractions_strategy().map(str))
    return st.one_of(text, text.map(np.str_), st.integers(-3, 3))


def literal_objs(taint: bool):
    entry = st.one_of(literals(), st.sampled_from(TAINTS)) if taint else literals()
    shape = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.lists(
        shape.flatmap(
            lambda rc: st.lists(entry, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
                lambda e: {"rows": rc[0], "cols": rc[1], "scalar": "rational", "entries": e}
            )
        ),
        min_size=1,
        max_size=4,
    )


def reference_read(objs):
    """Matrices of `objs` one by one, or the text of the first error."""
    try:
        return [reference_from_json_obj(obj) for obj in objs]
    except InputError as exc:
        return str(exc)


def batched_read(objs):
    try:
        return matrices_from_json_obj(objs)
    except InputError as exc:
        return str(exc)


class TestOnePassPooling:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans().flatmap(literal_objs))
    def test_reader_matches_reference(self, objs):
        want, got = reference_read(objs), batched_read(objs)
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want) and all(map(same_matrix, got, want))

    def test_numpy_str_entries(self):
        entries = [np.str_("1/2"), "1/2", np.str_("2/4"), np.str_("3")]
        obj = {"rows": 2, "cols": 2, "scalar": "rational", "entries": entries}
        m = matrix_from_json_obj(obj)
        assert m.to_fractions() == [[HALF, HALF], [HALF, 3]]
        assert same_matrix(m, reference_from_json_obj(obj))
        obj["entries"] = ["0/1", np.str_("1/0"), "1/0", "1/2"]
        assert batched_read([obj]) == reference_read([obj]) == "bad rational literal np.str_('1/0')"

    def test_three_spellings_of_one_value(self):
        obj = {"rows": 1, "cols": 3, "scalar": "rational", "entries": ["1/2", "2/4", " 1/2 "]}
        m = matrix_from_json_obj(obj)
        assert m.to_fractions() == [[HALF, HALF, HALF]]
        assert (m.denominator, m._num.tolist()) == (2, [[1, 1, 1]])

    @pytest.mark.parametrize(
        "second, first_bad",
        [(["0/1", "1/0", "q", "1/0"], "1/0"), (["0/1", "q", "1/0", "q"], "q")],
    )
    def test_first_of_two_bad_literals_in_file_order(self, second, first_bad):
        good = {"rows": 2, "cols": 2, "scalar": "rational", "entries": ["1/2", "0/1", "0/1", "1/2"]}
        bad = {"rows": 2, "cols": 2, "scalar": "rational", "entries": second}
        # a later matrix repeats the second bad literal only
        later = {"rows": 1, "cols": 1, "scalar": "rational", "entries": ["1/0" if first_bad == "q" else "q"]}
        objs = [good, bad, later]
        assert batched_read(objs) == reference_read(objs) == f"bad rational literal {first_bad!r}"


GOOD_ROW_LITERALS = ["1/2", "2/4", "-3", "0/1", "7/3", 0, 1, 5]
BAD_ROW_LITERALS = ["1e3", 0.5, 1.0, True, False, "1\x000", "\x00", "0\x00/1"]


def repeated_row_objs(taint: bool):
    """1-4 rational matrices of widths 0-4 whose rows are prefixes of 1-3
    pool rows, so rows repeat within and across matrices."""
    literal = st.sampled_from(GOOD_ROW_LITERALS + (BAD_ROW_LITERALS if taint else []))
    pool = st.lists(st.lists(literal, min_size=4, max_size=4), min_size=1, max_size=3)
    shape = st.tuples(st.integers(0, 4), st.integers(0, 4), st.lists(st.integers(0, 2), min_size=4, max_size=4))

    def matrix(pool, rows, cols, picks):
        # the rows of a width-w matrix are the first w literals of pool rows
        picked = [pool[k % len(pool)][:cols] for k in picks[:rows]]
        return {"rows": rows, "cols": cols, "scalar": "rational", "entries": [x for row in picked for x in row]}

    return st.tuples(pool, st.lists(shape, min_size=1, max_size=4)).map(
        lambda drawn: [matrix(drawn[0], *s) for s in drawn[1]])


def literal_by_literal(objs):
    """(rows, cols, Fractions) of each matrix, each literal parsed by
    `_as_fraction` in file order, or the text of the first error."""
    try:
        return [(o["rows"], o["cols"], [_as_fraction(x) for x in o["entries"]]) for o in objs]
    except InputError as exc:
        return str(exc)


def row_pooled(objs):
    """What the reader makes of `objs`, the same whether their entries are
    lists or `Raw`s of their compact text, where the rows are pooled."""
    as_text = [{**o, "entries": Raw(json.dumps(o["entries"], separators=(",", ":")))} for o in objs]
    out = []
    for doc in (objs, as_text):
        try:
            mats = matrices_from_json_obj(doc)
        except InputError as exc:
            out.append(str(exc))
        else:
            out.append([(m.rows, m.cols, [x for row in m.to_fractions() for x in row]) for m in mats])
    assert out[0] == out[1]
    return out[0]


class TestRowPooling:
    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(repeated_row_objs))
    # 0 and False, 1 and 1.0 are equal keys, but only the ints are rationals
    @example([{"rows": 2, "cols": 2, "scalar": "rational", "entries": [0, 1, False, 1.0]}])
    def test_reader_matches_literal_by_literal(self, objs):
        assert row_pooled(objs) == literal_by_literal(objs)

    @pytest.mark.parametrize("nul_first", [False, True])
    def test_nul_literal_is_no_row_of_another_width(self, nul_first):
        # "1\x000" joins the row ["1", "0"] with NUL, as row keys once did
        wide = {"rows": 1, "cols": 2, "scalar": "rational", "entries": ["1", "0"]}
        narrow = {"rows": 1, "cols": 1, "scalar": "rational", "entries": ["1\x000"]}
        objs = [narrow, wide] if nul_first else [wide, narrow]
        assert row_pooled(objs) == literal_by_literal(objs) == "bad rational literal '1\\x000'"


class TestExponentLiterals:
    @pytest.mark.parametrize("literal", ["1e3000000", "1E3", "2.5e-1", "-1e0", " 3e2 "])
    def test_rejected(self, literal):
        with pytest.raises(InputError, match="^bad rational literal "):
            _as_fraction(literal)
        with pytest.raises(InputError) as exc:
            one_entry(literal)
        assert str(exc.value) == f"bad rational literal {literal!r}"
