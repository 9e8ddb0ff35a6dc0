from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmg.errors import InputError
from jmg.linalg import (
    HermitianCheckReport,
    RationalMatrix,
    _as_fraction,
    commutator,
    direct_sum,
    hermitian_check,
    is_projection,
    matrix_from_json_obj,
    matrix_to_json_obj,
    numerical_rank,
    psd_sqrt,
)

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

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            RationalMatrix([[1]], 0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            PIN + RationalMatrix.zeros(3, 3)
        with pytest.raises(InputError):
            PIN @ RationalMatrix.zeros(3, 3)

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
        assert matrix_from_json_obj(matrix_to_json_obj(m)) == m


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

    def test_float_blocks(self):
        out = direct_sum([np.eye(2, dtype=complex), np.zeros((1, 1), dtype=complex)])
        assert out.shape == (3, 3)
        assert out[2, 2] == 0


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


class TestHermitianCheck:
    def test_half_identity(self):
        rep = hermitian_check(np.eye(2, dtype=complex) / 2, require_psd=True)
        assert rep.verdict
        assert rep.min_eigenvalue == pytest.approx(0.5)

    def test_asymmetric_fails(self):
        rep = hermitian_check(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not rep.verdict
        assert rep.max_asymmetry == pytest.approx(1.0)

    def test_noisy_effect_spectrum(self):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        rep = hermitian_check((np.eye(2) + 0.6 * sigma_x) / 2, require_psd=True)
        assert rep.verdict
        assert rep.min_eigenvalue == pytest.approx(0.2)

    def test_report_type(self):
        assert isinstance(hermitian_check(np.eye(1, dtype=complex)), HermitianCheckReport)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3, dtype=complex)) == 3

    def test_rank_one_outer(self):
        v = np.array([[1.0], [2.0], [0.5]])
        assert numerical_rank((v @ v.T).astype(complex)) == 1

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


class TestJson:
    def test_rational_entries_are_strings(self):
        obj = matrix_to_json_obj(TILT)
        assert obj["scalar"] == "rational"
        assert obj["entries"] == ["1/2", "1/2", "1/2", "1/2"]

    def test_complex_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5j, -1]], dtype=complex)
        back = matrix_from_json_obj(matrix_to_json_obj(m))
        assert np.array_equal(back, m)

    def test_entry_count_checked(self):
        with pytest.raises(InputError, match="entries"):
            matrix_from_json_obj({"rows": 2, "cols": 2, "scalar": "rational", "entries": ["1/1"]})

    def test_unknown_scalar(self):
        with pytest.raises(InputError, match="scalar"):
            matrix_from_json_obj({"rows": 0, "cols": 0, "scalar": "octonion", "entries": []})


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
        assert matrix_to_json_obj(m)["entries"] == fraction_literals(m)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(wide_fractions(), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_to_json_matches_fraction_formatting_big(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert matrix_to_json_obj(m)["entries"] == fraction_literals(m)
        assert matrix_from_json_obj(matrix_to_json_obj(m)) == m

    def test_entries_above_2_62_stay_python_ints(self):
        m = RationalMatrix.from_rows([[2**62, Fraction(-1, 3)], [0, 2**70 + 1]])
        assert m._num.dtype == object
        assert matrix_to_json_obj(m)["entries"] == [f"{2**62}/1", "-1/3", "0/1", f"{2**70 + 1}/1"]

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
            assert matrix_to_json_obj(m)["entries"] == []
