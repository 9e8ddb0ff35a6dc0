import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

import jmg.povm.dilation
import jmg.povm.model
from jmg.errors import InputError
from jmg.graphs import parse_graph
from jmg.povm import (
    POVM,
    JointPOVM,
    compression,
    dilation_to_json_obj,
    jm_feasible,
    marginal,
    neumark_dilate,
    noisy_orthogonal_triple,
    povm_from_json_obj,
    povm_to_json_obj,
)
from jmg.povm.dilation import DilationResult, joint_dilation
from jmg.povm.model import joint_povm_from_json_obj, joint_povm_to_json_obj, validate_povm
from jmg.linalg import matrices_to_json_obj, psd_sqrt
from jmg.realize import lift_to_pvms, realize_direct_sum
from jmg.serialize import dumps

from helpers import (
    basis_pvm,
    exact_pvm_to_float,
    haar_unitary,
    matrix_to_json_obj,
    pvm_jointly_measurable,
    random_povm,
    wire,
)

EYE2 = np.eye(2, dtype=complex)


def trine_povm() -> POVM:
    elements = {}
    for k, angle in enumerate((0.0, 2 * np.pi / 3, 4 * np.pi / 3)):
        v = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        elements[str(k)] = (2 / 3) * np.outer(v, v.conj())
    return POVM(2, ("0", "1", "2"), elements)


class TestValidatePovm:
    def test_coin_flip_valid(self):
        e = POVM(2, ("h", "t"), {"h": EYE2 / 2, "t": EYE2 / 2})
        assert validate_povm(e).valid

    def test_trine_valid(self):
        report = validate_povm(trine_povm())
        assert report.valid
        assert report.sum_error < 1e-12

    def test_bad_sum_invalid(self):
        e = POVM(2, ("a", "b"), {"a": EYE2, "b": EYE2 / 2})
        report = validate_povm(e)
        assert not report.valid
        assert report.sum_error == pytest.approx(0.5)

    def test_negative_effect_invalid(self):
        e = POVM(2, ("a", "b"), {"a": np.diag([1.5, 0.5]).astype(complex),
                                 "b": np.diag([-0.5, 0.5]).astype(complex)})
        report = validate_povm(e)
        assert not report.valid
        assert report.min_eigenvalue == pytest.approx(-0.5)
        assert report.max_eigenvalue == pytest.approx(1.5)

    def test_structural_label_mismatch(self):
        with pytest.raises(InputError, match="labels"):
            POVM(2, ("a", "b"), {"a": EYE2})

    def test_zero_outcomes_invalid(self):
        report = validate_povm(POVM(2, (), {}))
        assert (report.max_asymmetry, report.min_eigenvalue, report.max_eigenvalue) == (0, 0, 0)
        assert report.sum_error == 1
        assert not report.valid

    def test_labels_kept_as_given(self):
        e = POVM(1, (0, 1), {0: [[0.25]], 1: [[0.75]]})
        assert e.outcomes == (0, 1)
        assert validate_povm(e).valid

    def test_element_must_be_a_matrix(self):
        with pytest.raises(InputError, match="matrix expected"):
            POVM(2, ("a",), {"a": [1, 0]})
        with pytest.raises(InputError, match=r"shape \(2, 3\) != space_dim 2"):
            POVM(2, ("a",), {"a": np.zeros((2, 3))})
        with pytest.raises(InputError, match="finite"):
            POVM(1, ("a",), {"a": [[np.nan]]})


class TestPvmJointlyMeasurable:
    def test_self_pair(self):
        p = basis_pvm(3, [[0], [1, 2]])
        assert pvm_jointly_measurable([p, p])

    def test_lifted_fork_pvms_clash(self):
        fork = parse_graph("3; 0-1, 0-2")
        lifted = lift_to_pvms(realize_direct_sum(fork))
        p_y = exact_pvm_to_float(lifted.pvms[1])
        p_z = exact_pvm_to_float(lifted.pvms[2])
        assert not pvm_jointly_measurable([p_y, p_z])
        assert pvm_jointly_measurable([exact_pvm_to_float(lifted.pvms[0]), p_y])

    def test_three_diagonal(self):
        family = [basis_pvm(4, [[0, 1], [2, 3]]), basis_pvm(4, [[0], [1, 2, 3]]),
                  basis_pvm(4, [[0, 2], [1, 3]])]
        assert pvm_jointly_measurable(family)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimensions"):
            pvm_jointly_measurable([basis_pvm(2, [[0], [1]]), basis_pvm(3, [[0], [1, 2]])])


class TestNeumarkDilate:
    def test_pvm_input_is_fixed_point(self):
        p = basis_pvm(2, [[0], [1]])
        d = neumark_dilate(p)
        assert d.enlarged_dim == 4
        for o in p.outcomes:
            assert np.linalg.norm(compression(d.isometry, d.pvm.elements[o]) - p.elements[o]) < 1e-10

    def test_coin_flip(self):
        e = POVM(2, ("h", "t"), {"h": EYE2 / 2, "t": EYE2 / 2})
        d = neumark_dilate(e)
        assert d.enlarged_dim == 4
        assert np.linalg.norm(d.isometry.conj().T @ d.isometry - EYE2) < 1e-12
        for o in e.outcomes:
            assert np.linalg.norm(compression(d.isometry, d.pvm.elements[o]) - EYE2 / 2) < 1e-10

    def test_trine(self):
        e = trine_povm()
        d = neumark_dilate(e)
        assert d.enlarged_dim == 6
        blocks = d.pvm.element_list()
        assert all(np.array_equal(a @ a, a) for a in blocks)
        assert not any(np.any(a @ b) for i, a in enumerate(blocks) for b in blocks[i + 1 :])
        for o in e.outcomes:
            assert np.linalg.norm(compression(d.isometry, d.pvm.elements[o]) - e.elements[o]) < 1e-9

    def test_rejects_invalid_povm(self):
        bad = POVM(2, ("a", "b"), {"a": np.diag([1.5, 0.5]).astype(complex),
                                   "b": np.diag([-0.5, 0.5]).astype(complex)})
        with pytest.raises(InputError, match="valid POVM"):
            neumark_dilate(bad)

    def test_soundness_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            e = random_povm(rng, int(rng.integers(1, 5)), int(rng.integers(2, 6)))
            d = neumark_dilate(e)
            assert np.linalg.norm(d.isometry.conj().T @ d.isometry - np.eye(e.space_dim)) <= 1e-9
            for o in e.outcomes:
                assert np.linalg.norm(
                    compression(d.isometry, d.pvm.elements[o]) - e.elements[o]
                ) <= 1e-9


def reference_neumark_dilate(e: POVM, tol: float = 1e-8):
    """Neumark dilation as first written: one `psd_sqrt` per element into the
    isometry's row blocks, next to each block projector.  It is the parity
    reference for `neumark_dilate`, which takes every root from one batched
    eigendecomposition, not a library path."""
    assert validate_povm(e, tol).valid
    d, k = e.space_dim, len(e.outcomes)
    isometry = np.zeros((d * k, d), dtype=complex)
    blocks = {}
    for idx, label in enumerate(e.outcomes):
        isometry[idx * d : (idx + 1) * d, :] = psd_sqrt(e.elements[label], tol)
        proj = np.zeros((d * k, d * k), dtype=complex)
        proj[idx * d : (idx + 1) * d, idx * d : (idx + 1) * d] = np.eye(d)
        blocks[label] = proj
    return isometry, blocks


def rank_deficient_povm(rng: np.random.Generator, dim: int, outcomes: int) -> POVM:
    """Random PSD matrices of rank 0..dim (the first of full rank), normalized
    into a resolution of the identity."""
    mats = []
    for j in range(outcomes):
        r = dim if j == 0 else int(rng.integers(0, dim + 1))
        g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
        mats.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(mats))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    labels = tuple(str(j) for j in range(outcomes))
    return POVM(dim, labels, {o: inv_sqrt @ m @ inv_sqrt for o, m in zip(labels, mats)})


def assert_matches_reference(e: POVM) -> None:
    got = neumark_dilate(e)
    isometry, blocks = reference_neumark_dilate(e)
    assert got.isometry.shape == isometry.shape
    assert got.isometry.tobytes() == isometry.tobytes()
    assert got.pvm.outcomes == e.outcomes
    for o in e.outcomes:
        assert np.array_equal(got.pvm.elements[o], blocks[o])


class TestBatchedRoots:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_povms_match_reference_bitwise(self, seed):
        rng = np.random.default_rng([seed, 29])
        for dim in range(1, 6):
            for outcomes in range(1, 6):
                assert_matches_reference(rank_deficient_povm(rng, dim, outcomes))

    def test_pvms_match_reference_bitwise(self):
        rng = np.random.default_rng(4)
        for dim in range(1, 6):
            blocks = [[j] for j in range(dim)]
            assert_matches_reference(basis_pvm(dim, blocks))
            assert_matches_reference(basis_pvm(dim, blocks, haar_unitary(rng, dim)))

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.55])
    def test_qubit_joint_witnesses_match_reference_bitwise(self, eta):
        triple = noisy_orthogonal_triple(eta)
        for family in (triple[:2], triple):
            assert_matches_reference(jm_feasible(family).witness)

    def test_qutrit_joint_witness_matches_reference_bitwise(self):
        rng = np.random.default_rng(11)
        family = []
        for _ in range(2):
            p = basis_pvm(3, [[0], [1], [2]], haar_unitary(rng, 3))
            noisy = {o: (p.elements[o] + np.eye(3) / 3) / 2 for o in p.outcomes}
            family.append(POVM(3, p.outcomes, noisy))
        assert_matches_reference(jm_feasible(family).witness)


class TestMarginal:
    def test_product_joint_recovers_factors(self):
        p = basis_pvm(3, [[0], [1, 2]])
        q = basis_pvm(3, [[0, 1], [2]])
        elements = {
            (a, b): p.elements[a] @ q.elements[b] for a in p.outcomes for b in q.outcomes
        }
        joint = JointPOVM(3, (p.outcomes, q.outcomes), elements)
        for n, original in enumerate((p, q)):
            marg = marginal(joint, n)
            for o in original.outcomes:
                assert np.allclose(marg.elements[o], original.elements[o])

    def test_uniform_joint(self):
        outcomes = (("0", "1"), ("0", "1", "2"))
        elements = {
            (a, b): EYE2 / 6 for a in outcomes[0] for b in outcomes[1]
        }
        joint = JointPOVM(2, outcomes, elements)
        assert np.allclose(marginal(joint, 0).elements["0"], EYE2 / 2)
        assert np.allclose(marginal(joint, 1).elements["2"], EYE2 / 3)

    def test_index_out_of_range(self):
        joint = JointPOVM(2, (("0", "1"),), {("0",): EYE2 / 2, ("1",): EYE2 / 2})
        with pytest.raises(InputError, match="factor index"):
            marginal(joint, 1)

    @pytest.mark.parametrize("factor", [True, -1, 0.0, "0"])
    def test_index_must_be_a_count(self, factor):
        joint = JointPOVM(2, (("0", "1"),), {("0",): EYE2 / 2, ("1",): EYE2 / 2})
        with pytest.raises(InputError, match="factor index must be a nonnegative integer"):
            marginal(joint, factor)

    def test_repeated_factor_label_rejected(self):
        with pytest.raises(InputError, match="duplicate outcome labels"):
            JointPOVM(2, (("+", "+"),), {("+",): EYE2})


def reference_joint_dilation(povms, witness: JointPOVM, tol: float = 1e-6):
    """Joint dilation as first written: dilate the joint observable flattened
    to JSON-string labels, then sum its block projectors over every outcome
    tuple by hand.  It is the parity reference for `joint_dilation`, which
    takes the marginals of one dilated joint PVM, not a library path."""
    tuples = list(witness.outcomes)
    labels = [json.dumps(list(t), separators=(",", ":")) for t in tuples]
    flat = POVM(witness.space_dim, tuple(labels), dict(zip(labels, witness.element_list())))
    base = neumark_dilate(flat, max(tol, 1e-8))
    coarse = []
    for n, e in enumerate(povms):
        elems = {}
        for o in e.outcomes:
            total = np.zeros((base.enlarged_dim, base.enlarged_dim), dtype=complex)
            for t, label in zip(tuples, labels):
                if t[n] == o:
                    total += base.pvm.elements[label]
            elems[o] = total
        coarse.append(POVM(base.enlarged_dim, e.outcomes, elems))
    return base.isometry, coarse


class TestJointDilation:
    def test_commuting_product_witness(self):
        p = basis_pvm(2, [[0], [1]])
        q = basis_pvm(2, [[0], [1]])
        elements = {(a, b): p.elements[a] @ q.elements[b] for a in p.outcomes for b in q.outcomes}
        witness = JointPOVM(2, (p.outcomes, q.outcomes), elements)
        jd = joint_dilation([p, q], witness)
        assert pvm_jointly_measurable(jd.coarse_pvms)
        for n, original in enumerate((p, q)):
            for o in original.outcomes:
                rebuilt = compression(jd.isometry, jd.coarse_pvms[n].elements[o])
                assert np.linalg.norm(rebuilt - original.elements[o]) < 1e-10

    def test_noisy_pair_end_to_end(self):
        povms = noisy_orthogonal_triple(0.6)[:2]
        witness = jm_feasible(povms).witness
        jd = joint_dilation(povms, witness)
        assert pvm_jointly_measurable(jd.coarse_pvms, tol=1e-8)
        for n, e in enumerate(povms):
            for o in e.outcomes:
                rebuilt = compression(jd.isometry, jd.coarse_pvms[n].elements[o])
                assert np.linalg.norm(rebuilt - e.elements[o]) <= 1e-7

    def test_rejects_mismatched_witness(self):
        povms = noisy_orthogonal_triple(0.6)[:2]
        uniform = {
            (a, b): EYE2 / 4 for a in ("+", "-") for b in ("+", "-")
        }
        witness = JointPOVM(2, (("+", "-"), ("+", "-")), uniform)
        with pytest.raises(InputError, match="marginal"):
            joint_dilation(povms, witness)

    @pytest.mark.parametrize("eta", [None, 0.5, 0.6])
    def test_matches_flattened_reference_bitwise(self, eta):
        if eta is None:  # the commuting product witness
            p = q = basis_pvm(2, [[0], [1]])
            povms = [p, q]
            elements = {(a, b): p.elements[a] @ q.elements[b] for a in p.outcomes for b in q.outcomes}
            witness = JointPOVM(2, (p.outcomes, q.outcomes), elements)
        else:
            povms = noisy_orthogonal_triple(eta)[:2]
            witness = jm_feasible(povms).witness
        jd = joint_dilation(povms, witness)
        isometry, coarse = reference_joint_dilation(povms, witness)
        assert np.array_equal(jd.isometry, isometry)
        assert jd.joint_pvm.outcomes == witness.outcomes
        for got, want in zip(jd.coarse_pvms, coarse):
            assert got.outcomes == want.outcomes
            for o in want.outcomes:
                assert np.array_equal(got.elements[o], want.elements[o])

    def test_triple_dilation_unreachable_at_0_6(self):
        # no witness exists for the triple, so its joint dilation cannot be formed
        report = jm_feasible(noisy_orthogonal_triple(0.6), max_iter=1200)
        assert report.witness is None


def joint_witness_obj() -> dict:
    return wire(joint_povm_to_json_obj(jm_feasible(noisy_orthogonal_triple(0.5)[:2]).witness))


class TestJsonFormats:
    def test_povm_round_trip(self):
        e = trine_povm()
        back = povm_from_json_obj(wire(povm_to_json_obj(e)))
        assert back.space_dim == 2
        assert back.outcomes == e.outcomes
        for o in e.outcomes:
            assert np.allclose(back.elements[o], e.elements[o])

    def test_joint_round_trip(self):
        povms = noisy_orthogonal_triple(0.5)[:2]
        witness = jm_feasible(povms).witness
        back = joint_povm_from_json_obj(wire(joint_povm_to_json_obj(witness)))
        assert back.factor_outcome_sets == witness.factor_outcome_sets
        for t in witness.outcomes:
            assert np.allclose(back.elements[t], witness.elements[t])

    def test_missing_element_rejected(self):
        obj = wire(povm_to_json_obj(trine_povm()))
        del obj["elements"]["2"]
        with pytest.raises(InputError, match="missing element"):
            povm_from_json_obj(obj)

    def test_joint_elements_not_an_object_rejected(self):
        obj = joint_witness_obj()
        obj["elements"] = list(obj["elements"].values())
        with pytest.raises(InputError, match="elements must be an object"):
            joint_povm_from_json_obj(obj)

    @pytest.mark.parametrize("dim", [0, -2, "2", 2.0, True, None])
    def test_joint_space_dim_must_be_positive_integer(self, dim):
        obj = joint_witness_obj()
        obj["space_dim"] = dim
        with pytest.raises(InputError, match="space_dim must be a positive integer"):
            joint_povm_from_json_obj(obj)

    def test_joint_factor_not_a_list_rejected(self):
        obj = joint_witness_obj()
        obj["factor_outcomes"][1] = "+-"
        with pytest.raises(InputError, match="factor_outcomes"):
            joint_povm_from_json_obj(obj)

    def test_povm_boolean_space_dim_rejected(self):
        obj = wire(povm_to_json_obj(trine_povm()))
        obj["space_dim"] = True
        with pytest.raises(InputError, match="space_dim must be a positive integer"):
            povm_from_json_obj(obj)

    def test_joint_repeated_factor_label_rejected(self):
        obj = {"space_dim": 2, "factor_outcomes": [["+", "+"]],
               "elements": {'["+"]': wire(matrix_to_json_obj(EYE2))}}
        with pytest.raises(InputError, match="duplicate outcome labels"):
            joint_povm_from_json_obj(obj)

    @pytest.mark.parametrize("labels, keys, message", [
        ([None, True], ["[null]", "[true]"], "not a list of outcome labels"),
        ([0, 1], ['["0"]', '["1"]'], "factor outcome labels must be strings"),
    ])
    def test_joint_non_string_labels_rejected(self, labels, keys, message):
        elements = {key: wire(matrix_to_json_obj(EYE2 / 2)) for key in keys}
        obj = {"space_dim": 2, "factor_outcomes": [labels], "elements": elements}
        with pytest.raises(InputError, match=message):
            joint_povm_from_json_obj(obj)

    def test_joint_keys_decoded_before_any_matrix(self):
        obj = joint_witness_obj()
        elements = obj["elements"]
        elements[next(iter(elements))] = {"rows": 2}
        elements['"++"'] = wire(matrix_to_json_obj(EYE2))
        with pytest.raises(InputError, match="not a list of outcome labels"):
            joint_povm_from_json_obj(obj)

    @pytest.mark.parametrize("key, message", [
        ('"++"', "not a list"),
        ('[ "+", "-" ]', "two keys"),
    ])
    def test_joint_bad_outcome_key_rejected(self, key, message):
        obj = joint_witness_obj()
        elements = obj["elements"]
        elements[key] = elements['["+","+"]']
        with pytest.raises(InputError, match=message):
            joint_povm_from_json_obj(obj)


def per_matrix_povm_obj(e: POVM) -> dict:
    """One writer call per element: the documents before one call each."""
    return {
        "space_dim": e.space_dim,
        "outcomes": list(e.outcomes),
        "elements": {o: matrix_to_json_obj(e.elements[o]) for o in e.outcomes},
    }


class TestOneWriterCallPerDocument:
    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []

        def counted(mats):
            sizes.append(len(mats))
            return matrices_to_json_obj(mats)

        monkeypatch.setattr(jmg.povm.model, "matrices_to_json_obj", counted)
        monkeypatch.setattr(jmg.povm.dilation, "matrices_to_json_obj", counted)
        return sizes

    def test_povm(self, calls):
        e = trine_povm()
        assert povm_to_json_obj(e) == per_matrix_povm_obj(e)
        assert calls == [3]

    def test_joint_povm(self, calls):
        # labels the key writer must escape as json.dumps does
        labels = [("\u00e9", '"'), ("a", "\\", "\n")]
        j = JointPOVM(2, labels, {t: EYE2 / 6 for t in product(*labels)})
        obj = joint_povm_to_json_obj(j)
        assert calls == [6]
        assert obj == {
            "space_dim": 2,
            "factor_outcomes": [list(s) for s in labels],
            "elements": {
                json.dumps(list(t), separators=(",", ":")): matrix_to_json_obj(j.elements[t]) for t in j.outcomes
            },
        }
        assert joint_povm_from_json_obj(wire(obj)).outcomes == j.outcomes

    def test_dilation(self, calls):
        result = neumark_dilate(trine_povm())
        assert dilation_to_json_obj(result) == per_matrix_dilation_obj(result)
        # the isometry, then the dilated PVM as one document
        assert calls == [1, 3]


def per_matrix_dilation_obj(result) -> dict:
    return {
        "enlarged_dim": result.enlarged_dim,
        "isometry": matrix_to_json_obj(result.isometry),
        "pvm": per_matrix_povm_obj(result.pvm),
    }


class TestSharedProjectorEntries:
    """Dilation documents: the bytes of one writer call per matrix, and no
    list per entry on the way."""

    @pytest.mark.parametrize("dim, outcomes", [(2, 3), (3, 5), (4, 2)])
    def test_solver_dilations_keep_their_bytes(self, dim, outcomes):
        result = neumark_dilate(random_povm(np.random.default_rng([dim, outcomes]), dim, outcomes))
        assert dumps(dilation_to_json_obj(result)) == dumps(per_matrix_dilation_obj(result))

    def test_other_elements_keep_their_bytes(self):
        result = neumark_dilate(trine_povm())
        zero_sign = result.pvm.elements["0"].copy()
        zero_sign[0, 1] = complex(-0.0, 0.0)  # equal to 0, but not bit for bit
        one_sign = result.pvm.elements["1"].copy()
        one_sign[2, 2] = complex(1.0, -0.0)
        pvm = POVM(6, ("0", "1", "2"), {"0": zero_sign, "1": one_sign, "2": np.eye(6, dtype=complex) / 3})
        hand_made = DilationResult(result.isometry, pvm, result.enlarged_dim)
        text = dumps(dilation_to_json_obj(hand_made))
        assert text == dumps(per_matrix_dilation_obj(hand_made))
        assert "[-0,0]" in text and "[1,-0]" in text

    def test_nineteen_outcomes_allocate_no_entry_lists(self):
        dim, outcomes = 6, 19
        labels = [str(k) for k in range(outcomes)]
        result = neumark_dilate(POVM(dim, labels, {k: np.eye(dim, dtype=complex) / outcomes for k in labels}))
        tracemalloc.start()
        try:
            dilation_to_json_obj(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one fresh [re, im] list per entry takes about 32 MB here
        assert peak < 6e6
