import json

import numpy as np
import pytest

from jmg.errors import InputError
from jmg.graphs import parse_graph
from jmg.povm import (
    POVM,
    JointPOVM,
    compression,
    jm_feasible,
    joint_dilation,
    joint_povm_from_json_obj,
    joint_povm_to_json_obj,
    marginal,
    neumark_dilate,
    noisy_orthogonal_triple,
    povm_from_json_obj,
    povm_to_json_obj,
    pvm_defects,
    pvm_jointly_measurable,
    validate_povm,
)
from jmg.linalg import matrix_to_json_obj
from jmg.realize import lift_to_pvms, realize_direct_sum

from helpers import basis_pvm, exact_pvm_to_float, random_povm

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
        idem, ortho = pvm_defects(d.pvm)
        assert idem == 0 and ortho == 0
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
    return joint_povm_to_json_obj(jm_feasible(noisy_orthogonal_triple(0.5)[:2]).witness)


class TestJsonFormats:
    def test_povm_round_trip(self):
        e = trine_povm()
        back = povm_from_json_obj(povm_to_json_obj(e))
        assert back.space_dim == 2
        assert back.outcomes == e.outcomes
        for o in e.outcomes:
            assert np.allclose(back.elements[o], e.elements[o])

    def test_joint_round_trip(self):
        povms = noisy_orthogonal_triple(0.5)[:2]
        witness = jm_feasible(povms).witness
        back = joint_povm_from_json_obj(joint_povm_to_json_obj(witness))
        assert back.factor_outcome_sets == witness.factor_outcome_sets
        for t in witness.outcomes:
            assert np.allclose(back.elements[t], witness.elements[t])

    def test_missing_element_rejected(self):
        obj = povm_to_json_obj(trine_povm())
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
        obj = povm_to_json_obj(trine_povm())
        obj["space_dim"] = True
        with pytest.raises(InputError, match="space_dim must be a positive integer"):
            povm_from_json_obj(obj)

    def test_joint_repeated_factor_label_rejected(self):
        obj = {"space_dim": 2, "factor_outcomes": [["+", "+"]],
               "elements": {'["+"]': matrix_to_json_obj(EYE2)}}
        with pytest.raises(InputError, match="duplicate outcome labels"):
            joint_povm_from_json_obj(obj)

    @pytest.mark.parametrize("labels, keys, message", [
        ([None, True], ["[null]", "[true]"], "not a list of outcome labels"),
        ([0, 1], ['["0"]', '["1"]'], "factor outcome labels must be strings"),
    ])
    def test_joint_non_string_labels_rejected(self, labels, keys, message):
        elements = {key: matrix_to_json_obj(EYE2 / 2) for key in keys}
        obj = {"space_dim": 2, "factor_outcomes": [labels], "elements": elements}
        with pytest.raises(InputError, match=message):
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
