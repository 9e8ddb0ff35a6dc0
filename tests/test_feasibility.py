import math
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest

from jmg.errors import InputError
from jmg.graphs import is_graph_induced
from jmg.povm import (
    DEFAULT_SOLVER_TOL,
    GUARD_ENV_VAR,
    POVM,
    JointPOVM,
    demo_hollow_triangle,
    jm_feasible,
    marginal,
    noisy_orthogonal_triple,
    noisy_triple_jm_oracle,
    pair_jm_threshold,
    pvm_jointly_measurable,
    qubit_pair_jm_oracle,
    stalled,
    symmetric_triple_candidate,
    triple_jm_threshold,
    validate_povm,
)
from jmg.linalg import hermitize
from jmg.povm import feasibility
from jmg.povm.feasibility import (
    JmReport,
    _bloch,
    _bloch_clamp,
    _eigh_clamp,
    _from_bloch,
    _from_real_view,
    _marginal_system,
    _real_view,
    _summarize,
)

from helpers import basis_pvm, haar_unitary, product_outcome_error, random_blocks, random_povm

EYE2 = np.eye(2, dtype=complex)
GRID = [round(0.1 * k, 1) for k in range(11)]
PAIR_THRESHOLD = 1 / math.sqrt(2)

# a short cap is enough for stall verdicts: the residual plateaus early
STALL_ITERS = 1500


def pair_oracle_at(eta: float) -> bool:
    return qubit_pair_jm_oracle(np.array([eta, 0, 0]), np.array([0, eta, 0]))


class TestPairOracle:
    def test_trivial(self):
        assert qubit_pair_jm_oracle(np.zeros(3), np.zeros(3))

    def test_noisy_orthogonal_pair(self):
        a, b = np.array([0.6, 0, 0]), np.array([0, 0.6, 0])
        assert np.linalg.norm(a + b) + np.linalg.norm(a - b) == pytest.approx(1.2 * math.sqrt(2))
        assert qubit_pair_jm_oracle(a, b)

    def test_sharp_orthogonal_pair(self):
        assert not qubit_pair_jm_oracle(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        # cross-check the sharp case against elementwise commutation
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        z = basis_pvm(2, [[0], [1]])
        x = basis_pvm(2, [[0], [1]], hadamard)
        assert not pvm_jointly_measurable([z, x])
        assert not qubit_pair_jm_oracle(np.array([0, 0, 1.0]), np.array([1.0, 0, 0]))
        assert pvm_jointly_measurable([z, z])
        assert qubit_pair_jm_oracle(np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))

    def test_outside_ball_rejected(self):
        with pytest.raises(InputError, match="unit ball"):
            qubit_pair_jm_oracle(np.array([1.5, 0, 0]), np.zeros(3))

    def test_threshold_rederived(self):
        assert pair_jm_threshold() == pytest.approx(PAIR_THRESHOLD, abs=1e-9)


class TestTripleOracle:
    def test_candidate_solves_marginals(self):
        eta = 0.42
        candidate = symmetric_triple_candidate(eta)
        povms = noisy_orthogonal_triple(eta)
        for axis in range(3):
            for sign, label in ((1, "+"), (-1, "-")):
                total = sum(g for s, g in candidate.items() if s[axis] == sign)
                assert np.allclose(total, povms[axis].elements[label], atol=1e-12)

    def test_threshold_rederived(self):
        assert triple_jm_threshold() == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_verdicts(self):
        assert noisy_triple_jm_oracle(0.55)
        assert not noisy_triple_jm_oracle(0.6)


class TestNoisyTriple:
    def test_zero_noise_trivial(self):
        povms = noisy_orthogonal_triple(0.0)
        for e in povms:
            assert np.allclose(e.elements["+"], EYE2 / 2)
            assert validate_povm(e).valid
        assert jm_feasible(povms).feasible

    def test_full_noise_sharp_and_incompatible(self):
        povms = noisy_orthogonal_triple(1.0)
        for e in povms:
            for o in e.outcomes:
                m = e.elements[o]
                assert np.linalg.norm(m @ m - m) < 1e-12
        assert not qubit_pair_jm_oracle(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            noisy_orthogonal_triple(1.2)
        with pytest.raises(InputError):
            noisy_orthogonal_triple(-0.1)


class TestSolverBasics:
    def test_two_commuting_pvms_product_witness(self):
        p = basis_pvm(3, [[0], [1, 2]])
        q = basis_pvm(3, [[0, 1], [2]])
        report = jm_feasible([p, q])
        assert report.feasible
        witness = report.witness
        for a in p.outcomes:
            for b in q.outcomes:
                assert np.allclose(
                    witness.elements[(a, b)], p.elements[a] @ q.elements[b], atol=1e-6
                )

    def test_witness_marginals_match(self):
        povms = noisy_orthogonal_triple(0.6)[:2]
        report = jm_feasible(povms)
        assert report.feasible
        assert product_outcome_error(report.witness, povms) <= 1e-6
        assert validate_povm(report.witness, 1e-6).valid

    def test_single_povm_trivially_feasible(self):
        e = POVM(2, ("a", "b"), {"a": EYE2 / 3, "b": 2 * EYE2 / 3})
        report = jm_feasible([e])
        assert report.feasible
        assert report.iterations == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimensions"):
            jm_feasible([basis_pvm(2, [[0], [1]]), basis_pvm(3, [[0], [1, 2]])])

    def test_invalid_input_rejected(self):
        bad = POVM(2, ("a", "b"), {"a": EYE2, "b": EYE2})
        with pytest.raises(InputError, match="valid POVM"):
            jm_feasible([bad])

    def test_resource_guard(self, monkeypatch):
        # the triple has 8 joint outcomes on a qubit: 8 * 2 * 2 = 32 real variables
        e = noisy_orthogonal_triple(0.3)
        monkeypatch.setenv(GUARD_ENV_VAR, "31")
        with pytest.raises(InputError, match="32 real variables, over the guard 31"):
            jm_feasible(e)
        monkeypatch.setenv(GUARD_ENV_VAR, "32")
        assert jm_feasible(e).feasible

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "10")
        with pytest.raises(InputError, match="guard"):
            jm_feasible(noisy_orthogonal_triple(0.3))
        monkeypatch.setenv(GUARD_ENV_VAR, "junk")
        with pytest.raises(InputError, match=GUARD_ENV_VAR):
            jm_feasible(noisy_orthogonal_triple(0.3))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InputError, match="tol"):
            jm_feasible(noisy_orthogonal_triple(0.3)[:2], tol=tol)

    def test_residual_history_recorded(self):
        report = jm_feasible(noisy_orthogonal_triple(0.7), max_iter=400)
        assert not report.feasible
        assert report.iterations == 400
        assert report.residual_history_summary[0][0] == 0
        assert report.residual_history_summary[-1][0] == 399
        assert stalled(report)


class TestSolverAgainstOracles:
    def test_pair_grid_agreement(self):
        for eta in GRID:
            if abs(eta - PAIR_THRESHOLD) < 0.02:
                continue
            povms = noisy_orthogonal_triple(eta)[:2]
            report = jm_feasible(povms, max_iter=STALL_ITERS)
            assert report.feasible == pair_oracle_at(eta), f"eta={eta}"

    def test_pair_monotonicity(self):
        verdicts = [
            jm_feasible(noisy_orthogonal_triple(eta)[:2], max_iter=STALL_ITERS).feasible
            for eta in GRID
        ]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later  # once infeasible, stays infeasible

    def test_triple_verdicts_match_oracle(self):
        for eta in (0.3, 0.55):
            assert jm_feasible(noisy_orthogonal_triple(eta)).feasible
            assert noisy_triple_jm_oracle(eta)
        for eta in (0.6, 0.8):
            report = jm_feasible(noisy_orthogonal_triple(eta), max_iter=STALL_ITERS)
            assert not report.feasible
            assert not noisy_triple_jm_oracle(eta)

    def test_pvm_consistency_random_families(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            dim = int(rng.integers(2, 5))
            count = 2 if trial % 2 == 0 else 3
            family = []
            conjugate = trial % 3 == 0
            u = haar_unitary(rng, dim) if conjugate else None
            for _ in range(count):
                rotate = u if (conjugate and rng.random() < 0.5) else None
                family.append(basis_pvm(dim, random_blocks(rng, dim), rotate))
            expected = pvm_jointly_measurable(family)
            report = jm_feasible(family, max_iter=STALL_ITERS)
            assert report.feasible == expected, f"trial={trial}"

    def test_feasible_witness_marginal_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            dim = int(rng.integers(2, 4))
            family = [basis_pvm(dim, random_blocks(rng, dim)) for _ in range(2)]
            report = jm_feasible(family)
            assert report.feasible
            for n, e in enumerate(family):
                marg = marginal(report.witness, n)
                for o in e.outcomes:
                    assert np.abs(marg.elements[o] - e.elements[o]).max() <= 1e-6


class TestDemoHollowTriangle:
    def test_hollow_regime(self):
        rep = demo_hollow_triangle(0.6, max_iter=STALL_ITERS)
        assert rep.regime == "hollow_triangle"
        assert all(r.feasible for r in rep.pair_reports.values())
        assert not rep.triple_report.feasible
        assert rep.hypergraph.hyperedges == frozenset(
            {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
        )
        assert not rep.hypergraph_graph_induced
        assert not is_graph_induced(rep.hypergraph)

    def test_low_noise_regime(self):
        rep = demo_hollow_triangle(0.5, max_iter=STALL_ITERS)
        assert rep.regime == "all_feasible"
        assert rep.conclusion == "no obstruction at this noise level"
        assert rep.triple_report.feasible
        assert rep.hypergraph_graph_induced

    def test_high_noise_regime(self):
        rep = demo_hollow_triangle(0.9, max_iter=STALL_ITERS)
        assert rep.regime == "pair_infeasible"
        assert "not a hollow triangle" in rep.conclusion
        assert not any(r.feasible for r in rep.pair_reports.values())
        assert rep.hypergraph_graph_induced  # edgeless skeleton induces it


def reference_solve(povms, tol=DEFAULT_SOLVER_TOL, max_iter=50_000):
    """The solver loop as first written: two tensordots, a hermitized affine
    iterate, a hermitized clamp and a full-size residual every step.  It is
    the parity reference for the folded step, not a library path."""
    d = povms[0].space_dim
    outcome_sets = tuple(tuple(e.outcomes) for e in povms)
    tuples = list(product(*outcome_sets))
    m, b = _marginal_system(povms, tuples)
    correction = m.T @ np.linalg.pinv(m @ m.T)
    x = np.broadcast_to(np.eye(d, dtype=complex) / len(tuples), (len(tuples), d, d)).copy()
    history = []
    for it in range(max_iter):
        slack = np.tensordot(m, x, axes=(1, 0)) - b
        affine = x - np.tensordot(correction, slack, axes=(1, 0))
        affine = (affine + np.conj(np.swapaxes(affine, 1, 2))) / 2
        w, v = np.linalg.eigh(affine)
        clamped = (v * np.clip(w, 0.0, None)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
        clamped = (clamped + np.conj(np.swapaxes(clamped, 1, 2))) / 2
        residual = float(np.sqrt(np.sum(np.abs(affine - clamped) ** 2)))
        history.append(residual)
        x = clamped
        if residual <= tol:
            witness = JointPOVM(d, outcome_sets, dict(zip(tuples, clamped)))
            return "feasible", it + 1, history, witness
    return "infeasible_stalled", max_iter, history, None


def _noisy_family(rng, kind, d, m, k):
    """k random POVMs or PVMs with m outcomes on dimension d, mixed with white
    noise at 0.85-1.0 of the cloning visibility (k + d) / (k (d + 1))."""
    visibility = rng.uniform(0.85, 1.0) * (k + d) / (k * (d + 1))
    family = []
    for _ in range(k):
        if kind == "povm":
            e = random_povm(rng, d, m)
        else:
            labels = rng.permutation(np.arange(d) % m)
            e = basis_pvm(d, [np.flatnonzero(labels == i) for i in range(m)], haar_unitary(rng, d))
        noisy = {
            o: visibility * a + (1 - visibility) * np.trace(a).real / d * np.eye(d)
            for o, a in e.elements.items()
        }
        family.append(POVM(d, e.outcomes, noisy))
    return family


def _parity_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for kind in ("povm", "pvm"):
        for d in (2, 3, 4):
            for m in (2, 3):
                for k in (2, 3):
                    family = _noisy_family(rng, kind, d, m, k)
                    cases.append(pytest.param(family, 50_000, id=f"{kind}-d{d}-m{m}-k{k}"))
    for eta in (0.55, 0.60):
        cases.append(pytest.param(noisy_orthogonal_triple(eta), STALL_ITERS, id=f"triple-{eta}"))
    # the incompatible sigma_x / sigma_y pair, and a triple whose Bloch vectors
    # are exactly 0 (the clamp's |a| = 0 case)
    cases.append(pytest.param(noisy_orthogonal_triple(0.8)[:2], STALL_ITERS, id="pair-0.8"))
    cases.append(pytest.param(noisy_orthogonal_triple(0.0), STALL_ITERS, id="triple-0.0"))
    return cases


@pytest.mark.parametrize("family, cap", _parity_cases())
def test_folded_step_matches_reference_loop(family, cap):
    verdict, iterations, history, witness = reference_solve(family, max_iter=cap)
    report = jm_feasible(family, max_iter=cap)
    assert report.verdict == verdict
    assert report.iterations == iterations
    for i, r in report.residual_history_summary:
        # the reference residual is a difference of O(1) matrices, exact only
        # to a few ulps: hence the absolute floor far below the tolerance
        assert r == pytest.approx(history[i], rel=1e-9, abs=1e-14), f"iteration {i}"
    if witness is None:
        assert report.witness is None
        return
    for t, a in report.witness.elements.items():
        assert np.abs(a - witness.elements[t]).max() <= 1e-9
        assert np.array_equal(a, a.conj().T)


def test_bloch_clamp_matches_eigh():
    """The closed-form qubit clamp against ``eigh`` on PSD, indefinite,
    negative-definite and scalar elements, at a float64 tolerance fixed here:
    64 ulps of the largest eigenvalue magnitude of each element."""
    rng = np.random.default_rng(2026)
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    a0 = rng.uniform(-2, 2, size=64)
    vec = rng.normal(size=(64, 3)) * rng.uniform(0, 2, size=(64, 1))
    a0[:8] = np.linalg.norm(vec[:8], axis=1) + rng.uniform(0, 1, 8)  # PSD
    a0[8:16] = -np.linalg.norm(vec[8:16], axis=1) - rng.uniform(0, 1, 8)  # negative definite
    a0[16:20] = np.linalg.norm(vec[16:20], axis=1)  # rank one
    vec[20:28] = 0.0  # scalar: positive, negative and zero
    a0[26:28] = 0.0
    h = a0[:, None, None] * EYE2 + np.tensordot(vec, pauli, axes=1)

    clamped, residual = _bloch_clamp(_bloch(h))
    got = _from_bloch(clamped)

    w, v = np.linalg.eigh(h)
    want = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    scale = np.abs(w).max(axis=1)
    tol = 64 * np.finfo(float).eps * np.maximum(scale, np.finfo(float).tiny)
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= tol)
    assert np.array_equal(got, got.conj().transpose(0, 2, 1))
    assert not np.isnan(got).any()
    assert np.array_equal(got[26:28], np.zeros((2, 2, 2)))
    assert residual == pytest.approx(np.linalg.norm(np.minimum(w, 0.0)), rel=64 * np.finfo(float).eps)


def test_many_factor_family_stays_thin():
    """Twelve binary qubit observables: T = 4096 joint outcomes, inside the
    default guard.  A step must stay O(K T d^2) in memory; a T x T map alone
    would be 128 MiB here."""
    rng = np.random.default_rng(12)
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    family = []
    for _ in range(12):
        n = rng.normal(size=3)
        a = 0.2 * np.tensordot(n / np.linalg.norm(n), pauli, axes=1)
        family.append(POVM(2, ("+", "-"), {"+": (EYE2 + a) / 2, "-": (EYE2 - a) / 2}))
    verdict, iterations, history, witness = reference_solve(family, max_iter=5)
    tracemalloc.start()
    try:
        report = jm_feasible(family, max_iter=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert (report.verdict, report.iterations) == (verdict, iterations)
    for i, r in report.residual_history_summary:
        assert r == pytest.approx(history[i], rel=1e-9, abs=1e-14), f"iteration {i}"
    if witness is not None:
        for t, a in report.witness.elements.items():
            assert np.abs(a - witness.elements[t]).max() <= 1e-9


def unreplayed_solve(povms, tol=DEFAULT_SOLVER_TOL, max_iter=50_000):
    """The library loop without cycle replay: all `max_iter` steps are
    computed, however early the iterate repeats.  It is the exact parity
    reference for the replay, not a library path."""
    d = povms[0].space_dim
    outcome_sets = tuple(tuple(e.outcomes) for e in povms)
    tuples = list(product(*outcome_sets))
    if d == 2:
        coords, clamp, joint = _bloch, _bloch_clamp, _from_bloch
    else:
        coords, clamp, joint = _real_view, partial(_eigh_clamp, d=d), partial(_from_real_view, d=d)
    m, b = _marginal_system(povms, tuples)
    t = len(tuples)
    correction = m.T @ np.linalg.pinv(m @ m.T)
    offset = coords(np.tensordot(correction, hermitize(b), axes=(1, 0)))
    y = coords(np.broadcast_to(np.eye(d, dtype=complex) / t, (t, d, d)).copy())
    history = []
    for it in range(max_iter):
        y, residual = clamp(y - correction @ (m @ y) + offset)
        history.append(residual)
        if residual <= tol:
            witness = JointPOVM(d, outcome_sets, dict(zip(tuples, joint(y))))
            return JmReport("feasible", witness, it + 1, residual, _summarize(history))
    return JmReport("infeasible_stalled", None, max_iter, residual, _summarize(history))


def _count_clamps(monkeypatch) -> list:
    """Make both clamps log a call; the list grows by one per computed step."""
    calls = []
    for name in ("_bloch_clamp", "_eigh_clamp"):

        def counted(*args, _clamp=getattr(feasibility, name), **kwargs):
            calls.append(None)
            return _clamp(*args, **kwargs)

        monkeypatch.setattr(feasibility, name, counted)
    return calls


def _assert_same_report(report, expected):
    assert report.verdict == expected.verdict
    assert report.iterations == expected.iterations
    assert report.final_residual == expected.final_residual
    assert report.residual_history_summary == expected.residual_history_summary
    if expected.witness is None:
        assert report.witness is None
        return
    assert report.witness.elements.keys() == expected.witness.elements.keys()
    for t, a in expected.witness.elements.items():
        assert np.array_equal(report.witness.elements[t], a)


def _bench_style(seed):
    """The noisy Pauli pair (eta 0.72-0.95) and triple (eta 0.59-0.80) that
    the benchmark's solver workload draws for `seed`: both incompatible."""
    rng = np.random.default_rng([seed, 3])
    axes = [(0, 1), (0, 2), (1, 2)][rng.integers(3)]
    pair_eta, triple_eta = float(rng.uniform(0.72, 0.95)), float(rng.uniform(0.59, 0.80))
    pair = [noisy_orthogonal_triple(pair_eta)[a] for a in axes]
    return pair, noisy_orthogonal_triple(triple_eta)


def _embedded_pair(eta):
    """The noisy sigma_x / sigma_z pair on a qutrit, with (1/2) 1 on the third
    level: incompatible, and solved by the ``eigh`` clamp."""
    x, _, z = noisy_orthogonal_triple(eta)
    povms = []
    for e in (x, z):
        elements = {}
        for o, a in e.elements.items():
            elements[o] = np.zeros((3, 3), dtype=complex)
            elements[o][:2, :2] = a
            elements[o][2, 2] = 0.5
        povms.append(POVM(3, e.outcomes, elements))
    return povms


def _cycling_cases():
    """Stalling families whose iterate repeats bitwise before the cap."""
    cases = []
    for seed in (1, 977, 5, 6):
        pair, triple = _bench_style(seed)
        cases.append(pytest.param(pair, 5_000, id=f"bench-pair-seed{seed}"))
        cases.append(pytest.param(triple, 5_000, id=f"bench-triple-seed{seed}"))
    # period 754, entered at iteration 1,237: found at the checkpoint after 2,047
    cases.append(pytest.param(noisy_orthogonal_triple(0.60), 50_000, id="triple-0.60"))
    # period 9,832, entered at iteration 8,901: found at the checkpoint after 16,383
    cases.append(pytest.param(_bench_style(11)[1], 30_000, id="bench-triple-seed11"))
    cases.append(pytest.param(_embedded_pair(0.9), 5_000, id="qutrit-pair-0.9"))
    return cases


@pytest.mark.parametrize("family, cap", _cycling_cases())
def test_cycle_replay_matches_full_loop(family, cap, monkeypatch):
    expected = unreplayed_solve(family, max_iter=cap)
    calls = _count_clamps(monkeypatch)
    report = jm_feasible(family, max_iter=cap)
    assert expected.verdict == "infeasible_stalled"
    assert len(calls) < cap  # the cycle was replayed, not computed
    _assert_same_report(report, expected)


@pytest.mark.parametrize("family", [_bench_style(1)[0], _embedded_pair(0.9)], ids=["qubit", "qutrit"])
def test_caps_around_the_cycle(family, monkeypatch):
    """Caps before the repeat is found, on the step that finds it (nothing left
    to replay) and just after it (the final residual is a replayed one)."""
    calls = _count_clamps(monkeypatch)
    jm_feasible(family, max_iter=5_000)
    found = len(calls)  # the step whose iterate matched the checkpoint
    assert found > 5
    for cap in (5, found - 1, found, found + 1, found + 2):
        calls.clear()
        report = jm_feasible(family, max_iter=cap)
        assert len(calls) == min(cap, found)
        _assert_same_report(report, unreplayed_solve(family, max_iter=cap))


@pytest.mark.parametrize(
    "family, cap",
    [c for c in _parity_cases() if c.id.startswith(("povm", "pvm"))]
    + [pytest.param(noisy_orthogonal_triple(0.55), 50_000, id="triple-0.55")],
)
def test_feasible_families_unchanged_by_replay(family, cap):
    expected = unreplayed_solve(family, max_iter=cap)
    assert expected.verdict == "feasible"
    _assert_same_report(jm_feasible(family, max_iter=cap), expected)


def test_clamps_return_fresh_arrays():
    """The cycle check keeps a reference to an earlier iterate, so no step may
    write into the array it was given."""
    rng = np.random.default_rng(7)
    qubit = rng.normal(size=(6, 4))
    qutrit = rng.normal(size=(6, 18))
    for y, clamp in ((qubit, _bloch_clamp), (qutrit, partial(_eigh_clamp, d=3))):
        before = y.copy()
        clamped, _ = clamp(y)
        assert not np.shares_memory(clamped, y)
        assert np.array_equal(y, before)
