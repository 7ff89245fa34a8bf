import json
import math

import numpy as np
import pytest

from hpqe import circuits, fxp, gateset, oracle, state
from hpqe.oracle import RefState, SizeError

from helpers import (apply_1q_reference, apply_cx_reference, metrics_reference,
                     random_circuit, random_ref_amplitudes)


class TestRefRun:
    def test_empty_circuit(self):
        init = oracle.basis_state(3, 5)
        out = oracle.ref_run(gateset.Circuit(n=3), init)
        assert np.array_equal(out.amps, init.amps)

    def test_hadamard(self):
        out = oracle.ref_run(
            gateset.Circuit(n=1, ops=[gateset.single("H", 0)]),
            oracle.basis_state(1, 0))
        want = np.array([1, 1]) / math.sqrt(2)
        assert np.abs(out.amps - want).max() < 1e-15

    def test_qft4_uniform(self):
        out = oracle.ref_run(circuits.qft(4), oracle.basis_state(4, 0))
        assert np.abs(np.abs(out.amps) - 0.25).max() < 1e-12

    def test_applies_global_phase(self):
        c = gateset.Circuit(n=1, ops=[], global_phase=math.pi / 3)
        out = oracle.ref_run(c, oracle.basis_state(1, 0))
        assert abs(out.amps[0] - np.exp(1j * math.pi / 3)) < 1e-15

    def test_unitarity_long_circuit(self):
        rng = np.random.default_rng(60)
        c = random_circuit(5, 1000, rng)
        out = oracle.ref_run(c, RefState(5, random_ref_amplitudes(5, rng)))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            oracle.ref_run(gateset.Circuit(n=3), oracle.basis_state(2, 0))


# diagonal (RZ on both sides of pi, S), real dense (RY) and complex
# dense (RX, H); RY(0) is diagonal with a -0 off the diagonal
KERNEL_MATRICES = {
    "RZ(0.7)": gateset.matrix_of("RZ", 0.7),
    "RZ(4.1)": gateset.matrix_of("RZ", 4.1),
    "S": gateset.matrix_of("S"),
    "RY(1.1)": gateset.matrix_of("RY", 1.1),
    "RY(0)": gateset.matrix_of("RY", 0.0),
    "RX(2.3)": gateset.matrix_of("RX", 2.3),
    "H": gateset.matrix_of("H"),
}


def _kernel_inputs(n: int, rng):
    yield random_ref_amplitudes(n, rng)
    basis = np.zeros(1 << n, dtype=np.complex128)
    basis[rng.integers(0, 1 << n)] = 1.0
    yield basis
    # exact zeros of both signs next to nonzero parts
    words = rng.choice([0.0, -0.0, 0.5, -0.25], size=2 << n)
    yield words.view(np.complex128)


def _check_ref_run_bytes(n: int) -> None:
    # ref_run of a random circuit against the whole-array reference forms
    rng = np.random.default_rng(74)
    c = random_circuit(n, 200, rng)
    init = RefState(n, random_ref_amplitudes(n, rng))
    want = init.amps.copy()
    for op in c.ops:
        if op.kind == "CX":
            apply_cx_reference(want, op.control, op.target, c.n)
        else:
            apply_1q_reference(want, gateset.matrix_of(op.kind, op.angle), op.target)
    assert oracle.ref_run(c, init).amps.tobytes() == want.tobytes()


class TestApply1q:
    """The blocked kernel against the whole-array reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(KERNEL_MATRICES))
    @pytest.mark.parametrize("block", (1 << 3, oracle.BLOCK))
    def test_bytes_match_reference(self, name, block):
        # with 8-pair blocks, halves wider than a block are cut along a
        # row and narrower ones span several rows, from n = 4 on
        m = KERNEL_MATRICES[name]
        rng = np.random.default_rng(73)
        for n in range(1, 11):
            scratch = np.empty((3, min(block, 1 << (n - 1))), dtype=np.complex128)
            for amps in _kernel_inputs(n, rng):
                for q in range(n):
                    want, got = amps.copy(), amps.copy()
                    apply_1q_reference(want, m, q)
                    oracle._apply_1q(got, m, q, scratch)
                    assert got.tobytes() == want.tobytes(), (n, q)

    def test_ref_run_bytes_match_reference(self):
        _check_ref_run_bytes(9)

    def test_blocked_ref_run_bytes_match_reference(self):
        # the state above takes the whole-array forms, this one the blocked
        assert 1 << 8 <= oracle.WHOLE_MAX_PAIRS < 1 << 13
        _check_ref_run_bytes(14)

    @pytest.mark.parametrize("name", sorted(KERNEL_MATRICES))
    def test_whole_forms_match_reference(self, name):
        # the forms a small state takes, every qubit and qubit pair
        m = KERNEL_MATRICES[name]
        rng = np.random.default_rng(77)
        for n in range(1, 11):
            for amps in _kernel_inputs(n, rng):
                for q in range(n):
                    want, got = amps.copy(), amps.copy()
                    apply_1q_reference(want, m, q)
                    oracle._apply_1q_whole(got, m, q)
                    assert got.tobytes() == want.tobytes(), (n, q)
                    for target in range(n):
                        if target != q:
                            want, got = amps.copy(), amps.copy()
                            apply_cx_reference(want, q, target, n)
                            oracle._apply_cx_whole(got, q, target, n)
                            assert got.tobytes() == want.tobytes(), (n, q, target)

    @pytest.mark.parametrize("block", (1 << 3, oracle.BLOCK))
    def test_cx_bytes_match_reference(self, block):
        # with 8-pair blocks the swapped halves (2^(n-2) words) are cut
        # into several pieces from n = 6 on
        rng = np.random.default_rng(76)
        for n in range(2, 10):
            scratch = np.empty((3, min(block, 1 << (n - 1))), dtype=np.complex128)
            for amps in _kernel_inputs(n, rng):
                for control in range(n):
                    for target in range(n):
                        if control == target:
                            continue
                        want, got = amps.copy(), amps.copy()
                        apply_cx_reference(want, control, target, n)
                        oracle._apply_cx(got, control, target, scratch)
                        assert got.tobytes() == want.tobytes(), (n, control, target)

    def test_leaves_init_untouched(self):
        rng = np.random.default_rng(75)
        init = RefState(6, random_ref_amplitudes(6, rng))
        before = init.amps.tobytes()
        oracle.ref_run(random_circuit(6, 50, rng), init)
        assert init.amps.tobytes() == before


class TestRefRunMatrix:
    def test_identity_circuit(self):
        init = RefState(2, random_ref_amplitudes(2, np.random.default_rng(61)))
        out = oracle.ref_run_matrix(gateset.Circuit(n=2), init)
        assert np.abs(out.amps - init.amps).max() == 0.0

    def test_cx_permutation_matrix(self):
        u = oracle.gate_operator(gateset.cx(1, 0), 2)
        want = np.array([[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)   # |10> <-> |11>
        assert np.array_equal(u, want)

    def test_agrees_with_gate_by_gate(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            c = random_circuit(n, 20, rng)
            init = RefState(n, random_ref_amplitudes(n, rng))
            a = oracle.ref_run(c, init)
            b = oracle.ref_run_matrix(c, init)
            assert np.abs(a.amps - b.amps).max() < 1e-12

    def test_size_limit(self):
        with pytest.raises(SizeError):
            oracle.ref_run_matrix(gateset.Circuit(n=7), oracle.basis_state(7, 0))


class TestGlobalPhaseCoherence:
    def test_cp_decomposition(self):
        theta = 2.31
        ops, phase = gateset.decompose_cp(theta, 0, 1)
        c = gateset.Circuit(n=2, ops=ops, global_phase=phase)
        init = RefState(2, random_ref_amplitudes(2, np.random.default_rng(63)))
        got = oracle.ref_run(c, init)
        want = np.diag([1, 1, 1, np.exp(1j * theta)]) @ init.amps
        assert np.abs(got.amps - want).max() < 1e-12

    def test_crx_decomposition(self):
        theta = -1.2
        ops, phase = gateset.decompose_crx(theta, 1, 0)
        c = gateset.Circuit(n=2, ops=ops, global_phase=phase)
        init = RefState(2, random_ref_amplitudes(2, np.random.default_rng(64)))
        got = oracle.ref_run(c, init)
        m = gateset.matrix_of("RX", theta)
        u = np.eye(4, dtype=complex)
        u[np.ix_([2, 3], [2, 3])] = m       # control q1, target q0
        want = u @ init.amps
        assert np.abs(got.amps - want).max() < 1e-12


class TestFidelity:
    def test_self_overlap(self):
        psi = random_ref_amplitudes(4, np.random.default_rng(65))
        assert oracle.fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert oracle.fidelity(oracle.basis_state(2, 0),
                               oracle.basis_state(2, 1)) == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(66)
        psi = random_ref_amplitudes(3, rng)
        for phi in rng.uniform(0, 2 * np.pi, 10):
            assert oracle.fidelity(psi, np.exp(1j * phi) * psi) == \
                pytest.approx(1.0, abs=1e-12)

    def test_bounds_for_normalized_inputs(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            a = random_ref_amplitudes(4, rng)
            b = random_ref_amplitudes(4, rng)
            f = oracle.fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-9

    def test_accepts_fixed_point_inputs(self):
        sv = state.init_basis(3, 1)
        assert oracle.fidelity(sv, oracle.basis_state(3, 1)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracle.fidelity(oracle.basis_state(2, 0), oracle.basis_state(3, 0))


class TestMse:
    def test_identical(self):
        psi = random_ref_amplitudes(4, np.random.default_rng(68))
        assert oracle.mse(psi, psi) == (0.0, 0.0, 0.0)

    def test_sign_flip_is_pure_phase(self):
        psi = random_ref_amplitudes(5, np.random.default_rng(69))
        mse_raw, mse_aligned, phase = oracle.mse(psi, -psi)
        assert mse_aligned == pytest.approx(0.0, abs=1e-15)
        assert abs(phase) == pytest.approx(math.pi)
        assert mse_raw == pytest.approx(4.0 / 2 ** 5)

    def test_aligned_never_exceeds_raw(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            a = random_ref_amplitudes(3, rng)
            b = np.exp(1j * rng.uniform(0, 2 * np.pi)) * random_ref_amplitudes(3, rng)
            mse_raw, mse_aligned, _ = oracle.mse(a, b)
            assert mse_aligned <= mse_raw + 1e-15

    def test_alignment_is_optimal(self):
        rng = np.random.default_rng(71)
        a = random_ref_amplitudes(3, rng)
        b = random_ref_amplitudes(3, rng)
        _, mse_aligned, phase = oracle.mse(a, b)
        for phi in np.linspace(0, 2 * np.pi, 37):
            trial = np.mean(np.abs(a - np.exp(1j * phi) * b) ** 2)
            assert mse_aligned <= trial + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracle.mse(np.zeros(4), np.zeros(8))


class TestMetrics:
    def test_json_fields(self):
        sv = state.init_basis(2, 0)
        m = oracle.metrics(oracle.basis_state(2, 0), sv)
        doc = json.loads(m.to_json(n=2, gates=0))
        assert set(doc) == {"fidelity", "mse_raw", "mse_aligned", "phase",
                            "n", "gates"}
        assert doc["fidelity"] == pytest.approx(1.0)
        assert doc["mse_raw"] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", (5, 15))
    def test_bits_match_whole_array_formulas(self, n):
        # n = 15 puts the arrays above numpy's 256 KiB elision threshold
        rng = np.random.default_rng(76)
        ref = RefState(n, random_ref_amplitudes(n, rng))
        noisy = ref.amps + 1e-6 * random_ref_amplitudes(n, rng)
        sv = state.from_amplitudes(n, np.exp(0.4j) * noisy)
        converted = sv.to_complex()
        assert converted.tobytes() == ((sv.re + 1j * sv.im) / fxp.SCALE).tobytes()
        got = oracle.metrics(ref, sv)
        want = metrics_reference(ref.amps, converted)
        assert (got.fidelity, got.mse_raw, got.mse_aligned, got.phase) == want

    def test_equal_up_to_phase_helper(self):
        rng = np.random.default_rng(72)
        u = oracle.circuit_unitary(random_circuit(2, 10, rng))
        assert oracle.equal_up_to_phase(u, np.exp(1.3j) * u)
        assert not oracle.equal_up_to_phase(u, 1.1 * u)
        v = u.copy()
        v[0, 0] += 1e-6
        assert not oracle.equal_up_to_phase(u, v)
