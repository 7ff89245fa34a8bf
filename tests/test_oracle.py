import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from hpqe import circuits, engine, fxp, gateset, oracle, state
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

    @pytest.mark.parametrize("n, op, qubit", (
        (4, gateset.single("H", 5), "target 5"),
        (4, gateset.single("RZ", 17, 0.7), "target 17"),
        (4, gateset.single("RY", -1, 1.1), "target -1"),
        (4, gateset.cx(0, 4), "target 4"),
        (4, gateset.cx(4, 0), "control 4"),
        (17, gateset.single("S", 17), "target 17"),
        (17, gateset.single("H", -1), "target -1"),
        (17, gateset.cx(0, 17), "target 17"),
    ), ids=("n4-h5", "n4-rz17", "n4-ry-1", "n4-cx0-4", "n4-cx4-0",
            "n17-s17", "n17-h-1", "n17-cx0-17"))
    def test_rejects_qubit_out_of_range(self, n, op, qubit):
        # before any gate runs, with the qubit named
        c = gateset.Circuit(n=n, ops=[gateset.single("H", 0), op])
        with pytest.raises(ValueError, match=f"^{qubit} out of range for n={n}$"):
            oracle.ref_run(c, oracle.basis_state(n, 0))

    def test_rejects_cx_on_one_qubit(self):
        # GateOp itself does not check what gateset.cx does
        c = gateset.Circuit(n=4, ops=[gateset.GateOp(kind="CX", target=1, control=1)])
        with pytest.raises(ValueError, match="^CX control and target are both qubit 1$"):
            c.validate()
        with pytest.raises(ValueError, match="^CX control and target are both qubit 1$"):
            oracle.ref_run(c, oracle.basis_state(4, 0))
        with pytest.raises(ValueError, match="^CX control and target are both qubit 1$"):
            engine.run_circuit(state.init_basis(4, 0), c)


# diagonal (RZ on both sides of pi, S), real dense (RY) and complex
# dense (RX, H); RY(0) is diagonal with a -0 off the diagonal
KERNEL_GATES = {
    "RZ(0.7)": ("RZ", 0.7),
    "RZ(4.1)": ("RZ", 4.1),
    "S": ("S", None),
    "RY(1.1)": ("RY", 1.1),
    "RY(0)": ("RY", 0.0),
    "RX(2.3)": ("RX", 2.3),
    "H": ("H", None),
}
KERNEL_MATRICES = {name: gateset.matrix_of(*gate) for name, gate in KERNEL_GATES.items()}


def _kernel_inputs(n: int, rng):
    yield random_ref_amplitudes(n, rng)
    basis = np.zeros(1 << n, dtype=np.complex128)
    basis[rng.integers(0, 1 << n)] = 1.0
    yield basis
    # exact zeros of both signs next to nonzero parts
    words = rng.choice([0.0, -0.0, 0.5, -0.25], size=2 << n)
    yield words.view(np.complex128)


def _replay(circuit: gateset.Circuit, amps: np.ndarray) -> np.ndarray:
    # the circuit's gates through the whole-array reference forms
    want = amps.copy()
    for op in circuit.ops:
        if op.kind == "CX":
            apply_cx_reference(want, op.control, op.target, circuit.n)
        else:
            apply_1q_reference(want, gateset.matrix_of(op.kind, op.angle), op.target)
    return want


def _check_ref_run_bytes(n: int) -> None:
    # ref_run of a random circuit against the whole-array reference forms
    rng = np.random.default_rng(74)
    c = random_circuit(n, 200, rng)
    init = RefState(n, random_ref_amplitudes(n, rng))
    assert oracle.ref_run(c, init).amps.tobytes() == _replay(c, init.amps).tobytes()


class TestApply1q:
    """ref_run of one-gate circuits, and its steps, against the
    whole-array reference, bit for bit."""

    @pytest.fixture(params=(1 << 3, 1 << (oracle.BLOCK_BITS - 1)))
    def pairs(self, request, monkeypatch):
        """Pairs per step, 2^(BLOCK_BITS - 1): at the real 2^14 every
        state of n <= 10 is one block; at 8 (BLOCK_BITS = 4) a state of
        n >= 5 runs in several blocks per gate."""
        monkeypatch.setattr(oracle, "BLOCK_BITS", request.param.bit_length())
        return request.param

    @pytest.mark.parametrize("name", sorted(KERNEL_MATRICES))
    def test_bytes_match_reference(self, pairs, name):
        kind, angle = KERNEL_GATES[name]
        m = KERNEL_MATRICES[name]
        rng = np.random.default_rng(73)
        for n in range(1, 11):
            for amps in _kernel_inputs(n, rng):
                for q in range(n):
                    c = gateset.Circuit(n=n, ops=[gateset.single(kind, q, angle)])
                    want = amps.copy()
                    apply_1q_reference(want, m, q)
                    got = oracle.ref_run(c, RefState(n, amps)).amps
                    assert got.tobytes() == want.tobytes(), (n, q)

    def test_ref_run_bytes_match_reference(self):
        _check_ref_run_bytes(9)

    def test_blocked_ref_run_bytes_match_reference(self):
        # one block of 2^14 and 2^15 amplitudes, and two blocks of 2^15
        for n in (14, 15, 16):
            _check_ref_run_bytes(n)

    def test_cx_bytes_match_reference(self, pairs):
        # a CX's halves hold half a step's pairs each
        rng = np.random.default_rng(76)
        for n in range(2, 11):
            for amps in _kernel_inputs(n, rng):
                for control in range(n):
                    for target in range(n):
                        if control == target:
                            continue
                        c = gateset.Circuit(n=n, ops=[gateset.cx(control, target)])
                        want = amps.copy()
                        apply_cx_reference(want, control, target, n)
                        got = oracle.ref_run(c, RefState(n, amps)).amps
                        assert got.tobytes() == want.tobytes(), (n, control, target)

    @pytest.mark.parametrize("bufsize", (16, 128, 8192))
    def test_bytes_match_reference_at_buffer_sizes(self, bufsize):
        # numpy's ufunc buffer size decides whether a product on a strided
        # half copies its rows through the buffer (rows shorter than the
        # buffer) or reads them in place: n = 10..12 has rows of 1..2^11
        rng = np.random.default_rng(83)
        for n in range(10, 13):
            scratch = np.empty((3, 1 << (n - 1)), dtype=np.complex128)
            for amps in _kernel_inputs(n, rng):
                for q in range(n):
                    for name, m in KERNEL_MATRICES.items():
                        want, got = amps.copy(), amps.copy()
                        apply_1q_reference(want, m, q)
                        x, y = oracle._halves_1q(got, q)
                        with np.errstate():
                            np.setbufsize(bufsize)
                            oracle._step_1q(m, x, y, *(row.reshape(x.shape) for row in scratch))
                        assert got.tobytes() == want.tobytes(), (n, q, name)
                    for target in range(n):
                        if target != q:
                            want, got = amps.copy(), amps.copy()
                            apply_cx_reference(want, q, target, n)
                            x, y = oracle._halves_cx(got, q, target)
                            with np.errstate():
                                np.setbufsize(bufsize)
                                oracle._step_cx(x, y, scratch[0, :x.size].reshape(x.shape))
                            assert got.tobytes() == want.tobytes(), (n, q, target)

    def test_leaves_init_untouched(self):
        rng = np.random.default_rng(75)
        init = RefState(6, random_ref_amplitudes(6, rng))
        before = init.amps.tobytes()
        oracle.ref_run(random_circuit(6, 50, rng), init)
        assert init.amps.tobytes() == before


def _kernel_circuit(n: int, gates: int, rng) -> gateset.Circuit:
    # random gates of every KERNEL_GATES kind and CX, on random qubits
    kinds = sorted(KERNEL_GATES) + ["CX"]
    c = gateset.Circuit(n=n)
    for _ in range(gates):
        kind = kinds[rng.integers(0, len(kinds))]
        if kind == "CX":
            control, target = rng.choice(n, size=2, replace=False)
            c.ops.append(gateset.cx(int(control), int(target)))
        else:
            name, angle = KERNEL_GATES[kind]
            c.ops.append(gateset.single(name, int(rng.integers(0, n)), angle))
    return c


@pytest.fixture(params=((4, 2), (4, 3), (5, 4)), ids=("b4k2", "b4k3", "b5k4"))
def small_blocks(request, monkeypatch):
    """Blocks of 2^b amplitudes and clusters of at most k qubits, so
    that n = b+1..10 runs many blocks and clusters in milliseconds."""
    b, k = request.param
    monkeypatch.setattr(oracle, "BLOCK_BITS", b)
    monkeypatch.setattr(oracle, "CLUSTER_QUBITS", k)
    return b, k


@pytest.fixture
def step_bufsizes(monkeypatch):
    """Records the numpy buffer size each cluster step runs at."""
    seen = set()
    for name in ("_step_1q", "_step_cx"):
        step = getattr(oracle, name)

        def recorded(*args, step=step):
            seen.add(np.getbufsize())
            step(*args)
        monkeypatch.setattr(oracle, name, recorded)
    return seen


@pytest.fixture
def wide_rows(monkeypatch, step_bufsizes):
    """Blocks of 2^10 amplitudes and clusters of at most 3 qubits: every
    half a cluster's gate reads has rows of at least 2^7 elements, so
    the cluster path sets numpy's buffer to 128 and its products read
    the rows in place. Records the buffer size each step runs at."""
    monkeypatch.setattr(oracle, "BLOCK_BITS", 10)
    monkeypatch.setattr(oracle, "CLUSTER_QUBITS", 3)
    return step_bufsizes


class TestClusters:
    """ref_run over several blocks per cluster, against the whole-array
    reference forms, bit for bit."""

    def test_random_circuits_match_reference(self, small_blocks):
        # from n = b+1 (two blocks per cluster) to 2^(10-b) blocks
        b, _ = small_blocks
        rng = np.random.default_rng(78)
        for n in range(b + 1, 11):
            c = _kernel_circuit(n, 60, rng)
            for amps in _kernel_inputs(n, rng):
                got = oracle.ref_run(c, RefState(n, amps)).amps
                assert got.tobytes() == _replay(c, amps).tobytes(), n

    def test_cx_between_filler_and_cluster_qubits(self, small_blocks):
        # qubit 0 is filler in the clusters around these CX and a cluster
        # qubit in theirs, mapped to a buffer bit above the filler
        b, k = small_blocks
        n = b + 3
        rng = np.random.default_rng(79)
        c = gateset.Circuit(n=n)
        for high in (n - 1, b):
            c.ops += [gateset.single("H", q) for q in range(n)]
            c.ops += [gateset.cx(high, 0), gateset.single("RX", high, 2.3),
                      gateset.cx(0, high), gateset.single("RZ", 0, 4.1)]
        clusters = [qubits for _, qubits in oracle._clusters(c.ops, k)]
        assert any(0 in q for q in clusters) and any(0 not in q for q in clusters)
        for amps in _kernel_inputs(n, rng):
            got = oracle.ref_run(c, RefState(n, amps)).amps
            assert got.tobytes() == _replay(c, amps).tobytes()

    def test_cluster_of_exactly_k_qubits(self, small_blocks):
        # k single-qubit gates fill one cluster; the next gate opens another
        b, k = small_blocks
        n = b + 2
        c = gateset.Circuit(n=n, ops=[gateset.single("RY", n - 1 - q, 1.1)
                                      for q in range(k + 1)])
        assert [len(qubits) for _, qubits in oracle._clusters(c.ops, k)] == [k, 1]
        rng = np.random.default_rng(80)
        for amps in _kernel_inputs(n, rng):
            got = oracle.ref_run(c, RefState(n, amps)).amps
            assert got.tobytes() == _replay(c, amps).tobytes()

    def test_leaves_init_untouched(self, small_blocks):
        rng = np.random.default_rng(81)
        init = RefState(8, random_ref_amplitudes(8, rng))
        before = init.amps.tobytes()
        oracle.ref_run(random_circuit(8, 50, rng), init)
        assert init.amps.tobytes() == before

    def test_cp_decomposition_phase(self, small_blocks):
        # the tracked global phase on the cluster path, for a CP between
        # the lowest and the highest qubit: its cluster puts qubit 0 on a
        # buffer bit above the filler
        theta, n = 2.31, 7
        ops, phase = gateset.decompose_cp(theta, 0, n - 1)
        c = gateset.Circuit(n=n, ops=ops, global_phase=phase)
        init = random_ref_amplitudes(n, np.random.default_rng(82))
        got = oracle.ref_run(c, RefState(n, init))
        both = (np.arange(1 << n) & 1) & (np.arange(1 << n) >> (n - 1))
        want = np.where(both == 1, np.exp(1j * theta), 1.0) * init
        assert np.abs(got.amps - want).max() < 1e-12

    def test_wide_rows_match_reference(self, wide_rows):
        rng = np.random.default_rng(84)
        for n in (11, 12):
            c = _kernel_circuit(n, 60, rng)
            for amps in _kernel_inputs(n, rng):
                got = oracle.ref_run(c, RefState(n, amps)).amps
                assert got.tobytes() == _replay(c, amps).tobytes(), n
        assert wide_rows == {128}

    @pytest.mark.parametrize("fails, n, bufsize", (
        (False, 11, 128), (True, 11, 128), (False, 3, 16), (True, 3, 16)),
        ids=("returns", "raises", "returns-n3", "raises-n3"))
    def test_restores_buffer_size(self, request, step_bufsizes, monkeypatch, fails, n,
                                  bufsize):
        # the caller's own setting comes back, also when a gate raises
        # inside a cluster; n = 11 runs at the wide_rows constants, n = 3
        # at the real ones, one block of b = 3 < CLUSTER_QUBITS bits
        if n == 11:
            request.getfixturevalue("wide_rows")
        if fails:
            def broken(*args):
                raise FloatingPointError("gate failed")
            monkeypatch.setattr(oracle, "_step_cx", broken)
        c = _kernel_circuit(n, 30, np.random.default_rng(85))
        outcome = pytest.raises(FloatingPointError) if fails else contextlib.nullcontext()
        with np.errstate():
            np.setbufsize(4096)
            with outcome:
                oracle.ref_run(c, oracle.basis_state(n, 3))
            assert np.getbufsize() == 4096
        assert bufsize in step_bufsizes


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

    @pytest.mark.parametrize("n", range(1, 18))
    def test_bits_match_whole_array_formulas(self, n, monkeypatch):
        # n = 14 is numpy's 256 KiB elision edge; from n = 16 up a state
        # is several blocks, and at BLOCK_BITS = 7 so is every n >= 8
        rng = np.random.default_rng(76 + n)
        size = 1 << n
        ref = RefState(n, random_ref_amplitudes(n, rng))
        noisy = ref.amps + 1e-6 * random_ref_amplitudes(n, rng)
        sv = state.from_amplitudes(n, np.exp(0.4j) * noisy)
        converted = sv.to_complex()
        assert converted.tobytes() == ((sv.re + 1j * sv.im) / fxp.SCALE).tobytes()
        # zero and RAW_MIN words, and parts of +-0 beside nonzero ones
        edge = sv.copy()
        edge.re[rng.random(size) < 0.3] = 0
        edge.im[rng.random(size) < 0.3] = fxp.RAW_MIN
        signed = rng.choice([0.0, -0.0, 0.5, -0.25], size=2 * size).view(np.complex128)
        pairs = [(ref, sv), (sv, ref), (ref.amps, converted), (edge, ref),
                 (signed, ref.amps), (ref.amps, signed),
                 (ref, ref.amps.copy()),      # identical: mse_raw == 0
                 (ref.amps, -ref.amps)]       # a sign flip: phase pi

        def amps(x):
            return x.to_complex() if isinstance(x, state.StateVector) else getattr(x, "amps", x)

        def bits(values):
            return [float(v).hex() for v in values]

        for block_bits in (oracle.BLOCK_BITS, 7):
            monkeypatch.setattr(oracle, "BLOCK_BITS", block_bits)
            for a, b in pairs:
                want = bits(metrics_reference(amps(a), amps(b)))
                got = oracle.metrics(a, b)
                assert bits((got.fidelity, got.mse_raw, got.mse_aligned, got.phase)) == want
                assert bits((oracle.fidelity(a, b), *oracle.mse(a, b))) == want
        with pytest.raises(ValueError, match=f"^length mismatch: {size} vs {2 * size}$"):
            oracle.metrics(ref, state.init_basis(n + 1, 0))

    def test_blocks_hold_no_state_sized_array(self):
        # converting the whole fixed-point state would take 2 MiB of
        # complex128 at n = 17
        n = 17
        rng = np.random.default_rng(77)
        ref = RefState(n, random_ref_amplitudes(n, rng))
        sv = state.from_amplitudes(n, ref.amps)
        tracemalloc.start()
        try:
            oracle.metrics(ref, sv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_equal_up_to_phase_helper(self):
        rng = np.random.default_rng(72)
        u = oracle.circuit_unitary(random_circuit(2, 10, rng))
        assert oracle.equal_up_to_phase(u, np.exp(1.3j) * u)
        assert not oracle.equal_up_to_phase(u, 1.1 * u)
        v = u.copy()
        v[0, 0] += 1e-6
        assert not oracle.equal_up_to_phase(u, v)
