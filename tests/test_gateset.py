import math

import numpy as np
import pytest

from hpqe import fxp, gateset, oracle
from hpqe.fxp import CFx
from hpqe.gateset import Circuit


def unitary_of(ops, n, phase=0.0):
    return oracle.circuit_unitary(Circuit(n=n, ops=list(ops), global_phase=phase))


def cp_matrix(theta):
    return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)


def crx_matrix(theta, control=0, target=1):
    u = np.eye(4, dtype=complex)
    rows = [i for i in range(4) if (i >> control) & 1]
    m = gateset.matrix_of("RX", theta)
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            u[ra, rb] = m[(ra >> target) & 1, (rb >> target) & 1]
    return u


SWAP_MATRIX = np.array([[1, 0, 0, 0],
                        [0, 0, 1, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1]], dtype=complex)


class TestMatrixOf:
    def test_rz_zero_is_identity(self):
        assert np.allclose(gateset.matrix_of("RZ", 0.0), np.eye(2), atol=1e-15)

    def test_rx_pi(self):
        want = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(gateset.matrix_of("RX", math.pi) - want).max() < 1e-15

    def test_h_involution(self):
        h = gateset.matrix_of("H")
        assert np.abs(h @ h - np.eye(2)).max() < 1e-15

    def test_all_unitary(self):
        rng = np.random.default_rng(30)
        mats = [gateset.matrix_of("H"), gateset.matrix_of("S")]
        mats += [gateset.matrix_of(k, float(rng.uniform(0, 2 * math.pi)))
                 for k in ("RX", "RY", "RZ") for _ in range(5)]
        for m in mats:
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-14

    def test_angle_required(self):
        with pytest.raises(ValueError):
            gateset.matrix_of("RX")
        with pytest.raises(ValueError):
            gateset.matrix_of("CX")

    @pytest.mark.parametrize("angle", (math.inf, -math.inf, math.nan))
    @pytest.mark.parametrize("kind", ("RX", "RY", "RZ"))
    def test_angle_must_be_finite(self, kind, angle):
        with pytest.raises(ValueError, match=f"^{kind} angle {angle!r} is not a finite number$"):
            gateset.single(kind, 0, angle)


class TestQuantizeGate:
    def test_hadamard_entries(self):
        g = gateset.single("H", 0)
        r = fxp.RAW_SQRT_HALF
        assert g.matrix == (CFx(r, 0), CFx(r, 0), CFx(r, 0), CFx(-r, 0))
        assert g.sparse is False

    def test_s_entries(self):
        g = gateset.single("S", 0)
        one = fxp.quantize(1.0)
        assert g.matrix == (CFx(one, 0), CFx(0, 0), CFx(0, 0), CFx(0, one))
        assert g.sparse is True

    def test_rz_quarter_turn(self):
        g = gateset.single("RZ", 0, math.pi / 2)
        r = fxp.RAW_SQRT_HALF
        assert g.matrix == (CFx(r, -r), CFx(0, 0), CFx(0, 0), CFx(r, r))

    def test_sparse_flags(self):
        assert gateset.single("S", 0).sparse
        assert gateset.single("RZ", 0, 0.3).sparse
        for kind in ("H",):
            assert not gateset.single(kind, 0).sparse
        assert not gateset.single("RX", 0, 0.3).sparse
        assert not gateset.single("RY", 0, 0.3).sparse

    def test_rejects_cx(self):
        with pytest.raises(ValueError):
            gateset.quantize_gate(gateset.cx(0, 1))


class TestDecomposeCp:
    def test_zero_angle_is_identity(self):
        ops, phase = gateset.decompose_cp(0.0, 0, 1)
        assert phase == 0.0
        assert np.abs(unitary_of(ops, 2) - np.eye(4)).max() < 1e-12

    def test_pi_gives_cz(self):
        ops, phase = gateset.decompose_cp(math.pi, 0, 1)
        u = unitary_of(ops, 2, phase)
        assert np.abs(u - np.diag([1, 1, 1, -1])).max() < 1e-12

    def test_structure(self):
        ops, phase = gateset.decompose_cp(1.7, 0, 1)
        assert len(ops) == 5
        assert [op.kind for op in ops] == ["RZ", "CX", "RZ", "CX", "RZ"]
        assert phase == 1.7 / 4

    def test_random_angles_match_target(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            ops, phase = gateset.decompose_cp(theta, 0, 1)
            u = unitary_of(ops, 2, phase)
            assert np.abs(u - cp_matrix(theta)).max() < 1e-12

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            gateset.decompose_cp(0.1, 2, 2)


class TestDecomposeSwap:
    def test_structure(self):
        ops = gateset.decompose_swap(0, 1)
        assert [(op.kind, op.control, op.target) for op in ops] == [
            ("CX", 0, 1), ("CX", 1, 0), ("CX", 0, 1)]

    def test_matrix_is_swap(self):
        u = unitary_of(gateset.decompose_swap(0, 1), 2)
        assert np.abs(u - SWAP_MATRIX).max() == 0.0

    def test_basis_action_and_involution(self):
        u = unitary_of(gateset.decompose_swap(0, 1), 2)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)      # q0=1, q1=0
        assert np.array_equal(u @ ket01, np.array([0, 0, 1, 0], dtype=complex))
        assert np.abs(u @ u - np.eye(4)).max() == 0.0

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            gateset.decompose_swap(1, 1)


class TestDecomposeCrx:
    def test_zero_angle(self):
        ops, phase = gateset.decompose_crx(0.0, 0, 1)
        u = unitary_of(ops, 2, phase)
        assert oracle.equal_up_to_phase(u, np.eye(4, dtype=complex))

    def test_pi_relates_to_cx(self):
        # CRX(pi) is CX up to a phase on the control's |1> block: an S on
        # the control recovers CX exactly. They are not equal up to a
        # single global phase.
        ops, phase = gateset.decompose_crx(math.pi, 0, 1)
        u = unitary_of(ops, 2, phase)
        assert np.abs(u - crx_matrix(math.pi)).max() < 1e-12
        s_on_control = unitary_of([gateset.single("S", 0)], 2)
        cx_mat = unitary_of([gateset.cx(0, 1)], 2)
        assert np.abs(s_on_control @ u - cx_mat).max() < 1e-12
        assert not oracle.equal_up_to_phase(u, cx_mat)

    def test_random_angles_match_target(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            ops, phase = gateset.decompose_crx(theta, 0, 1)
            u = unitary_of(ops, 2, phase)
            assert oracle.equal_up_to_phase(u, crx_matrix(theta), tol=1e-12)

    def test_emits_only_base_kinds(self):
        for maker in (lambda: gateset.decompose_cp(0.9, 0, 1)[0],
                      lambda: gateset.decompose_swap(0, 1),
                      lambda: gateset.decompose_crx(0.9, 0, 1)[0]):
            for op in maker():
                assert op.kind in gateset.BASE_KINDS
                if op.kind != "CX":
                    assert op.matrix is not None


class TestTextFormat:
    def test_round_trip(self):
        circuit = Circuit(n=3)
        circuit.ops = [gateset.single("H", 0),
                       gateset.single("RZ", 2, 0.12345678901234567),
                       gateset.cx(0, 2),
                       gateset.single("RX", 1, -math.pi)]
        circuit.global_phase = 0.75
        text = gateset.circuit_to_text(circuit)
        back = gateset.circuit_from_text(text)
        assert back.n == 3
        assert back.global_phase == 0.75
        assert [(op.kind, op.control, op.target, op.angle) for op in back.ops] == \
               [(op.kind, op.control, op.target, op.angle) for op in circuit.ops]
        assert [op.matrix for op in back.ops] == [op.matrix for op in circuit.ops]

    def test_comments_and_blank_lines(self):
        text = "# a comment\nQUBITS 2\n\nH 0\n# another\nCX 0 1\n"
        c = gateset.circuit_from_text(text)
        assert [op.kind for op in c.ops] == ["H", "CX"]

    def test_header_optional_with_explicit_n(self):
        c = gateset.circuit_from_text("H 1\n", n=2)
        assert c.n == 2
        with pytest.raises(ValueError):
            gateset.circuit_from_text("H 1\n")

    def test_header_conflict(self):
        with pytest.raises(ValueError):
            gateset.circuit_from_text("QUBITS 4\n", n=3)

    def test_one_header(self):
        # a header may follow gate lines; a second one fails, naming its line
        c = gateset.circuit_from_text("H 1\nQUBITS 2\nH 0\n")
        assert c.n == 2 and [op.target for op in c.ops] == [1, 0]
        with pytest.raises(ValueError, match=r"^line 3: second QUBITS header \(the first is line 1\)$"):
            gateset.circuit_from_text("QUBITS 2\nH 0\nQUBITS 5\nH 4\n")
        with pytest.raises(ValueError, match=r"^line 3: second QUBITS header \(the first is line 2\)$"):
            gateset.circuit_from_text("H 0\nQUBITS 3\nQUBITS 3\n", n=3)

    def test_parse_errors(self):
        for bad in ("QUBITS 2\nFOO 0\n", "QUBITS 2\nRX 0\n", "QUBITS 2\nH\n",
                    "QUBITS 2\nH 5\n"):
            with pytest.raises(ValueError):
                gateset.circuit_from_text(bad)

    @pytest.mark.parametrize("phase", ("nan", "inf", "-inf", "abc"))
    def test_bad_global_phase_names_its_line(self, phase):
        text = f"QUBITS 2\nH 0\n# global_phase {phase}\n"
        with pytest.raises(ValueError, match=f"^line 3: global phase '{phase}'"):
            gateset.circuit_from_text(text)


class TestGateRecord:
    def test_size_and_header(self):
        rec = gateset.pack_gate_record(gateset.single("H", 3))
        assert len(rec) == gateset.GATE_RECORD_BYTES == 40
        assert rec[0] == 0            # kind code H
        assert rec[1] == 0xFF         # no control
        assert rec[2] == 3            # target
        assert rec[3] == 0            # dense
        assert rec[4:8] == b"\x00\x00\x00\x00"
        r = fxp.RAW_SQRT_HALF         # m00 = (r, 0), int32 little-endian
        assert rec[8:16] == r.to_bytes(4, "little", signed=True) + bytes(4)

    def test_cx_record(self):
        rec = gateset.pack_gate_record(gateset.cx(1, 0))
        assert rec[0] == 5 and rec[1] == 1 and rec[2] == 0
        assert rec[8:] == b"\x00" * 32
        back = gateset.unpack_gate_record(rec)
        assert (back.kind, back.control, back.target) == ("CX", 1, 0)
        assert back.matrix is None

    def test_round_trip_preserves_coefficients(self):
        for g in (gateset.single("RZ", 2, 0.7), gateset.single("S", 1),
                  gateset.single("RY", 0, -1.9)):
            back = gateset.unpack_gate_record(gateset.pack_gate_record(g))
            assert back.kind == g.kind
            assert back.target == g.target
            assert back.sparse == g.sparse
            assert back.matrix == g.matrix    # angles travel as coefficients

    def test_bad_length(self):
        with pytest.raises(ValueError):
            gateset.unpack_gate_record(b"\x00" * 39)
