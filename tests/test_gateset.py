import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from hpqe import circuits, engine, fxp, gateset, oracle, state
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


H_GATE = gateset.single("H", 0)


class TestCheckGate:
    # gateset.check_gate alone decides whether a gate can run: every
    # entry point refuses a malformed gate with its one ValueError. Each
    # case builds its gate inside the entry point, since a gate of an
    # unknown kind is refused when it is built, before any entry point
    @pytest.mark.parametrize("make_op, message", (
        (lambda: replace(H_GATE, kind="T"), "'T' is not a base gate kind"),
        (lambda: gateset.GateOp(kind="CX", target=0), "control None out of range for n=4"),
        (lambda: replace(H_GATE, control=1), "H takes no control, got control 1"),
        (lambda: gateset.GateOp(kind="CX", target=1, control=1),
         "CX control and target are both qubit 1"),
        (lambda: replace(H_GATE, target=None), "target None out of range for n=4"),
        (lambda: replace(H_GATE, target="1"), "target '1' out of range for n=4"),
        (lambda: replace(H_GATE, target=1.5), "target 1.5 out of range for n=4"),
        (lambda: gateset.GateOp(kind="CX", target=0, control=1.5),
         "control 1.5 out of range for n=4"),
    ), ids=("unknown-kind", "cx-without-control", "single-with-control", "cx-on-one-qubit",
            "target-none", "target-str", "target-float", "control-float"))
    def test_every_entry_point_raises_the_same_error(self, make_op, message):
        n = 4

        def circuit():
            return Circuit(n=n, ops=[gateset.single("H", 2), make_op()])

        def apply():
            op = make_op()
            if op.kind == "CX":
                engine.apply_cx(state.init_basis(n, 0), op.control, op.target)
            else:
                engine.apply_single(state.init_basis(n, 0), op)

        entries = {
            "validate": lambda: circuit().validate(),
            "ref_run": lambda: oracle.ref_run(circuit(), oracle.basis_state(n, 0)),
            "run_circuit": lambda: engine.run_circuit(state.init_basis(n, 0), circuit()),
            "apply_single/apply_cx": apply,
        }
        for name, call in entries.items():
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message, name

    def test_numpy_integer_qubits_pass(self):
        # a qubit is anything operator.index takes
        n = 4
        ops = [replace(H_GATE, target=np.int64(3)),
               gateset.GateOp(kind="CX", target=np.int32(0), control=np.uint8(3))]
        circuit = Circuit(n=n, ops=ops)
        circuit.validate()
        plain = Circuit(n=n, ops=[gateset.single("H", 3), gateset.cx(3, 0)])
        sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
        want, _ = engine.run_circuit(state.init_basis(n, 0), plain)
        assert sv.dump() == want.dump()



class TestGateOp:
    # a GateOp is built from its kind, qubits and angle; its words and
    # sparse flag are derived from them and cannot be set apart from them

    @pytest.mark.parametrize("kind", gateset.BASE_KINDS)
    def test_words_are_derived(self, kind):
        angles = (-0.0, 0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, 0.7)
        for angle in angles if kind in gateset.ROTATION_KINDS else (None,):
            op = gateset.GateOp(kind, 2, angle=angle)
            if kind == "CX":
                assert op.matrix is None
            else:
                m = gateset.matrix_of(kind, angle)
                assert op.matrix == tuple(fxp.quantize_complex(complex(m[r, c]))
                                          for r in (0, 1) for c in (0, 1)), angle
                assert op == gateset.single(kind, 2, angle)
            assert op.sparse is (kind in gateset.SPARSE_KINDS)
            assert repr(op.angle) == repr(angle)

    def test_words_cannot_be_passed_or_replaced(self):
        # RZ(0.5) carrying H's words, which once ran as H in the engine and
        # as RZ(0.5) in the oracle, can no longer be built
        rz = gateset.single("RZ", 0, 0.5)
        with pytest.raises(TypeError, match="matrix"):
            gateset.GateOp("RZ", 0, angle=0.5, matrix=H_GATE.matrix)
        with pytest.raises(TypeError, match="sparse"):
            gateset.GateOp("H", 0, sparse=True)
        with pytest.raises(ValueError, match="matrix"):
            replace(rz, matrix=H_GATE.matrix)
        with pytest.raises(ValueError, match="sparse"):
            replace(rz, sparse=False)
        assert replace(rz, kind="H", angle=None) == H_GATE

    def test_frozen_equal_and_hashable(self):
        # every field is set once, when the gate is built, and stays: an
        # assignment raises, and equal gates are equal and hash alike
        rz = gateset.GateOp("RZ", 2, angle=0.5)
        for name, value in (("kind", "H"), ("target", 1), ("matrix", H_GATE.matrix),
                            ("sparse", False), ("new", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rz, name, value)
        same = gateset.single("RZ", 2, 0.5)
        assert rz == same and hash(rz) == hash(same) and len({rz, same}) == 1
        assert rz != gateset.single("RZ", 2, 0.25) and rz != gateset.single("RZ", 1, 0.5)
        assert gateset.cx(0, 1) == gateset.GateOp("CX", target=1, control=0)
        assert (rz.kind, rz.target, rz.control, rz.angle, rz.sparse) == ("RZ", 2, None, 0.5, True)
        assert rz.matrix == gateset._quantized("RZ", 0.5)
        assert [f.name for f in dataclasses.fields(rz)] == [
            "kind", "target", "control", "angle", "matrix", "sparse"]

    @pytest.mark.parametrize("kind", ("T", "h", "", "CZ"))
    def test_unknown_kind_is_refused(self, kind):
        for build in (lambda: gateset.GateOp(kind, 0), lambda: replace(H_GATE, kind=kind)):
            with pytest.raises(ValueError, match=f"^{kind!r} is not a base gate kind$"):
                build()

    @pytest.mark.parametrize("kind", gateset.ROTATION_KINDS)
    def test_rotation_needs_an_angle(self, kind):
        # a non-finite angle is refused as in TestMatrixOf
        with pytest.raises(ValueError, match=f"^{kind} requires an angle$"):
            gateset.GateOp(kind, 2)
        with pytest.raises(ValueError, match=f"^{kind} requires an angle$"):
            replace(gateset.single(kind, 2, 0.5), angle=None)

    @pytest.mark.parametrize("kind", ("H", "S", "CX"))
    def test_angle_refused_where_ignored(self, kind):
        # H, S and CX take no angle: one they ignored would make two equal
        # gates compare unequal and be lost by circuit_to_text
        control = 1 if kind == "CX" else None
        for angle in (0.5, 0.0, -0.0, math.nan):
            with pytest.raises(ValueError, match=f"^{kind} takes no angle, got {angle!r}$"):
                gateset.GateOp(kind, 0, control, angle)
            with pytest.raises(ValueError, match=f"^{kind} takes no angle"):
                replace(gateset.GateOp(kind, 0, control), angle=angle)
        if kind != "CX":
            with pytest.raises(ValueError, match=f"^{kind} takes no angle, got 0.5$"):
                gateset.single(kind, 0, 0.5)
        op = gateset.GateOp(kind, 0, control)
        back = gateset.circuit_from_text(gateset.circuit_to_text(Circuit(n=2, ops=[op])))
        assert back.ops == [op]

    def test_generated_ops_are_rebuilt_ops(self):
        # every op a generator emits is the op rebuilt from its kind, qubits
        # and angle, words included
        built = [circuits.qft(n) for n in range(1, 21)]
        for kind in circuits.TOPOLOGY_KINDS:
            slots = circuits.rotation_slots(kind, 5, 2)
            built.append(circuits.template(kind, 5, 2, np.linspace(-7.0, 7.0, slots)))
        for circuit in built:
            for op in circuit.ops:
                want = gateset.GateOp(op.kind, op.target, op.control, op.angle)
                assert op == want and op.matrix == want.matrix


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

    @pytest.mark.parametrize("kind", ("T", "h", ""))
    def test_single_refuses_as_quantize_gate_does(self, kind):
        # single() quantizes through the GateOp it builds, so it refuses an
        # unknown kind with the constructor's own error
        with pytest.raises(ValueError) as want:
            gateset.GateOp(kind, 0, angle=0.5)
        with pytest.raises(ValueError) as got:
            gateset.single(kind, 0, 0.5)
        assert str(got.value) == str(want.value) == f"{kind!r} is not a base gate kind"

    @pytest.mark.parametrize("first", (0.0, -0.0))
    def test_cached_words_are_fresh_words(self, first):
        # each (kind, angle) is quantized once; the words a cache hit
        # returns are those of a fresh quantization, for either zero
        # cached first, whichever zero is asked for next
        gateset._quantized.cache_clear()
        angles = (first, -first, math.pi, -math.pi, 2 * math.pi)
        for kind in gateset.SINGLE_KINDS:
            for angle in angles if kind in gateset.ROTATION_KINDS else (None,):
                m = gateset.matrix_of(kind, angle)
                fresh = tuple(fxp.quantize_complex(complex(m[r, c]))
                              for r in (0, 1) for c in (0, 1))
                for _ in range(2):
                    assert gateset.single(kind, 3, angle).matrix == fresh, (kind, angle)
        info = gateset._quantized.cache_info()
        assert info.hits > 0 and info.currsize < 2 * len(angles) * len(gateset.SINGLE_KINDS)

    def test_cache_stays_bounded(self):
        # a template draws a fresh angle per gate: the cache keeps at most
        # its maxsize entries, and every gate still gets its own words
        limit = gateset._quantized.cache_info().maxsize
        assert limit is not None
        for angle in np.linspace(0.0, 2 * math.pi, 2 * limit + 3):
            g = gateset.single("RY", 0, float(angle))
            assert g.matrix[2] == fxp.quantize_complex(complex(math.sin(angle / 2)))
        assert gateset._quantized.cache_info().currsize == limit


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

