import math
from fractions import Fraction

import numpy as np
import pytest

from hpqe import circuits, gateset, oracle


class TestQft:
    def test_gate_counts(self):
        assert circuits.gate_count(circuits.qft(17)) == (721, 296, 425)
        assert circuits.gate_count(circuits.qft(16)) == (640, 264, 376)
        assert circuits.gate_count(circuits.qft(3)) == (21, 9, 12)
        assert len(circuits.qft(1).ops) == 1
        assert circuits.qft(1).ops[0].kind == "H"

    def test_closed_form_matches_enumeration(self):
        for n in range(1, 13):
            assert len(circuits.qft(n).ops) == n + 5 * n * (n - 1) // 2 + 3 * (n // 2)

    def test_uniform_superposition_on_zero(self):
        for n in (2, 4, 6):
            ref = oracle.ref_run(circuits.qft(n), oracle.basis_state(n, 0))
            mags = np.abs(ref.amps)
            assert np.abs(mags - 2 ** (-n / 2)).max() < 1e-12

    def test_matches_dft_matrix(self):
        # independent target: the DFT matrix itself
        for n in (1, 2, 3, 4):
            size = 1 << n
            w = np.exp(2j * np.pi / size)
            dft = np.array([[w ** (x * y) for x in range(size)]
                            for y in range(size)]) / math.sqrt(size)
            u = oracle.circuit_unitary(circuits.qft(n))
            assert np.abs(u - dft).max() < 1e-12

    def test_base_set_only(self):
        for op in circuits.qft(6).ops:
            assert op.kind in gateset.BASE_KINDS

    def test_global_phase_accumulates(self):
        n = 5
        want = sum(math.pi / (1 << (q - j)) / 4
                   for q in range(n) for j in range(q))
        assert circuits.qft(n).global_phase == pytest.approx(want)

    def test_angle_is_exact_and_never_overflows(self):
        # pi / (1 << k) itself for every k a float 2^k exists for, so QFT
        # bits are unchanged; past that, where the old division overflowed,
        # the correctly rounded pi / 2^k (a subnormal at 1024, 0 at 1100)
        for k in range(1024):
            assert circuits.qft_angle(k) == math.pi / (1 << k), k
        for k in (1024, 1100):
            with pytest.raises(OverflowError):
                math.pi / (1 << k)
            angle = circuits.qft_angle(k)
            assert abs(Fraction(angle) - Fraction(math.pi) / 2 ** k) <= Fraction(1, 2 ** 1075)
        assert circuits.qft_angle(1024) > 0 and circuits.qft_angle(1100) == 0

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            circuits.qft(0)


class TestTemplate:
    def angles(self, kind, n, layers):
        return [0.3] * circuits.rotation_slots(kind, n, layers)

    def test_rotation_has_no_entanglers(self):
        c = circuits.template(circuits.ROTATION, 4, 1, [math.pi / 4] * 8)
        assert len(c.ops) == 8
        assert all(op.kind in ("RY", "RZ") for op in c.ops)

    def test_chain_cx_count(self):
        c = circuits.template(circuits.CHAIN, 4, 1, self.angles(circuits.CHAIN, 4, 1))
        assert circuits.gate_count(c)[1] == 3
        pairs = [(op.control, op.target) for op in c.ops if op.kind == "CX"]
        assert pairs == [(0, 1), (1, 2), (2, 3)]

    def test_alternating_pattern(self):
        c = circuits.template(circuits.ALTERNATING, 5, 1,
                              self.angles(circuits.ALTERNATING, 5, 1))
        pairs = [(op.control, op.target) for op in c.ops if op.kind == "CX"]
        assert pairs == [(0, 1), (2, 3), (1, 2), (3, 4)]

    def test_all_to_all_cx_count(self):
        c = circuits.template(circuits.ALL_TO_ALL, 4, 1,
                              self.angles(circuits.ALL_TO_ALL, 4, 1))
        assert circuits.gate_count(c)[1] == 12    # n*(n-1) ordered pairs

    def test_layer_scaling(self):
        c = circuits.template(circuits.CHAIN, 3, 4, self.angles(circuits.CHAIN, 3, 4))
        total, n_cx, n_single = circuits.gate_count(c)
        assert n_cx == 4 * 2
        assert n_single == 4 * 6

    def test_angle_count_mismatch(self):
        with pytest.raises(ValueError):
            circuits.template(circuits.CHAIN, 4, 1, [0.1] * 7)
        with pytest.raises(ValueError):
            circuits.template(circuits.CHAIN, 4, 1, [0.1] * 9)

    def test_base_set_only_and_valid(self):
        rng = np.random.default_rng(50)
        for kind in circuits.TOPOLOGY_KINDS:
            angles = rng.uniform(0, 2 * np.pi,
                                 circuits.rotation_slots(kind, 5, 2))
            c = circuits.template(kind, 5, 2, angles)
            c.validate()
            assert all(op.kind in gateset.BASE_KINDS for op in c.ops)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            circuits.template("ring", 4, 1, [])

    def test_entangling_needs_two_qubits(self):
        with pytest.raises(ValueError):
            circuits.template(circuits.CHAIN, 1, 1, [0.1, 0.2])
        circuits.template(circuits.ROTATION, 1, 1, [0.1, 0.2])   # fine


class TestGateCount:
    def test_empty(self):
        assert circuits.gate_count(gateset.Circuit(n=3)) == (0, 0, 0)

    def test_mixed(self):
        c = gateset.Circuit(n=2, ops=[gateset.single("H", 0), gateset.cx(0, 1),
                                      gateset.single("RZ", 1, 0.2)])
        assert circuits.gate_count(c) == (3, 1, 2)
