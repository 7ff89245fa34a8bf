"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 8 is the long one (a full 20-qubit functional run); everything
else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest

from hpqe import circuits, engine, gateset, oracle, perfmodel, state
from hpqe.perfmodel import CapacityError

from helpers import random_circuit


def report(criterion, text):
    print(f"[acceptance] criterion {criterion} ({text}): PASS")


def test_criterion_1_cx_cycle_exactness():
    # full machine trace up to 20 qubits
    for n in range(2, 21):
        run = engine.simulate_swapper(n, record_trace=False)
        assert run.cycles == 2 * ((1 << (n - 2)) + 1) + 1
        assert run.cycles == engine.cx_cycles(n)
        assert run.pairs_processed == 1 << (n - 2)
    # closed forms up to the 30-qubit ceiling
    for n in range(2, 31):
        assert engine.cx_cycles(n) == 2 * ((1 << (n - 2)) + 1) + 1
        assert engine.cx_cycles_legacy(n) == 5 * (1 << (n - 2))
    # speedup ratio converges to 2.5 within 1% by n = 12
    for n in range(12, 31):
        ratio = engine.cx_cycles_legacy(n) / engine.cx_cycles(n)
        assert abs(ratio - 2.5) / 2.5 < 0.01
    report(1, "CX cycle exactness")


def test_criterion_2_qft17_table_reproduction():
    q17 = circuits.qft(17)
    total, n_cx, n_single = circuits.gate_count(q17)
    assert total == 721
    assert (n_cx, n_single) == (296, 425)

    value = perfmodel.ngs(9.66e-2, 721, 17)
    assert abs(value - 1.02e-9) / 1.02e-9 <= 0.01

    rep = engine.cycle_report(q17)
    est = perfmodel.estimate_time(rep, 17)
    assert abs(est.total_s - 9.66e-2) / 9.66e-2 <= 0.15
    report(2, "QFT-17 gate count, NGS and modeled time")


def test_criterion_3_fixed_point_vs_oracle_qft():
    # measured on first run: worst fidelity 0.99999991 (n=12), worst
    # aligned MSE 2.2e-18 (n=16); thresholds tightened accordingly
    measured_fidelity_floor = 1.0 - 1e-6
    measured_mse_ceiling = 1e-15
    for n in (4, 8, 12, 16):
        q = circuits.qft(n)
        sv, _ = engine.run_circuit(state.init_basis(n, 0), q)
        ref = oracle.ref_run(q, oracle.basis_state(n, 0))
        m = oracle.metrics(ref, sv)
        assert m.fidelity >= 0.9999, n
        assert m.mse_aligned <= 1e-8, n
        assert m.fidelity >= measured_fidelity_floor, n
        assert m.mse_aligned <= measured_mse_ceiling, n
    report(3, "QFT fidelity/MSE vs oracle at n=4,8,12,16")


def test_criterion_4_brute_force_equivalence():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        gates = int(rng.integers(1, 31))
        c = random_circuit(n, gates, rng)
        init = oracle.basis_state(n, int(rng.integers(0, 1 << n)))
        a = oracle.ref_run(c, init)
        b = oracle.ref_run_matrix(c, init)
        assert np.abs(a.amps - b.amps).max() < 1e-12
    report(4, "gate-by-gate vs operator-product equivalence, 100 circuits")


def test_criterion_5_decomposition_correctness():
    rng = np.random.default_rng(101)

    def unitary(ops, phase):
        return oracle.circuit_unitary(
            gateset.Circuit(n=2, ops=list(ops), global_phase=phase))

    for _ in range(50):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        control, target = (0, 1) if rng.integers(2) else (1, 0)

        ops, phase = gateset.decompose_cp(theta, control, target)
        target_cp = np.eye(4, dtype=complex)
        target_cp[-1, -1] = np.exp(1j * theta)   # symmetric in c/t
        assert oracle.equal_up_to_phase(unitary(ops, phase), target_cp, 1e-12)
        assert len(ops) == 5

        swap_ops = gateset.decompose_swap(control, target)
        target_swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert oracle.equal_up_to_phase(unitary(swap_ops, 0.0), target_swap, 1e-12)

        ops, phase = gateset.decompose_crx(theta, control, target)
        m = gateset.matrix_of("RX", theta)
        target_crx = np.eye(4, dtype=complex)
        rows = [i for i in range(4) if (i >> control) & 1]
        for a, ra in enumerate(rows):
            for b, rb in enumerate(rows):
                target_crx[ra, rb] = m[(ra >> target) & 1, (rb >> target) & 1]
        assert oracle.equal_up_to_phase(unitary(ops, phase), target_crx, 1e-12)
    report(5, "CP/SWAP/CRX decompositions vs 4x4 targets, 50 angles")


def test_criterion_6_memory_policy():
    for n in range(2, 20):
        assert perfmodel.memory_mode(n) == "BRAM"
    for n in range(20, 31):
        assert perfmodel.memory_mode(n) == "HBM"
    with pytest.raises(CapacityError):
        perfmodel.memory_mode(31)

    transfer = {}
    for n in range(17, 24):
        est = perfmodel.estimate_time(engine.cycle_report(circuits.qft(n)), n)
        transfer[n] = est.transfer_s
    assert all(transfer[n] == 0.0 for n in range(17, 20))
    assert all(transfer[n] > 0.0 for n in range(20, 24))
    report(6, "BRAM/HBM policy and transfer discontinuity at n=20")


def test_criterion_7_engine_invariants():
    rng = np.random.default_rng(102)

    # CX swap purity: raw multiset is preserved bit-exactly
    for _ in range(10):
        n = int(rng.integers(2, 9))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sv = state.from_amplitudes(n, amps / np.linalg.norm(amps))
        before = sorted(zip(sv.re.tolist(), sv.im.tolist()))
        c, t = rng.choice(n, size=2, replace=False)
        engine.apply_cx(sv, int(c), int(t))
        assert sorted(zip(sv.re.tolist(), sv.im.tolist())) == before

    # norm drift stays within the stated bound
    for n in (4, 7, 10):
        gates = 100
        circuit = random_circuit(n, gates, rng)
        sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
        eps = gates * (1 << n) * 2.0 ** -28
        assert 1 - eps <= sv.norm_sq() <= 1 + eps

    # bit-identical results across 1/2/4/8 workers at 12 qubits
    for trial in range(3):
        circuit = random_circuit(12, 30, rng)
        outputs = []
        for workers in (1, 2, 4, 8):
            sv, _ = engine.run_circuit(state.init_basis(12, 0), circuit,
                                       workers=workers)
            outputs.append((sv.re, sv.im))
        for re, im in outputs[1:]:
            assert np.array_equal(re, outputs[0][0])
            assert np.array_equal(im, outputs[0][1])
    report(7, "swap purity, norm drift, worker determinism")


def test_criterion_8_qft20_functional_run():
    # full 30-qubit device runs and CPU/GPU wall-clock comparisons are
    # out of reach on a desk machine; this documents the required
    # 20-qubit functional run instead
    start = time.perf_counter()
    q20 = circuits.qft(20)
    sv = state.init_basis(20, 0, max_qubits=20)
    sv, rep = engine.run_circuit(sv, q20)
    assert rep.mem_mode == "HBM"
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"20-qubit run took {elapsed:.0f}s"

    gates = len(q20.ops)
    eps = gates * (1 << 20) * 2.0 ** -28
    assert 1 - eps <= sv.norm_sq() <= 1 + eps
    # QFT of |0..0> is uniform: magnitudes within a few ULP of 2^-10
    mags = np.abs(sv.to_complex())
    assert np.abs(mags - 2.0 ** -10).max() < 1e-6
    est = perfmodel.estimate_time(rep, 20)
    assert est.transfer_s > 0
    report(8, f"QFT-20 functional run in {elapsed:.1f}s (< 30 min)")
