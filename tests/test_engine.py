import json
import math

import numpy as np
import pytest

from hpqe import engine, fxp, gateset, oracle, state
from hpqe.fxp import CFx

from helpers import random_circuit, random_ref_amplitudes


def quantized(amps):
    re = np.array([fxp.quantize(z.real) for z in amps], dtype=np.int64)
    im = np.array([fxp.quantize(z.imag) for z in amps], dtype=np.int64)
    return re, im


class TestAccessMode:
    def test_examples(self):
        assert engine.access_mode(0, 10) == engine.MODE1
        assert engine.access_mode(9, 10) == engine.MODE2
        assert engine.access_mode(7, 10) == engine.MODE2   # t = n-3 boundary
        assert engine.access_mode(6, 10) == engine.MODE1

    def test_consistent_with_segment_pairing(self):
        for n in range(3, 11):
            for t in range(n):
                i = 0
                a = state.segment_of(i, n)
                b = state.segment_of(i + (1 << t), n)
                same = (a.pea, a.pe) == (b.pea, b.pe)
                assert engine.access_mode(t, n) == (engine.MODE1 if same
                                                    else engine.MODE2)

    def test_validation(self):
        with pytest.raises(ValueError):
            engine.access_mode(0, 2)
        with pytest.raises(ValueError):
            engine.access_mode(5, 5)


class TestApplySingle:
    def test_hadamard_on_zero(self):
        sv = state.init_basis(1, 0)
        engine.apply_single(sv, gateset.single("H", 0))
        r = fxp.RAW_SQRT_HALF
        assert sv.flatten() == [CFx(r, 0), CFx(r, 0)]

    def test_rz_pi_on_one(self):
        sv = state.init_basis(1, 1)
        engine.apply_single(sv, gateset.single("RZ", 0, math.pi))
        assert sv.get(1) == CFx(0, fxp.quantize(1.0))

    def test_matches_quantized_oracle_within_one_ulp(self):
        rng = np.random.default_rng(40)
        for _ in range(120):
            n = 5
            sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
            start = sv.to_complex()
            kind = ("H", "S", "RX", "RY", "RZ")[rng.integers(0, 5)]
            angle = float(rng.uniform(0, 2 * math.pi)) if kind in ("RX", "RY", "RZ") else None
            g = gateset.single(kind, int(rng.integers(0, n)), angle)
            engine.apply_single(sv, g)
            ref = oracle.ref_run(gateset.Circuit(n=n, ops=[g]),
                                 oracle.RefState(n, start))
            qre, qim = quantized(ref.amps)
            assert np.abs(sv.re - qre).max() <= 1
            assert np.abs(sv.im - qim).max() <= 1

    def test_all_targets_all_modes(self):
        # exercise intra-segment, cross-PE, and cross-PEA paths
        rng = np.random.default_rng(41)
        n = 6
        for t in range(n):
            for kind, angle in (("H", None), ("RZ", 1.1), ("RY", 0.7), ("S", None)):
                sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
                start = sv.to_complex()
                g = gateset.single(kind, t, angle)
                engine.apply_single(sv, g)
                ref = oracle.ref_run(gateset.Circuit(n=n, ops=[g]),
                                     oracle.RefState(n, start))
                qre, qim = quantized(ref.amps)
                assert np.abs(sv.re - qre).max() <= 1, (kind, t)
                assert np.abs(sv.im - qim).max() <= 1, (kind, t)

    def test_requires_quantized_matrix(self):
        sv = state.init_basis(2, 0)
        with pytest.raises(ValueError):
            engine.apply_single(sv, gateset.GateOp(kind="H", target=0))
        with pytest.raises(ValueError):
            engine.apply_single(sv, gateset.cx(0, 1))


class TestApplyCx:
    def test_truth_table_n2(self):
        # control q1, target q0
        sv = state.init_basis(2, 2)          # |10>
        engine.apply_cx(sv, 1, 0)
        assert sv.get(3) == fxp.CFX_ONE      # -> |11>
        sv = state.init_basis(2, 1)          # |01>, control bit is 0
        engine.apply_cx(sv, 1, 0)
        assert sv.get(1) == fxp.CFX_ONE      # unchanged

    def test_pair_count_and_purity(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 7):
            sv = state.from_amplitudes(n, random_ref_amplitudes(n, rng))
            before = sorted(zip(sv.re.tolist(), sv.im.tolist()))
            moved = sv.re.copy()
            c, t = rng.choice(n, size=2, replace=False)
            engine.apply_cx(sv, int(c), int(t))
            # 2^(n-2) pairs swap, so 2^(n-1) random words change place
            assert np.count_nonzero(sv.re != moved) == 1 << (n - 1)
            after = sorted(zip(sv.re.tolist(), sv.im.tolist()))
            assert before == after           # bit-exact multiset

    def test_matches_oracle_permutation(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            amps = random_ref_amplitudes(n, rng)
            sv = state.from_amplitudes(n, amps)
            expect_re, expect_im = sv.re.copy(), sv.im.copy()
            c, t = rng.choice(n, size=2, replace=False)
            engine.apply_cx(sv, int(c), int(t))
            for i in range(1 << n):
                j = i ^ (1 << t) if (i >> c) & 1 else i
                assert sv.re[j] == expect_re[i] and sv.im[j] == expect_im[i]

    def test_cycle_formula(self):
        assert engine.cx_cycles(2) == 5
        assert engine.cx_cycles(17) == 65539 == 2 * (2 ** 15 + 1) + 1

    def test_validation(self):
        sv = state.init_basis(3, 0)
        with pytest.raises(ValueError):
            engine.apply_cx(sv, 1, 1)
        with pytest.raises(ValueError):
            engine.apply_cx(sv, 0, 3)


class TestSwapper:
    def test_n2_trace(self):
        run = engine.simulate_swapper(2)
        assert run.cycles == 5
        assert run.trace == ["Start", "IDLE", "LOAD", "STORE", "End"]

    def test_n3_cycles(self):
        assert engine.simulate_swapper(3).cycles == 7

    def test_trace_properties(self):
        for n in (2, 4, 6, 9):
            run = engine.simulate_swapper(n)
            assert run.stage_counts["IDLE"] == 1
            assert run.pairs_processed == 1 << (n - 2)
            assert run.writes_outstanding == 0
            assert run.trace[0] == "Start" and run.trace[-1] == "End"
            assert run.stage_counts["LOAD"] == run.stage_counts["STORE"]

    def test_matches_closed_form(self):
        for n in range(2, 15):
            run = engine.simulate_swapper(n, record_trace=False)
            assert run.cycles == engine.cx_cycles(n)

    def test_legacy_formula(self):
        assert engine.cx_cycles_legacy(17) == 163840
        assert engine.cx_cycles_legacy(2) == 5
        ratio = engine.cx_cycles_legacy(17) / engine.cx_cycles(17)
        assert abs(ratio - 2.5) < 0.001

    def test_pair_addresses_cover_all_swaps(self):
        n, c, t = 5, 4, 1
        run_pairs = [engine.cx_pair(k, n, c, t) for k in range(1 << (n - 2))]
        want = {(i, i | (1 << t)) for i in range(1 << n)
                if (i >> c) & 1 and not (i >> t) & 1}
        assert set(run_pairs) == want
        assert run_pairs == sorted(run_pairs)    # canonical ascending order


class TestRunCircuit:
    def test_empty_circuit(self):
        sv = state.init_basis(3, 4)
        sv, report = engine.run_circuit(sv, gateset.Circuit(n=3))
        assert sv.get(4) == fxp.CFX_ONE
        assert report.total_cycles == 0
        assert report.per_gate == []

    def test_bell_state(self):
        c = gateset.Circuit(n=2, ops=[gateset.single("H", 0), gateset.cx(0, 1)])
        sv, report = engine.run_circuit(state.init_basis(2, 0), c)
        r = fxp.RAW_SQRT_HALF
        assert sv.flatten() == [CFx(r, 0), CFx(0, 0), CFx(0, 0), CFx(r, 0)]
        assert report.total_cycles == sum(c for _, _, c in report.per_gate)

    def test_oracle_consistency_random_circuits(self):
        # error grows at most linearly in gate count; 50 ULP covers 50 gates
        rng = np.random.default_rng(44)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            gates = int(rng.integers(1, 51))
            circuit = random_circuit(n, gates, rng)
            sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
            ref = oracle.ref_run(circuit, oracle.basis_state(n, 0))
            _, _, phase = oracle.mse(sv.to_complex(), ref.amps)
            qre, qim = quantized(ref.amps * np.exp(1j * phase))
            assert np.abs(sv.re - qre).max() <= 50
            assert np.abs(sv.im - qim).max() <= 50

    def test_norm_drift_bound(self):
        rng = np.random.default_rng(45)
        for n, gates in ((4, 80), (8, 50), (10, 100)):
            circuit = random_circuit(n, gates, rng)
            sv, _ = engine.run_circuit(state.init_basis(n, 0), circuit)
            eps = gates * (1 << n) * 2.0 ** -28
            assert 1 - eps <= sv.norm_sq() <= 1 + eps

    def test_worker_determinism(self):
        rng = np.random.default_rng(46)
        circuit = random_circuit(6, 40, rng)
        base = None
        for workers in (1, 2, 4, 8):
            sv, report = engine.run_circuit(state.init_basis(6, 0), circuit,
                                            workers=workers)
            if base is None:
                base = (sv.re.copy(), sv.im.copy(), report.total_cycles)
            else:
                assert np.array_equal(sv.re, base[0])
                assert np.array_equal(sv.im, base[1])
                assert report.total_cycles == base[2]

    def test_mode2_and_pair_accounting(self):
        c = gateset.Circuit(n=4, ops=[
            gateset.single("H", 0),     # Mode1
            gateset.single("H", 3),     # Mode2 (t = n-1)
            gateset.single("RZ", 1, 0.5),   # Mode2 (t = n-3)
            gateset.cx(0, 1),
        ])
        _, report = engine.run_circuit(state.init_basis(4, 0), c)
        assert report.mode2_gate_count == 2
        assert report.cx_pairs_swapped == 4

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            engine.run_circuit(state.init_basis(3, 0), gateset.Circuit(n=4))

    def test_one_kernel_call_per_gate_with_one_worker(self, monkeypatch):
        # every single-qubit gate, in either access mode, is one call on
        # the whole state from apply_single and from one worker; w workers
        # make p = min(w, 2^(n-1)) calls of equal size that cover every pair
        calls = []
        real_scale, real_pair = fxp.scale_bank, fxp.pair_banks

        def spy_scale(c0, c1, t, re, im):
            calls.append(("scale_bank", re.size // 2, re))
            real_scale(c0, c1, t, re, im)

        def spy_pair(*args):
            calls.append(("pair_banks", args[4].size, args[4]))
            real_pair(*args)

        monkeypatch.setattr(fxp, "scale_bank", spy_scale)
        monkeypatch.setattr(fxp, "pair_banks", spy_pair)
        for n in (1, 2, 6):
            for t in range(n):
                for op in (gateset.single("RZ", t, 0.3), gateset.single("H", t)):
                    kernel = "scale_bank" if op.sparse else "pair_banks"
                    calls.clear()
                    engine.apply_single(state.init_basis(n, 0), op)
                    assert [c[:2] for c in calls] == [(kernel, 1 << (n - 1))]
                    for workers in (1, 2, 4, 8):
                        sv = state.init_basis(n, 0)
                        calls.clear()
                        engine.run_circuit(sv, gateset.Circuit(n=n, ops=[op]),
                                           workers=workers)
                        p = min(workers, 1 << (n - 1))
                        want = [(kernel, (1 << (n - 1)) // p)] * p
                        assert sorted(c[:2] for c in calls) == want, (n, t, op.kind)
                        # the pieces are views of the state that share no word
                        pieces = [c[2] for c in calls]
                        assert all(np.shares_memory(a, sv.re) for a in pieces)
                        assert not any(np.shares_memory(a, b)
                                       for i, a in enumerate(pieces) for b in pieces[:i])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_requires_quantized_matrix(self, workers):
        c = gateset.Circuit(n=3, ops=[gateset.cx(0, 1),
                                      gateset.GateOp(kind="H", target=0)])
        with pytest.raises(ValueError, match="gate 1 has no quantized matrix"):
            engine.run_circuit(state.init_basis(3, 0), c, workers=workers)


class TestCycleReport:
    def test_accounting_only_matches_execution(self):
        rng = np.random.default_rng(47)
        circuit = random_circuit(5, 30, rng)
        _, executed = engine.run_circuit(state.init_basis(5, 0), circuit)
        accounted = engine.cycle_report(circuit)
        assert accounted.per_gate == executed.per_gate
        assert accounted.total_cycles == executed.total_cycles
        assert accounted.cx_pairs_swapped == executed.cx_pairs_swapped
        assert accounted.mode2_gate_count == executed.mode2_gate_count
        assert accounted.mem_mode == executed.mem_mode

    def test_json_shape(self):
        c = gateset.Circuit(n=2, ops=[gateset.single("H", 0), gateset.cx(0, 1)])
        _, report = engine.run_circuit(state.init_basis(2, 0), c)
        doc = json.loads(report.to_json())
        assert set(doc) == {"gates", "total_cycles", "n", "mem_mode"}
        assert doc["n"] == 2
        assert doc["mem_mode"] == "BRAM"
        assert doc["total_cycles"] == report.total_cycles
        assert doc["gates"][1] == {"index": 1, "kind": "CX", "cycles": 5}
