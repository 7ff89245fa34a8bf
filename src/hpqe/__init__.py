"""Bit-exact Q2.30 state-vector emulator with an analytic timing model."""

from .fxp import CFx, fx_add, fx_mul, fx_sub, cfx_add, cfx_mul, quantize, su_eval, to_real
from .perfmodel import (CapacityError, PerfConfig, TimeEstimate, estimate_time,
                        memory_mode, ngs, transfer_overhead)
from .state import SegmentAddress, StateVector, init_basis, segment_of
from .gateset import Circuit, GateOp, decompose_cp, decompose_crx, decompose_swap, matrix_of
from .engine import (CycleReport, access_mode, apply_cx, apply_single, cx_cycles,
                     cx_cycles_legacy, cycle_report, run_circuit, simulate_swapper)
from .circuits import gate_count, qft, template
from .oracle import Metrics, RefState, SizeError, fidelity, mse, ref_run, ref_run_matrix

__version__ = "0.1.0"
