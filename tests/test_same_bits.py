"""tools/same_bits.py digests the output files of CLI commands; a short
list of them (n <= 8) gives one manifest on every kernel body and on
every run."""

import importlib.util
from pathlib import Path

import pytest

from hpqe import engine, fxp, gateset

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
spec = importlib.util.spec_from_file_location("same_bits", TOOL)
same_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bits)

SHORT = (
    "run --gen qft --n 8 --init 5 --workers 2",
    "compare --gen chain --n 8 --layers 3 --workers 2 --seed 7",
    "compare --gen all_to_all --n 6 --workers 2",
    "bench --gen qft --n 1..6 --no-wall-clock",
    "bench --gen chain --n 2..5 --layers 2 --no-wall-clock --format json",
)
FILES = 3 + 1 + 1 + 2 + 2


def test_manifest_lines():
    lines = same_bits.manifest(SHORT, body="numpy")
    assert len(lines) == FILES
    digest, name = lines[0].split("  ")
    assert len(digest) == 64 and name == f"{SHORT[0]}/cycles.json"
    assert [line.split("  ")[1] for line in lines[-2:]] == [
        f"{SHORT[-1]}/bench.json", f"{SHORT[-1]}/cx_compare.json"]


def test_native_and_numpy_bodies_give_one_manifest():
    if fxp.native_kernels() is None:
        pytest.skip("the native kernels cannot be built or loaded on this host")
    native = same_bits.manifest(SHORT, body="native")
    assert native == same_bits.manifest(SHORT, body="numpy")
    assert native == same_bits.manifest(SHORT, body="native")


def test_body_is_restored():
    before = fxp.native_kernels
    same_bits.manifest(SHORT[:1], body="numpy")
    assert fxp.native_kernels is before


def test_failed_command_is_an_error():
    with pytest.raises(RuntimeError, match="exited 4"):
        same_bits.manifest(("run --gen chain --n 3 --layers -1",), body="numpy")


def test_circuit_file_command():
    # a command that names a circuit of CIRCUITS reads the text the tool
    # writes: the swap-back circuit runs, and gives one manifest on the
    # numpy and native bodies
    command = next(c for c in same_bits.COMMANDS if "--circuit" in c)
    lines = same_bits.manifest((command,), body="numpy")
    assert [line.split("  ")[1] for line in lines] == [
        f"{command}/{name}" for name in ("cycles.json", "state.bin", "time.json")]
    if fxp.native_kernels() is not None:
        assert same_bits.manifest((command,), body="native") == lines


def test_real_pairs_command():
    # H, RY(2 pi) and RY(0.7) on each of 18 qubits: real matrices, which
    # the vector body runs without imaginary products, RY(2 pi)'s m00
    # -2^30 among them; the native bytes are the numpy ones
    command = next(c for c in same_bits.COMMANDS if "real_pairs.txt" in c)
    text = same_bits.CIRCUITS["real_pairs.txt"]
    assert text.count("\nH ") == text.count(" 6.283185307179586\n") == 18
    assert gateset.single("RY", 0, 6.283185307179586).matrix == (
        (-fxp.SCALE, 0), (0, 0), (0, 0), (-fxp.SCALE, 0))
    lines = same_bits.manifest((command,), body="numpy")
    assert len(lines) == 3
    if fxp.native_kernels() is not None:
        assert same_bits.manifest((command,), body="native") == lines


def test_map_rule_command():
    # the CXs of the controlled phases cancel in the map, so they free no
    # qubit, and the SWAP frees qubit 5 at the next dense gate while
    # qubit 0 stays free: the pair and diag calls cover 76 words of 2^18,
    # and the native bytes are the numpy ones
    command = next(c for c in same_bits.COMMANDS if "map_rule.txt" in c)
    circuit = gateset.circuit_from_text(same_bits.CIRCUITS["map_rule.txt"])
    _, calls = engine._schedule(circuit.ops, circuit.n, 131112)
    assert sum(1 << c[1] for c in calls if c[0] != "cx") == 76
    lines = same_bits.manifest((command,), body="numpy")
    assert len(lines) == 3
    if fxp.native_kernels() is not None:
        assert same_bits.manifest((command,), body="native") == lines


def test_ghz_command():
    # H 0 frees qubit 0, so its pair call covers a 2-word window, and the
    # 19 CXs of the chain stay deferred to the end of the run, where they
    # are flushed over the whole state; the native bytes are the numpy ones
    command = next(c for c in same_bits.COMMANDS if "ghz20.txt" in c)
    circuit = gateset.circuit_from_text(same_bits.CIRCUITS["ghz20.txt"])
    assert (len(circuit.ops), circuit.n) == (20, 20)
    _, calls = engine._schedule(circuit.ops, circuit.n, 0)
    assert [c[:2] for c in calls] == [("pair", 1)] + [("cx", q) for q in range(19)]
    lines = same_bits.manifest((command,), body="numpy")
    assert len(lines) == 3
    if fxp.native_kernels() is not None:
        assert same_bits.manifest((command,), body="native") == lines


def test_butterfly_command():
    # H, RY(pi/2) and RY(5 pi/2) on each of 18 qubits have the words (a,
    # b, a, -b) with |a|, |b| < 2^30, which the vector body runs as a
    # butterfly on qubits 4 and up; RY(0.7) has not; the native bytes
    # are the numpy ones
    command = next(c for c in same_bits.COMMANDS if "butterfly.txt" in c)
    circuit = gateset.circuit_from_text(same_bits.CIRCUITS["butterfly.txt"])
    assert (len(circuit.ops), circuit.n) == (72, 18)
    for op in circuit.ops:
        (a, ai), (b, bi), c, d = op.matrix
        fly = (c, d) == ((a, 0), (-b, 0)) and ai == bi == 0 and max(abs(a), abs(b)) < fxp.SCALE
        assert fly == (op.angle != 0.7), op
    assert {op.target for op in circuit.ops} == set(range(18))
    lines = same_bits.manifest((command,), body="numpy")
    assert len(lines) == 3
    if fxp.native_kernels() is not None:
        assert same_bits.manifest((command,), body="native") == lines
