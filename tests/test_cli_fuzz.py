"""`cli.main` on malformed circuit text and config JSON.

Every input ends in a documented exit: 0, argparse's 2, 3 (capacity) or
4 (input), and a 3 or a 4 prints exactly one stderr line of at most
`cli.ERROR_LINE_MAX` characters, however long the input. No exception
escapes `cli.main`, and every JSON file a successful run writes parses
without NaN or Infinity. `--max-qubits 10` keeps every state small.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from hpqe import cli, perfmodel

FIELDS = tuple(f.name for f in dataclasses.fields(perfmodel.PerfConfig))
# nested past any recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def run_main(argv, files: dict):
    """cli.main(argv) in a fresh directory holding `files` (name ->
    bytes), where "{dir}" in argv names that directory, and checks the
    outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([a.format(dir=tmp) for a in argv] + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        check_outcome(code, err.getvalue(), out)


def check_outcome(code, err: str, out: Path) -> None:
    assert code in (0, 2, 3, 4), (code, err)
    if code in (3, 4):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err) <= cli.ERROR_LINE_MAX + 1, err
    if code == 0:
        for path in out.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=no_constant)


QUBIT_TEXT = st.sampled_from(("0", "1", "2", "3", "9", "10", "11", "-1", "-0", "99999999999",
                              "1" * 5000, "1.5", "nan", "inf", "-inf", "1e400", "0x1", ""))
ANGLE_TEXT = st.one_of(st.sampled_from(("0", "0.5", "-3.1", "1e308", "1e400", "-1e400",
                                        "nan", "-nan", "inf", "-inf", "1e-320", "abc")),
                       st.floats().map(repr))
WORD = st.one_of(QUBIT_TEXT, ANGLE_TEXT,
                 st.sampled_from(("H", "S", "RX", "RY", "RZ", "CX", "QUBITS", "h", "cx",
                                  "CCX", "#", "global_phase")))


def gate_line(kind, operands):
    return " ".join((kind, *operands))


LINES = st.one_of(
    st.builds(gate_line, st.sampled_from(("H", "S")), st.lists(QUBIT_TEXT, min_size=1, max_size=1)),
    st.builds(lambda k, q, a: f"{k} {q} {a}", st.sampled_from(("RX", "RY", "RZ")),
              QUBIT_TEXT, ANGLE_TEXT),
    st.builds(gate_line, st.just("CX"), st.lists(QUBIT_TEXT, min_size=2, max_size=2)),
    st.builds(lambda q: f"QUBITS {q}", QUBIT_TEXT),
    st.builds(lambda a: f"# global_phase {a}", ANGLE_TEXT),
    st.lists(WORD, max_size=5).map(" ".join),          # wrong or extra operands
    st.text(max_size=20).map(lambda t: "# " + t),
    st.text(max_size=20),
).map(str.encode)
STRAY = st.binary(max_size=12)                        # not always UTF-8


@FUZZ
@given(header=st.sampled_from((b"QUBITS 3", b"QUBITS 10", b"")),
       lines=st.lists(st.one_of(LINES, STRAY), max_size=12))
@example(header=b"QUBITS 2", lines=[b"RZ 0 1e400"])
@example(header=b"QUBITS 2", lines=[b"RX 0 nan"])
@example(header=b"QUBITS 2", lines=[b"H 0", b"QUBITS 2"])
@example(header=b"QUBITS 2", lines=[b"G" * 5000 + b" 0"])
@example(header=b"QUBITS 2", lines=[b"RZ 0 " + b"1" * 4999 + b"x"])
@example(header=b"QUBITS 2", lines=[b"# global_phase " + b"1" * 4999 + b"x"])
def test_circuit_text(header, lines):
    text = b"\n".join([header, *lines]) + b"\n"
    run_main(["run", "--circuit", "{dir}/c.qc", "--max-qubits", "10"], {"c.qc": text})


VALUES = st.one_of(
    st.sampled_from(("0", "-1", "-0.5", str(2 ** 53 - 1), str(2 ** 53), str(2 ** 53 + 1),
                     "1" + "0" * 400, "-1" + "0" * 400, "1e400", "5e-324", "1e-310",
                     "0.999", "1", "1e308", "NaN", "Infinity", "-Infinity", "true",
                     "false", "null", '"250e6"', "[]", "[1]", "{}", '{"freq_hz": 1}',
                     "20", "29", "30", DEEP)),
    st.integers(-10, 2 ** 60).map(str),
    st.floats().map(lambda x: json.dumps(x)),
    st.text(max_size=10).map(json.dumps),
)
KEYS = st.one_of(st.sampled_from(FIELDS), st.text(max_size=10))


@FUZZ
@given(doc=st.one_of(
    st.dictionaries(KEYS, VALUES, max_size=4).map(
        lambda d: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in d.items()) + "}"),
    VALUES))
@example(doc='{"freq_hz": 1e-310}')
@example(doc='{"freq_hz": 5e-324}')
@example(doc=DEEP)
@example(doc='{"freq_hz": %s}' % ("[" * 900 + "]" * 900))
@example(doc='{"hbm_ports": "%s"}' % ("x" * 5000))
def test_config_json(doc):
    run_main(["run", "--gen", "qft", "--n", "3", "--config", "{dir}/c.json",
              "--max-qubits", "10"], {"c.json": doc.encode()})
