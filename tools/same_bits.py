"""Print a digest of every output file of a fixed list of CLI commands.

usage: python tools/same_bits.py [--body native|portable|numpy]

Each command of COMMANDS runs through `hpqe.cli.main`, from the src/
of the checkout that holds this file, into a fresh temporary directory.
A command that names a circuit file of CIRCUITS reads the fixed text
that the tool writes into a temporary directory of its own.
The tool prints one `<sha256>  <command>/<file>` line per output file.
Two checkouts compute the same bits when their manifests are equal, so
copy this file into each checkout and diff the outputs:

    python tools/same_bits.py > new.txt
    python /path/to/other/checkout/tools/same_bits.py > old.txt
    diff old.txt new.txt

`--body` picks the kernel body, as the tests do: `native` (the default)
is the library built from kernels.c, `portable` the same source built
with -DHPQE_PORTABLE (no AVX-512F body) into a temporary cache, and
`numpy` the numpy bodies alone. A native or portable manifest exits 1 if
the library cannot be built or loaded, since the numpy bodies would run
in its place unnoticed.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpqe import cli, fxp

BODIES = ("native", "portable", "numpy")
PORTABLE_FLAG = "-DHPQE_PORTABLE"

COMMANDS = (
    "run --gen qft --n 20 --init 5 --workers 1",
    "run --gen qft --n 20 --init 5 --workers 2",
    "compare --gen chain --n 20 --layers 3 --workers 2 --seed 0",
    "compare --gen chain --n 20 --layers 3 --workers 2 --seed 7",
    "compare --gen all_to_all --n 8 --workers 2",
    # the oracle's clusters: zero-heavy diagonal gates taking the full
    # sum, and clusters of CX alone
    "compare --gen qft --n 17 --init 5 --workers 1",
    "compare --gen all_to_all --n 16 --workers 1",
    # the alternating template's clusters
    "compare --gen alternating --n 18 --layers 2 --workers 1",
    "run --gen rotation --n 18 --layers 3 --workers 8",
    # the oracle's one block, from 2^13 to 2^15 amplitudes
    "compare --gen qft --n 15 --init 5 --workers 1",
    "compare --gen qft --n 14 --init 3 --workers 1",
    "compare --gen chain --n 15 --layers 3 --workers 1 --seed 3",
    "compare --gen alternating --n 13 --layers 2 --workers 1",
    "bench --gen qft --n 1..14 --no-wall-clock",
    "bench --gen chain --n 2..12 --layers 2 --no-wall-clock --format json",
    # sparse states: from the basis state 2^17 - 1 each piece of a
    # stretch holds a few nonzero words, and the first rotation column
    # of a template starts from a state with one
    "run --gen qft --n 17 --init 131071 --workers 4",
    "run --gen alternating --n 16 --layers 1 --workers 1",
    # the engine's qubit layout and window: QFT from basis states with
    # qubits set across the whole index, split at a window smaller than
    # the state, and under the oracle
    "run --gen qft --n 19 --init 349525 --workers 2",
    "run --gen qft --n 17 --init 65536 --workers 8",
    "compare --gen qft --n 16 --init 43690 --workers 1",
    # the end-of-run swap-back: a circuit that frees its qubits out of
    # order and ends on a deferred map that is not the identity; qubits
    # 0 and 12 of |4097> are fixed at 1, so CXs from them move the window
    "run --circuit swap_back.txt --init 4097 --workers 2",
    # real matrices, which the vector body runs without the imaginary
    # products: H, RY(2 pi) (m00 = -2^30) and RY(0.7) on every qubit, so
    # on pairs within a vector (qubits 0-3) and across vectors (4 and up)
    "run --circuit real_pairs.txt --workers 2",
    # the free/fixed rule on the deferred map: CXs that cancel free
    # nothing, and a SWAP of a fixed value onto a free qubit frees the
    # fixed one and leaves the free one free; qubits 3, 5 and 17 of
    # |131112> are fixed at 1
    "run --circuit map_rule.txt --init 131112 --workers 2",
    # the end-of-run flush: after H 0 the window is 2 words, and the 19
    # CXs of a GHZ chain, still deferred at the end, are flushed over
    # the whole state
    "run --circuit ghz20.txt --workers 2",
)

# the circuits a command names by file name: each is written into the
# tool's temporary directory, and the command reads it there
CIRCUITS = {
    "swap_back.txt": """QUBITS 18
H 17
RZ 17 0.3
H 4
CX 17 9
RY 11 0.7
CX 4 2
S 2
RZ 0 1.1
CX 0 13
RZ 13 -0.4
H 6
RX 15 0.4
CX 9 1
RZ 1 -0.6
H 1
CX 6 16
CX 16 3
RZ 3 2.2
CX 12 5
RZ 5 0.9
""",
    "real_pairs.txt": "QUBITS 18\n" + "".join(
        gate.format(q) for gate in ("H {}\n", "RY {} 6.283185307179586\n", "RY {} 0.7\n")
        for q in range(18)),
    # H 0, then a controlled phase from the free qubit 0 onto each other
    # qubit, its two CXs cancelling in the map, then H 1; then a SWAP of
    # qubit 0 with qubit 5, diagonal gates on both, and dense gates that
    # flush the SWAP and end on a layout that is not the identity
    "map_rule.txt": "QUBITS 18\nH 0\n" + "".join(
        f"RZ 0 0.{j}\nCX 0 {j}\nRZ {j} -0.{j}\nCX 0 {j}\nRZ {j} 0.{j}\n" for j in range(1, 18))
        + "H 1\nCX 0 5\nCX 5 0\nCX 0 5\nRZ 0 0.9\nS 5\nH 2\nRZ 0 1.3\nRY 3 0.8\n",
    "ghz20.txt": "QUBITS 20\nH 0\n" + "".join(f"CX {q} {q + 1}\n" for q in range(19)),
}


@contextlib.contextmanager
def kernel_body(body: str):
    """Run the block on the named kernel body; the loader's state is
    restored after."""
    saved = fxp.NATIVE_FLAGS, fxp.NATIVE_CACHE, fxp.native_kernels, list(fxp._native)
    try:
        with tempfile.TemporaryDirectory() as cache:
            if body == "portable":
                # a cache of its own: a build deletes every other library
                # in its cache
                fxp.NATIVE_FLAGS = (*fxp.NATIVE_FLAGS, PORTABLE_FLAG)
                fxp.NATIVE_CACHE = Path(cache)
                fxp._native[:] = []
            elif body == "numpy":
                fxp.native_kernels = lambda: None
            if body != "numpy" and fxp.native_kernels() is None:
                raise RuntimeError(f"the {body} kernels cannot be built or loaded")
            yield
    finally:
        fxp.NATIVE_FLAGS, fxp.NATIVE_CACHE, fxp.native_kernels, fxp._native[:] = saved


def manifest(commands=COMMANDS, body: str = "native") -> list:
    """The `<sha256>  <command>/<file>` lines of every file the commands
    write, in command order and then file-name order."""
    lines = []
    with kernel_body(body), tempfile.TemporaryDirectory() as texts:
        for name, text in CIRCUITS.items():
            (Path(texts) / name).write_text(text, encoding="utf-8")
        for command in commands:
            argv = [str(Path(texts) / a) if a in CIRCUITS else a for a in command.split()]
            with tempfile.TemporaryDirectory() as out:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*argv, "--out", out])
                if code != 0:
                    raise RuntimeError(f"{command!r} exited {code}")
                for path in sorted(Path(out).iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {command}/{path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--body", choices=BODIES, default="native")
    args = parser.parse_args(argv)
    try:
        lines = manifest(body=args.body)
    except RuntimeError as exc:
        print(f"same_bits: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
