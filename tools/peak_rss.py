"""Print the peak resident memory of one hpqe CLI command.

usage: python tools/peak_rss.py "<cli argv>"

The command runs through `hpqe.cli.main`, from the src/ of the checkout
that holds this file, in a fresh Python process whose outputs go to a
temporary directory. A second fresh process imports the CLI and runs
nothing: its peak is the interpreter's baseline. The tool prints both
peaks (`ru_maxrss`) in MiB and the command's peak above the baseline:

    python tools/peak_rss.py "compare --gen chain --n 20 --layers 3"

It exits 1 if the command exits nonzero. It guards nothing: a command
whose state does not fit in the host's memory is not refused.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the child: run the CLI on its arguments (none: only import it), its
# stdout silenced, then print its peak in KiB
CHILD = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from hpqe import cli
argv = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def peak_mib(argv) -> float:
    """The peak RSS, in MiB, of a fresh process running the CLI on argv
    (an empty argv only imports it); RuntimeError if it exits nonzero."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)!r} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return int(done.stdout.split()[-1]) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", help="the CLI arguments, as one string")
    args = parser.parse_args(argv)
    try:
        baseline = peak_mib([])
        with tempfile.TemporaryDirectory() as out:
            peak = peak_mib([*args.command.split(), "--out", out])
    except RuntimeError as exc:
        print(f"peak_rss: {exc}", file=sys.stderr)
        return 1
    print(f"peak {peak:.1f} MiB  baseline {baseline:.1f} MiB  "
          f"above baseline {peak - baseline:.1f} MiB  ({args.command})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
