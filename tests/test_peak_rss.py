"""tools/peak_rss.py prints the peak RSS of one CLI command in a fresh
process next to the interpreter's baseline."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
spec = importlib.util.spec_from_file_location("peak_rss", TOOL)
peak_rss = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_rss)


def test_prints_peak_and_baseline(capsys):
    assert peak_rss.main(["compare --gen qft --n 4"]) == 0
    line = capsys.readouterr().out
    m = re.fullmatch(r"peak (\S+) MiB  baseline (\S+) MiB  above baseline (\S+) MiB"
                     r"  \(compare --gen qft --n 4\)\n", line)
    assert m, line
    peak, baseline, above = map(float, m.groups())
    assert peak > 0 and baseline > 0
    assert abs(peak - baseline - above) < 0.11


def test_failed_command_exits_1(capsys):
    assert peak_rss.main(["run --gen chain --n 3 --layers -1"]) == 1
    assert "exited 4" in capsys.readouterr().err
