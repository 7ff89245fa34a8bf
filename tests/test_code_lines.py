"""tools/code_lines.py counts the non-blank lines that are neither
comments nor docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

PY = '''"""Module docstring,
over two lines."""

import os   # code with a comment counts

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring:
a string that is a value"""

    def f(self):
        """Function
        docstring."""
        # comment
        return {
            "a": 1,    # inside a call
        }
'''
# code: import, class, x = (2 lines), def, return {, "a", }
PY_CODE = 8

C = '''/* header comment
 * over lines */

#include <stdint.h>

// a line comment
static int f(int x)   /* trailing */
{
    /* one */ return x; /* two */
    const char *s = "/* not a comment */ // nor this";

    /* a comment
       that ends on a code line */ int y = 0;
    return y + (int)s[0];   // trailing
}
'''
# code: include, signature, {, return, s =, int y, return, }
C_CODE = 8


def test_counts_code_lines(tmp_path, capsys):
    py, c = tmp_path / "a.py", tmp_path / "k.c"
    py.write_text(PY)
    c.write_text(C)
    assert code_lines.count(py) == PY_CODE
    assert code_lines.count(c) == C_CODE
    assert code_lines.main([str(py), str(c)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == [str(PY_CODE), str(C_CODE),
                                                  str(PY_CODE + C_CODE)]
    assert out[-1].split()[1] == "total"


def test_default_is_the_package(capsys):
    assert code_lines.main([]) == 0
    names = [Path(line.split()[1]).name for line in capsys.readouterr().out.splitlines()]
    assert names[-2:] == ["kernels.c", "total"] and "engine.py" in names
