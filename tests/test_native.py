"""Building, caching and falling back from the native kernels.

The loader in `fxp` builds `kernels.c` once per process, on the first
kernel call, into a cache directory; any failure leaves the numpy bodies
in use without a message. These tests point the loader at other
compilers and caches and reset what it remembers.
"""

import ast
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hpqe import cli, fxp

from helpers import PORTABLE_FLAG

SRC = Path(fxp.__file__).resolve().parents[1]
ROOT = SRC.parent
OUTPUTS = ("state.bin", "cycles.json", "time.json")
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def reset_loader(monkeypatch, cache: Path, cc: str = fxp.NATIVE_CC) -> None:
    monkeypatch.setattr(fxp, "NATIVE_CACHE", cache)
    monkeypatch.setattr(fxp, "NATIVE_CC", cc)
    monkeypatch.setattr(fxp, "_native", [])


def run_qft8(out: Path) -> dict:
    assert cli.main(["run", "--gen", "qft", "--n", "8", "--init", "5",
                     "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}


def python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)


class TestFallback:
    @pytest.mark.parametrize("case", ("missing compiler", "unwritable cache"))
    def test_run_falls_back_silently(self, case, tmp_path, monkeypatch, capsys):
        want = run_qft8(tmp_path / "default")
        capsys.readouterr()
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        if case == "missing compiler":
            reset_loader(monkeypatch, tmp_path / "cache", cc=str(tmp_path / "no-such-cc"))
        else:
            reset_loader(monkeypatch, blocker / "cache")   # its parent is a file
        assert run_qft8(tmp_path / "fallback") == want
        assert fxp.native_kernels() is None
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())

    def test_unloadable_library_falls_back(self, tmp_path, monkeypatch):
        def build_garbage(path):
            path.parent.mkdir(parents=True)
            path.write_bytes(b"not a shared library")
            return True

        reset_loader(monkeypatch, tmp_path / "cache")
        monkeypatch.setattr(fxp, "_build_native", build_garbage)
        assert fxp.native_kernels() is None

    def test_loader_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        reset_loader(monkeypatch, tmp_path / "cache")
        monkeypatch.setattr(fxp, "_load_native", lambda: calls.append(1))
        assert fxp.native_kernels() is None
        assert fxp.native_kernels() is None
        assert calls == [1]


class TestCache:
    def test_build_then_reuse_in_new_process(self, tmp_path, monkeypatch):
        if shutil.which(fxp.NATIVE_CC) is None:
            pytest.skip(f"no C compiler {fxp.NATIVE_CC!r} on this host")
        cache = tmp_path / "cache"
        reset_loader(monkeypatch, cache)
        if fxp.native_kernels() is None:
            pytest.skip("the native kernels cannot be built or loaded on this host")
        built = list(cache.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"    # no temporary left
        assert built[0].stat().st_mode & 0o555 == 0o555          # loadable by all users
        stamp = built[0].stat().st_mtime_ns
        # a new process without any compiler still gets the library
        code = (f"import sys; from pathlib import Path; from hpqe import fxp; "
                f"fxp.NATIVE_CACHE = Path({str(cache)!r}); "
                f"fxp.NATIVE_CC = {str(tmp_path / 'no-such-cc')!r}; "
                f"sys.exit(0 if fxp.native_kernels() is not None else 3)")
        proc = python(code)
        assert proc.returncode == 0, proc.stderr
        assert list(cache.iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def test_build_prunes_stale_libraries(self, tmp_path, monkeypatch):
        # a library of an earlier source goes; another build's temporary stays
        if shutil.which(fxp.NATIVE_CC) is None:
            pytest.skip(f"no C compiler {fxp.NATIVE_CC!r} on this host")
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / "kernels-0000000000000000.so"
        stale.write_bytes(b"an earlier build")
        pending = cache / "tmpk2x9q_1a.so"
        pending.write_bytes(b"")
        reset_loader(monkeypatch, cache)
        if fxp.native_kernels() is None:
            pytest.skip("the native kernels cannot be built or loaded on this host")
        libs = sorted(cache.glob("kernels-*.so"))
        assert len(libs) == 1 and libs[0] != stale
        assert sorted(cache.iterdir()) == sorted([libs[0], pending])

    def test_concurrent_builds_do_not_collide(self, tmp_path):
        if shutil.which(fxp.NATIVE_CC) is None:
            pytest.skip(f"no C compiler {fxp.NATIVE_CC!r} on this host")
        cache = tmp_path / "cache"
        code = (f"import sys; from pathlib import Path; from hpqe import fxp; "
                f"fxp.NATIVE_CACHE = Path({str(cache)!r}); "
                f"sys.exit(0 if fxp.native_kernels() is not None else 3)")
        procs = [subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=ENV)
                 for _ in range(2)]
        codes = [p.wait(timeout=120) for p in procs]
        assert codes == [0, 0]
        built = list(cache.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"

    def test_import_builds_nothing(self):
        proc = python("import sys; import hpqe, hpqe.cli, hpqe.engine; from hpqe import fxp; "
                      "sys.exit(0 if fxp._native == [] else 3)")
        assert proc.returncode == 0, proc.stderr


class TestOneDoor:
    # fxp.Banks is the only code that calls the native library, and every
    # entry point kernels.c defines is declared to ctypes with its
    # parameters: a renamed or reshaped entry fails here, not at run time

    def test_only_banks_calls_the_library(self):
        # every use of native_kernels, and every hpqe_* attribute outside
        # the loader's declarations, by module and top-level definition
        calls, entries = set(), set()
        for path in (SRC / "hpqe").glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name)
                            else node.attr if isinstance(node, ast.Attribute) else "")
                    where = (path.name, getattr(top, "name", None))
                    if name == "native_kernels" and where != ("fxp.py", "native_kernels"):
                        calls.add(where)
                    if name.startswith("hpqe_") and where != ("fxp.py", "_load_native"):
                        entries.add(where)
        assert calls == entries == {("fxp.py", "Banks")}

    def test_entry_points_match_argtypes(self):
        source = fxp.NATIVE_SOURCE.read_text(encoding="utf-8")
        defined = {name: len(params.split(",")) for name, params in
                   re.findall(r"^void (hpqe_\w+)\(([^)]*)\)", source, re.M)}
        declared = {name: len(types.split(",")) for name, types in
                    re.findall(r"lib\.(hpqe_\w+)\.argtypes = \[([^\]]*)\]",
                               inspect.getsource(fxp._load_native))}
        assert defined == declared
        assert set(defined) == {"hpqe_pair_banks", "hpqe_diag", "hpqe_cx"}


class TestWarnings:
    @pytest.mark.parametrize("extra", ((), (PORTABLE_FLAG,)), ids=("host", "portable"))
    def test_builds_without_warnings(self, extra, tmp_path):
        # the library as fxp builds it, and without its vector body
        if shutil.which(fxp.NATIVE_CC) is None:
            pytest.skip(f"no C compiler {fxp.NATIVE_CC!r} on this host")
        proc = subprocess.run([fxp.NATIVE_CC, *fxp.NATIVE_FLAGS, "-Wall", "-Wextra", "-Werror",
                               *extra, "-o", str(tmp_path / "kernels.so"),
                               str(fxp.NATIVE_SOURCE)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestSanitizers:
    # kernels.c built with AddressSanitizer and UndefinedBehaviorSanitizer
    # runs every entry point through Banks on arrays with no slack words
    # (drive_banks.py): a read or write outside the arrays, or a product
    # that overflows int64, ends the child with a report
    @pytest.mark.parametrize("extra", ((), (PORTABLE_FLAG,)), ids=("host", "portable"))
    def test_kernels_run_clean(self, extra, tmp_path):
        if shutil.which(fxp.NATIVE_CC) is None:
            pytest.skip(f"no C compiler {fxp.NATIVE_CC!r} on this host")
        runtime = subprocess.run([fxp.NATIVE_CC, "-print-file-name=libasan.so"],
                                 capture_output=True, text=True, timeout=60).stdout.strip()
        if not os.path.isabs(runtime):
            pytest.skip(f"{fxp.NATIVE_CC!r} has no AddressSanitizer runtime")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("drive_banks.py")),
             str(tmp_path / "cache"), "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all", *extra],
            cwd=ROOT, env=dict(ENV, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0"),
            capture_output=True, text=True, timeout=300)
        if proc.returncode == 77:
            pytest.skip("the sanitized kernels cannot be built or preloaded on this host")
        assert proc.returncode == 0, proc.stderr[-4000:]


class TestPackaging:
    def test_source_ships_as_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        patterns = doc["tool"]["setuptools"]["package-data"]["hpqe"]
        assert any(Path(fxp.NATIVE_SOURCE.name).match(p) for p in patterns)

    def test_built_library_cannot_be_committed(self):
        if shutil.which("git") is None or not (ROOT / ".git").exists():
            pytest.skip("not a git checkout")
        lib = fxp.NATIVE_CACHE / "kernels-0123456789abcdef.so"
        proc = subprocess.run(["git", "check-ignore", "-q", str(lib.relative_to(ROOT))],
                              cwd=ROOT, capture_output=True, timeout=60)
        assert proc.returncode == 0
