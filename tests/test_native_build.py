"""The C extension module (the root pass and propagation) builds on the
first import of a cold copy of the package, once, without setuptools,
removing stale builds, and fails loudly without a compiler; its source
compiles free of warnings."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import homfactor

PACKAGE = Path(homfactor.__file__).parent


def _cold_copy(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "homfactor",
                    ignore=shutil.ignore_patterns("build", "__pycache__"))
    return src


def _run(src, code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "PATH": os.environ["PATH"]})


def test_first_import_builds_once_without_setuptools(tmp_path):
    src = _cold_copy(tmp_path)
    build = src / "homfactor" / "build"
    assert not build.exists()
    first = _run(src, "import sys, homfactor.solver; "
                      "print(sorted({'setuptools', 'distutils'} & set(sys.modules)))")
    assert first.returncode == 0, first.stderr
    assert first.stdout == "[]\n"
    (library,) = build.glob("*/_native_ext.*")
    assert [p.name for p in build.iterdir()] == [library.parent.name]  # no scratch left
    stamp = library.stat().st_mtime_ns
    # a second import loads the library it finds and starts no compiler
    second = _run(src, "import subprocess\n"
                       "def refuse(*args, **kwargs): raise AssertionError('rebuilt')\n"
                       "subprocess.run = subprocess.Popen = refuse\n"
                       "import homfactor.solver\n"
                       "from homfactor.encodings import encode_semigroup\n"
                       "from homfactor.graphs import complete_graph\n"
                       "x, _ = encode_semigroup(complete_graph(3))\n"
                       "print(homfactor.solver.decide_retraction(x, x) is not None)")
    assert second.returncode == 0, second.stderr
    assert second.stdout == "True\n"
    assert library.stat().st_mtime_ns == stamp


def test_a_build_removes_stale_builds_but_not_a_rivals_scratch(tmp_path):
    src = _cold_copy(tmp_path)
    build = src / "homfactor" / "build"
    stale, rival = build / "0123456789abcdef", build / ".tmp-rival"
    for d in (stale, rival):
        d.mkdir(parents=True)
        (d / "_native_ext.so").write_bytes(b"")
    done = _run(src, "import homfactor.solver")
    assert done.returncode == 0, done.stderr
    (library,) = (p for p in build.glob("*/_native_ext.*") if p.parent != rival)
    assert sorted(p.name for p in build.iterdir()) == sorted([library.parent.name, rival.name])
    assert (rival / "_native_ext.so").exists()


def test_a_missing_compiler_is_an_import_error_that_names_it(tmp_path):
    src = _cold_copy(tmp_path)
    done = _run(src, "import shutil\n"
                     "shutil.which = lambda *args, **kwargs: None\n"
                     "import homfactor")
    assert done.returncode == 1
    assert "ImportError: homfactor builds _native.c on first import and needs a C compiler, " \
           "but no 'cc' is on PATH" in done.stderr
    assert not list((src / "homfactor").glob("build/*/_native_ext.*"))


def test_the_source_compiles_without_warnings():
    done = subprocess.run(["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           "-I" + sysconfig.get_paths()["include"], str(PACKAGE / "_native.c")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
