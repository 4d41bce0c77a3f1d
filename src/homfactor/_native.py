"""The C half of homfactor: _native.c, one CPython extension module built on
first import, which does the root pass (root), the whole search and the
table checks of homfactor.algebra. An engine (engine, an Engine) compiles
the operation tables of its pairs into buffers of its own, owns its domains
as uint64 words, its trail, queue and branching frames, and propagates,
branches and resumes in C. hom(values, nb, ops) is is_homomorphism,
outside(table, n) validate_algebra's value test and restrict(n, subset,
ops) induced_subalgebra's restriction (see _native.c). All of them read
the tables one way, and check each one once: its type, its length and
every value.

The module is built from the C source next to this file by the system C
compiler (cc), run in a child process, against the running interpreter's
headers, into build/<hash>/ beside this file, where <hash> names the
source and the compile flags (the include directory among them), and it
moves into place by an atomic rename, so no process loads half a module;
a build that lands removes the builds of other sources beside it. A later
import finds it there and builds nothing. It is loaded with
importlib's extension loader. There is no pure-Python fallback: without a
C compiler, or when the build fails, the import raises ImportError and
says why.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import re
import shutil
import sysconfig
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_native.c")
_NAME = __name__ + "_ext"  # homfactor._native_ext, whose init function _native.c defines
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"])


def _build(target):
    """Compile the source into target, by way of a fresh directory beside
    target's that is renamed into place; a rival build that got there
    first wins."""
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        raise ImportError(f"homfactor builds {_SOURCE.name} on first import and needs a C "
                          "compiler, but no 'cc' is on PATH")
    target.parent.parent.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".tmp-", dir=target.parent.parent)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", os.path.join(scratch, target.name),
                               str(_SOURCE)], capture_output=True, text=True)
        if done.returncode:
            raise ImportError(f"building {_SOURCE.name} with {cc} failed:\n{done.stderr}")
        try:
            os.rename(scratch, target.parent)
        except OSError:
            if not target.exists():
                raise
        else:
            _remove_stale(target.parent)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _remove_stale(kept):
    """Remove the other builds beside kept (build/<hash>/, from another
    source or other flags), ignoring errors; a rival's .tmp- scratch is no
    build and stays."""
    for d in kept.parent.iterdir():
        if d != kept and re.fullmatch("[0-9a-f]{16}", d.name):
            shutil.rmtree(d, ignore_errors=True)


def _module():
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = _SOURCE.parent / "build" / key / (_NAME.rpartition(".")[2] + suffix)
    if not target.exists():
        _build(target)
    loader = importlib.machinery.ExtensionFileLoader(_NAME, str(target))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_NAME, loader))
    loader.exec_module(module)
    return module


_ext = _module()
engine, hom, outside, restrict = _ext.engine, _ext.hom, _ext.outside, _ext.restrict


def root(nb, ops, d):
    """Root arc consistency (root in _native.c) on the domains d, an (na, w)
    array of uint64 words over nb values, for the operations in ops:
    (arity, table of A, table of B) for each, the tables flat int64 arrays.
    Returns the narrowed domains, a new array, or None once one is empty,
    and the number of (element, value) pairs removed; ValueError for a
    table that is not n**k int64 values within its carrier."""
    d = np.array(d, dtype=np.uint64, order="C")
    removed = _ext.root(nb, ops, d)
    if removed < 0:
        return None, ~removed
    return d, removed
