"""The C half of homfactor: _native.c, built on first import and loaded
with ctypes.

The shared library is built from the C source next to this module by the
system C compiler (cc), run in a child process, into build/<hash>/ beside
this module, where <hash> names the source and the compile flags, and it
moves into place by an atomic rename, so no process loads half a library.
A later import finds it there and builds nothing. There is no
pure-Python fallback: without a C compiler, or when the build fails, the
import raises ImportError and says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_native.c")
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


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
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _library():
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    target = _SOURCE.parent / "build" / key / "_native.so"
    if not target.exists():
        _build(target)
    return ctypes.CDLL(str(target))


_lib = _library()
_lib.hf_root.argtypes = (ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                         ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_uint64))
_lib.hf_root.restype = ctypes.c_int64


def root(nb, ops, d):
    """Root arc consistency (hf_root) on the domains d, an (na, w) array of
    uint64 words over nb values, for the operations in ops: (arity, table
    of A, table of B) for each, the tables flat int64 arrays. Returns the
    narrowed domains, or None once one is empty, and the number of
    (element, value) pairs removed. The work array holds the domains, then
    hf_root's scratch: (5·na + nb + 2)·w + 3·na words, allocated here through
    Python's allocator, so that tracemalloc sees them."""
    na, w = d.shape
    flat = [v for k, ta, tb in ops for v in (k, ta.ctypes.data, tb.ctypes.data)]
    work = (ctypes.c_uint64 * ((5 * na + nb + 2) * w + 3 * na))()
    words = np.frombuffer(work, dtype=np.uint64, count=d.size)
    words[:] = d.reshape(-1)
    removed = _lib.hf_root(na, nb, len(ops), (ctypes.c_int64 * len(flat))(*flat), work)
    if removed < 0:
        return None, ~removed
    return words.reshape(d.shape), removed
