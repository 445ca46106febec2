"""Run numpy's BLAS on one thread.

How many threads OpenBLAS splits a product over changes the order of its
float additions, so the last bits of a result depend on
``OPENBLAS_NUM_THREADS``. One thread makes the outputs independent of that
setting, and keeps the forked sweep workers (experiments/sweep.py) from
oversubscribing the cores. numpy wheels bundle OpenBLAS as
``numpy.libs/libscipy_openblas*.so``; its thread count is set through ctypes.
With any other BLAS, ``one_blas_thread`` does nothing.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy has loaded it: same handle
        except OSError:
            continue
        for suffix in ("64_", ""):  # 64-bit-integer builds suffix their symbols
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Pin the bundled OpenBLAS to one thread; restore the count on exit.

    Processes forked inside the block inherit the pin.
    """
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
