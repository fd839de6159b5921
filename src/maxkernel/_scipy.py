"""scipy entry points, each loading its scipy subpackage on its first call.

Importing scipy.integrate, .special, .linalg and .sparse.linalg takes most
of a second, more than a classify job on a step needs, so only this module
imports scipy, and each name forwards its arguments unchanged.  Callers
bind the names at module level, so that ``module.quad`` stays an attribute
that benchmark tracing can wrap and tests can monkeypatch: imports inside
functions would bypass both, and a module ``__getattr__`` would load scipy
as soon as a caller imported a name.

dsbgst, which scipy exports only to Cython, is called here through its
scipy.linalg.cython_lapack capsule.
"""
import ctypes
from functools import cache
from importlib import import_module

import numpy as np


def _on_first_call(module: str, name: str):
    def forward(*args, **kwargs):
        return getattr(import_module(module), name)(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


quad = _on_first_call("scipy.integrate", "quad")
solve_ivp = _on_first_call("scipy.integrate", "solve_ivp")
polygamma = _on_first_call("scipy.special", "polygamma")
zeta = _on_first_call("scipy.special", "zeta")
eigh = _on_first_call("scipy.linalg", "eigh")
eigvalsh = _on_first_call("scipy.linalg", "eigvalsh")
eigvalsh_tridiagonal = _on_first_call("scipy.linalg", "eigvalsh_tridiagonal")
svdvals = _on_first_call("scipy.linalg", "svdvals")
eigsh = _on_first_call("scipy.sparse.linalg", "eigsh")
LinearOperator = _on_first_call("scipy.sparse.linalg", "LinearOperator")

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)


@cache
def _dsbgst():
    """LAPACK dsbgst as a ctypes function, from the address in its
    cython_lapack capsule (the capsule's name is its C signature)."""
    capsule = import_module("scipy.linalg.cython_lapack") \
        .__pyx_capi__["dsbgst"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    # vect, uplo, n, ka, kb, ab, ldab, bb, ldbb, x, ldx, work, info
    return ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _INT, _DOUBLE,
        _INT, _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _INT)(address)


def dsbgst(ab, bb) -> np.ndarray:
    """Crawford's reduction of the tridiagonal pencil (A, S^T S) to a
    tridiagonal matrix with the same eigenvalues: LAPACK dsbgst with
    vect='N', uplo='U' and ka = kb = 1.

    ab holds A and bb the split factor S as dpbstf leaves it, both in
    LAPACK's upper band storage as (2, n) arrays: ab[1] the diagonal and
    ab[0, j] entry (j-1, j).  Returns the reduced matrix in the same
    storage, in a new array."""
    ab = np.array(ab, dtype=np.float64, order="F")
    bb = np.require(bb, np.float64, "F")
    if ab.ndim != 2 or len(ab) != 2 or bb.shape != ab.shape or not ab.size:
        raise ValueError("dsbgst needs two (2, n) band arrays, n >= 1")
    n = ab.shape[1]
    x, work = np.zeros(1), np.empty(2 * n)
    n_, one, two, info = (ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int(2),
                          ctypes.c_int(0))
    ref = ctypes.byref
    _dsbgst()(b"N", b"U", ref(n_), ref(one), ref(one),
              ab.ctypes.data_as(_DOUBLE), ref(two),
              bb.ctypes.data_as(_DOUBLE), ref(two),
              x.ctypes.data_as(_DOUBLE), ref(one),
              work.ctypes.data_as(_DOUBLE), ref(info))
    if info.value:
        raise ValueError(f"dsbgst failed with info = {info.value}")
    return ab
