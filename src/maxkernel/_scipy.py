"""scipy entry points, each loading its scipy subpackage on its first call.

Importing scipy.integrate, .special, .linalg and .sparse.linalg takes most
of a second, more than a classify job on a step needs, so only this module
imports scipy, and each name forwards its arguments unchanged.  Callers
bind the names at module level, so that ``module.quad`` stays an attribute
that benchmark tracing can wrap and tests can monkeypatch: imports inside
functions would bypass both, and a module ``__getattr__`` would load scipy
as soon as a caller imported a name.
"""
from importlib import import_module


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
svdvals = _on_first_call("scipy.linalg", "svdvals")
eigsh = _on_first_call("scipy.sparse.linalg", "eigsh")
LinearOperator = _on_first_call("scipy.sparse.linalg", "LinearOperator")
