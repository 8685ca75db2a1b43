"""Certified bound curves for commutator norms of matrix functions.

Given delta = ||[X, A]||, the package bounds ||[f(X), A]|| from above by
envelopes of affine bounds and from below by constructive witnesses, for
periodic f of a unitary X and for f on [0, 1] of a positive contraction,
including the piecewise-linear envelope gamma0 for f(x) = sqrt(x).  A
random-matrix lab validates every emitted bound.

Importing the package loads no layer module.  A layer is imported when it
is first asked for, as `commbound.circle_bounds` or by `from commbound
import circle_bounds`, and the public names, each listed in the `__all__`
of the layer that defines it, when one of them or `__all__` is: a command
loads only the layers it runs.
"""

import sys

__version__ = "0.1.0"

# the layer modules, in the order their lists make up __all__
_LAYERS = ("periodic_fn", "bound_curve", "circle_bounds", "positive_bounds",
           "matrix_lab")
# every submodule; asking for one imports it alone
_SUBMODULES = _LAYERS + ("experiments_cli",)


def _import(name):
    """The submodule name, imported by __import__, whose imports, unlike
    importlib's, -X importtime reports."""
    module = "%s.%s" % (__name__, name)
    __import__(module)
    return sys.modules[module]


def _surface():
    """Import every layer, bind the names of its __all__ here, and return
    the package's __all__."""
    global __all__
    names = []
    for layer in _LAYERS:
        module = _import(layer)
        globals().update((n, getattr(module, n)) for n in module.__all__)
        names += module.__all__
    __all__ = names + ["__version__"]
    return __all__


def __getattr__(name):
    if name in _SUBMODULES:
        return _import(name)
    if name in _surface() or name == "__all__":
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES) | set(_surface()))
