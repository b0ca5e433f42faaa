"""shortroots: exact combinatorics of root systems, Weyl groups and the
modules whose highest weight is the short dominant root.

Importing the package runs ``rootsystem``, which every command needs, with
the ``cartan`` layer and ``errors`` that it imports, and registers every
other library module and ``checks`` in ``sys.modules`` as a lazy module:
its body is compiled and run on its first attribute access, so a command
pays only for the modules it reaches.  The Cartan-matrix classifier
``classify`` is one of them: ``rootsystem`` reaches it only to name a
given matrix or to invert one, and the orbit walks of ``orbits`` run only
in the engines that walk an orbit.  The CLI's subcommand bodies
(``cmd_<name>``) are not registered; the CLI imports the one it runs.

The package exports exactly the names in each library module's
``__all__``; that list is the one place a public name is declared.  A
package-level name resolves on first use, which loads every library
module."""

import importlib.util
import sys

# Every command needs rootsystem: run it (and cartan and errors, which it
# imports) before any other module is registered, while the heap is small.
from . import rootsystem  # noqa: F401

__version__ = "0.1.0"

_LIBRARY = ("antichains", "cartan", "classify", "config", "errors", "gradedchar",
            "littleadjoint", "orbits", "reduction", "rootsystem", "weyl")
_owners = {}   # exported name -> name of its module, filled on first use


def _register(name):
    """Bind submodule ``name``; one not imported yet becomes a lazy module.
    An imported module is never replaced: that would split it in two, with
    two copies of each of its classes."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        loader = spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        loader.exec_module(module)
    globals()[name] = module


for _name in _LIBRARY + ("checks",):
    _register(_name)


def _exports():
    if not _owners:
        _owners.update((n, m) for m in _LIBRARY for n in globals()[m].__all__)
    return _owners


def __getattr__(name):
    if name == "__all__":
        return sorted(_exports())
    # `from shortroots import cli` asks for the attribute before importing
    # the submodule: answer without reading every module's __all__
    owner = None if name == "cli" else _exports().get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__():
    return sorted(_exports())
