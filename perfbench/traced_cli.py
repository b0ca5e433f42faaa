"""Run one shortroots CLI invocation with every public function traced.

Usage: python traced_cli.py <cli argv...>   (with shortroots importable)

Before the package is imported, a meta-path hook records one span per
``shortroots`` module body (``<module>.import``).  Then every public
module-level function of the package is wrapped, in every module namespace
that binds the function object (``reduction``, ``gradedchar`` and ``cli``
import names directly), and ``cli.main(argv)`` is called.  Methods such as
``RootSystem.inner`` are not wrapped: per-pair calls would swamp the
tracer, so their cost counts in the calling function's span.

Spans (name, start, end, parent index) are kept in memory.  At exit one
JSON object goes to stdout: the CLI's exit code and captured stdout, the
spans, and work counters taken from the return values of wrapped calls.
"""

import contextlib
import functools
import importlib.abc
import importlib.machinery
import inspect
import io
import json
import sys
import time

clock = time.perf_counter
spans = []   # [label, start, end, parent]; parent -1 marks a root span
stack = []   # indices into spans of the open spans
counters = {}
_built = set()


def _open(label):
    spans.append([label, clock(), None, stack[-1] if stack else -1])
    stack.append(len(spans) - 1)


def _close():
    spans[stack.pop()][2] = clock()


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Give each shortroots module body its own span."""

    def find_spec(self, name, path, target=None):
        if name != "shortroots" and not name.startswith("shortroots."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module
        label = name.rpartition(".")[2] + ".import"

        def traced_exec(module):
            _open(label)
            try:
                exec_module(module)
            finally:
                _close()

        spec.loader.exec_module = traced_exec
        return spec


def _count(key, amount):
    counters[key] = counters.get(key, 0) + amount


def _count_roots(rs):
    if id(rs) not in _built:   # build() caches; count each system once
        _built.add(id(rs))
        _count("rootsystem.roots", len(rs.roots))


# Work counters from the return values of wrapped calls.
RESULT_COUNTERS = {
    "rootsystem.build": _count_roots,
    "weyl.enumerate_group": lambda r: _count("weyl.elements", len(r)),
    "littleadjoint.freudenthal": lambda r: _count("littleadjoint.weights", len(r)),
    "gradedchar.nullcone_character": lambda r: _count("gradedchar.entries", len(r)),
    "antichains.short_root_poset": lambda r: _count("antichains.poset_size", len(r)),
    "antichains.count_antichains": lambda r: _count("antichains.antichains", r),
}


def _wrap(label, fn):
    on_result = RESULT_COUNTERS.get(label)
    per_check = label == "checks.run_check"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = f"checks.{args[0]}" if per_check else label
        if stack and spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)   # direct recursion folds into the open span
        _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close()
        if on_result is not None:
            on_result(result)
        return result

    return traced


def install():
    """Wrap every public function defined in a shortroots module, in every
    shortroots namespace that binds it.  Returns the patched cli module."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "shortroots" or name.startswith("shortroots.")}
    wrappers = {}
    for name, mod in modules.items():
        short = name.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == name
                    and not attr.startswith("_")):
                wrappers[id(obj)] = (obj, _wrap(f"{short}.{attr}", obj))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return modules["shortroots.cli"]


def main(argv):
    sys.meta_path.insert(0, _ImportSpans())
    importlib.import_module("shortroots.cli")
    cli = install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    json.dump({"exit": code, "stdout": out.getvalue(), "spans": spans,
               "counters": counters}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
