"""The library functions that the benchmark workloads and the campaign
suites never call.

    python3 tools/reach_scan.py [--rounds 3] [--samples 30]

Under a ``sys.setprofile`` hook it runs rounds 0 to ``--rounds`` - 1 of
each workload of ``benches/workloads.py`` at seed 0, then every suite of
``campaigns.SUITES`` at ``--samples`` samples and seed 0.  The functions
are those whose code lies in a module of ``xnadhm``: module-level
functions, the methods, properties and cached properties of the classes
defined there, with ``functools`` caches unwrapped, and every function
nested in one of them.  A function is reached when the hook sees a call of
its code.  The tool prints each unreached function as
``module.qualname``, sorted, then one line ``reached R of N functions``.
The library is imported from the ``src/`` next to this directory.
"""

import argparse
import functools
import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benches")]

import workloads  # noqa: E402
import xnadhm  # noqa: E402
from xnadhm import campaigns  # noqa: E402


def _functions(obj):
    """The functions that a module or class attribute holds."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, functools.cached_property):
        return [obj.func]
    if callable(obj) and hasattr(obj, "__wrapped__"):
        obj = inspect.unwrap(obj)
    return [obj] if isinstance(obj, types.FunctionType) else []


def _nested(code):
    """``code`` and the code of every named function defined inside it;
    comprehensions, generator expressions and lambdas count as part of the
    function that holds them."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith(
                "<"):
            yield from _nested(const)


def library_functions():
    """{code object: "module.qualname"} of every function of the library."""
    found = {}
    for info in pkgutil.iter_modules(xnadhm.__path__):
        module = importlib.import_module(f"xnadhm.{info.name}")
        attrs = list(vars(module).values())
        for obj in list(attrs):
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                attrs += vars(obj).values()
        for obj in attrs:
            for fn in _functions(obj):
                if fn.__code__.co_filename != module.__file__:
                    continue
                for code in _nested(fn.__code__):
                    found[code] = f"{module.__name__}.{code.co_qualname}"
    return found


def run_everything(rounds, samples):
    for name, workload in workloads.WORKLOADS.items():
        run = workload(0)
        for k in range(rounds):
            run.round(k)
    for suite in campaigns.SUITES:
        campaigns.run_campaign(suite, samples, 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds per workload, from round 0")
    parser.add_argument("--samples", type=int, default=30,
                        help="samples per campaign suite")
    args = parser.parse_args(argv)
    functions = library_functions()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run_everything(args.rounds, args.samples)
    finally:
        sys.setprofile(None)
    for name in sorted(name for code, name in functions.items()
                       if code not in called):
        print(name)
    reached = sum(code in called for code in functions)
    print(f"reached {reached} of {len(functions)} functions")


if __name__ == "__main__":
    main()
