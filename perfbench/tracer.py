"""Spans around every call into a rangesynth layer, recorded from outside.

``Tracer.install`` wraps each public function of the layer modules (plus
``cli.run``, named by its subcommand) and rebinds the wrapper under every
name any rangesynth module holds the function by.  Calls between modules,
such as ``verify.check_soundness`` -> ``circuit.eval_batch``, therefore show
up as child spans; nothing in the package is edited.  Spans are kept in
memory; a span's self time is its duration minus the time its children
cover.  Alongside the times the tracer counts the work each call did (rows
evaluated, gates built, words checked), so ratios can be read with their
base.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

from rangesynth.circuit import size as _logic_gates

LAYERS = ("circuit", "regular", "counting", "graphs", "npsys", "combinators",
          "languages", "verify", "cli")


def _rows(a, k, res):
    rows = len(a[1])
    return {"rows": rows, "gate_evals": rows * a[0].num_gates}


def _gates(a, k, res):
    return {"gates": _logic_gates(res[0])}


# work counted per call: function -> extractor(args, kwargs, result) -> dict
COUNTERS = {
    "circuit.eval_batch": _rows,
    "regular.synth_regular": _gates,
    "counting.synth_threshold": _gates,
    "counting.synth_exact_count": _gates,
    "languages.member_batch": lambda a, k, res: {"words": len(res)},
    "verify.check_soundness": lambda a, k, res: {"trials": res.trials},
    "verify.check_completeness": lambda a, k, res: {"members": res.trials},
}
# largest value per run instead of a sum
MAXIMA = {"circuit.cone_sizes": lambda a, k, res: max(res, default=0)}


class Stat:
    __slots__ = ("s", "self_s", "calls", "counts", "max")

    def __init__(self):
        self.s = self.self_s = 0.0
        self.calls = 0
        self.counts = defaultdict(int)
        self.max = 0


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index)
        self.stats: dict = defaultdict(Stat)
        self._stack: list = []       # open span indices
        self._child: list = []       # time covered by children, per open span
        self._rebound: list = []     # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return_value = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            covered = self._child.pop()
            if self._child:
                self._child[-1] += t1 - t0
            self.spans[idx] = (name, t0, t1, parent)
            st = self.stats[name]
            st.s += t1 - t0
            st.self_s += t1 - t0 - covered
            st.calls += 1
        if name in COUNTERS:
            for key, val in COUNTERS[name](args, kwargs, return_value).items():
                st.counts[key] += val
        if name in MAXIMA:
            st.max = max(st.max, MAXIMA[name](args, kwargs, return_value))
        return return_value

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_cli_run(self, fn):
        def traced(argv=None):
            name = "cli." + (argv[0] if argv else "run")
            return self._call(name, fn, (argv,), {})
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"rangesynth.{m}") for m in LAYERS}
        mods["rangesynth"] = importlib.import_module("rangesynth")
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if layer == "cli":
                    if attr == "run":
                        wrappers[id(obj)] = self._wrap_cli_run(obj)
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()
