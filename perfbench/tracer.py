"""Spans and counts around calls into finsite's modules, installed from the
benchmark's side and removed afterwards; finsite itself is not modified.

Every public function of a traced module is wrapped, and the wrapper is bound
into every finsite namespace that holds the original (so `from .x import f`
copies are traced too).  Hot leaves get a counting wrapper only.  Spans stay
in memory until `write_spans` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("intmat", "category", "values", "towers", "cosheaf", "sheaf",
           "spaces", "io", "cli", "randsuite")

# Called hundreds of thousands of times per job: count, never time.
HOT_LEAVES = {"intmat.freeze", "intmat.mul", "intmat.shape",
              "values.FinSetMap.__call__", "values.FinAbMap.__post_init__",
              "category.FiniteCategory.into", "category.FiniteCategory.out_of"}

# Methods traced besides the public module-level functions.
METHODS = (("category", "FiniteCategory", "into"),
           ("category", "FiniteCategory", "out_of"),
           ("values", "FinSetMap", "__call__"),
           ("values", "FinAbMap", "__post_init__"),
           ("towers", "LevelMorphism", "__post_init__"))


def _sieve_key(args, kwargs):
    sieve = args[1] if len(args) > 1 else kwargs["sieve"]
    return sieve.target, sieve.members


def _diagram_key(args, kwargs):
    d = args[0] if args else kwargs["diagram"]
    return (d.shape.objects, d.shape.morphisms, tuple(sorted(d.nodes.items())),
            tuple(sorted(d.edges.items())))


# Calls whose arguments are keyed, to count distinct inputs per job.
KEYED = {"category.comma_of_sieve": _sieve_key, "values.finite_colimit": _diagram_key}

# Calls whose file argument is sized after the call, as `<name>_bytes`.
SIZED = {"io.load": 0, "io.save": 1}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()   # outermost-call seconds per name
        self.self_s: Counter = Counter()      # self seconds per module
        self.distinct: Counter = Counter()
        self.spans: list = []                 # (name, start, end, parent index)
        self._keys = defaultdict(set)
        self._stack: list = []                # [span index, child seconds]
        self._active: Counter = Counter()
        self._patches: list = []
        self.cli_imports: list = []           # import seconds per traced CLI run
        self.spans_path = None                # where traced subprocesses append spans

    # -- wrappers -----------------------------------------------------------

    def _counting(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, module, fn):
        calls, spans, stack, active = self.calls, self.spans, self._stack, self._active
        inclusive, self_s, clock = self.inclusive, self.self_s, time.perf_counter
        keyfn = KEYED.get(name)
        keys = self._keys[name]
        sized = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keyfn is not None:
                keys.add(keyfn(args, kwargs))
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                spans[frame[0]] = (name, t0, t1, parent)
                self_s[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not active[name]:
                    inclusive[name] += dur
                if sized is not None and len(args) > sized and os.path.exists(args[sized]):
                    calls[name + "_bytes"] += os.path.getsize(args[sized])
        return wrapper

    def _wrap(self, name, module, fn):
        if name in HOT_LEAVES:
            return self._counting(name, fn)
        return self._spanning(name, module, fn)

    # -- install / remove ---------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"finsite.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "finsite" or key.startswith("finsite.")]
        for m, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{m}.{attr}", m, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        for m, cls_name, attr in METHODS:
            cls = getattr(mods[m], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{m}.{cls_name}.{attr}", m, fn))

    def remove(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def end_job(self):
        """Close the per-job distinct-input sets."""
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    # -- results ------------------------------------------------------------

    def merge(self, data: dict):
        """Fold in the summary of a traced subprocess (see `summary`)."""
        self.calls.update(data["calls"])
        self.inclusive.update(data["inclusive"])
        self.self_s.update(data["self_s"])
        self.distinct.update(data["distinct"])

    def summary(self) -> dict:
        self.end_job()
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "self_s": dict(self.self_s), "distinct": dict(self.distinct)}

    def write_spans(self, fh, header: dict):
        """A header line, then one JSON line per span: [index, name, start,
        end, parent index]; indices and clock are the writing process's."""
        fh.write(json.dumps(header) + "\n")
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            fh.write(json.dumps([i, name, t0, t1, parent]) + "\n")
