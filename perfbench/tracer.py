"""Spans around the public functions of momentlab's eight modules.

The tracer is installed only for a traced pass. It replaces each public
function at every place its name is bound (the defining module, modules that
`from`-import it and the package namespace) and restores the originals on
`uninstall`, so an untraced pass runs the program's own function objects.

Hot leaf functions are wrapped in counting mode: they add a call count but no
span, so their time stays in the caller's self time. A span records its name,
its layer (the module), the index of its parent span, and its start and end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("polycore", "semialg", "momentkit", "sdpcore", "hierarchy",
           "cdkernel", "distcone", "benchcli")

# Public methods traced besides the module-level functions.
METHODS = (("polycore", "Polynomial", "gradient"),
           ("polycore", "Polynomial", "eval_many"))

# Called from 1e4 to 1e6 times per pass in polishing loops and in assembly;
# a span each would cost more than the work measured.
COUNT_ONLY = frozenset({
    "polycore.eval_poly", "polycore.Polynomial.gradient",
    "polycore.count_monomials", "polycore.monomial_basis",
    "polycore.half_degree", "polycore.l1_norm",
    "semialg.violation", "semialg.violation_many",
    "semialg.restore_feasibility",
    "sdpcore.packed_indices", "sdpcore.packed_weights",
})

# scipy.optimize.minimize is imported inside momentlab's functions at call
# time, so patching the scipy attribute catches every SLSQP call; it is
# charged to the semialg layer, which owns the feasibility projections.
MINIMIZE = "semialg.slsqp"


def _package_modules():
    """The momentlab package and its eight modules, imported."""
    pkg = importlib.import_module("momentlab")
    return [pkg] + [importlib.import_module(f"momentlab.{m}") for m in MODULES]


def traced_functions():
    """(qualified name, owner, attribute, original) for every traced callable.

    Module-level functions are those defined in the module itself with a
    public name; classes are skipped, and their traced methods are listed in
    METHODS.
    """
    out = []
    for modname in MODULES:
        mod = importlib.import_module(f"momentlab.{modname}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            out.append((f"{modname}.{attr}", mod, attr, obj))
    for modname, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"momentlab.{modname}"), cls_name)
        out.append((f"{modname}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
    import scipy.optimize

    out.append((MINIMIZE, scipy.optimize, "minimize", scipy.optimize.minimize))
    return out


def binding_sites(owner, attr, original):
    """Every (namespace, name) that binds `original`, the owner's first."""
    sites = [(owner, attr)]
    if inspect.isclass(owner):
        return sites
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if value is original and (mod, name) != (owner, attr):
                sites.append((mod, name))
    return sites


class Tracer:
    """In-memory spans and counts for one or more traced passes."""

    def __init__(self):
        self.spans = []   # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.solves = []  # (rows of A, iterations, status) per sdpcore.solve
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = self._observe_solve if name == "sdpcore.solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _observe_solve(self, args, kwargs, sol):
        program = args[0] if args else kwargs["program"]
        self.solves.append((program.num_rows, sol.iterations, sol.status))

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, original in traced_functions():
            make = self._counting if name in COUNT_ONLY else self._spanning
            wrapper = make(name, original)
            for ns, ns_attr in binding_sites(owner, attr, original):
                self._patches.append((ns, ns_attr, vars(ns)[ns_attr]))
                setattr(ns, ns_attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches = []

    @contextlib.contextmanager
    def root(self, name):
        """A span that is not a wrapped call, such as a whole pass."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Self time per span name: duration minus the wrapped children's."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_under(self, ancestor_name, layer):
        """(total duration of `ancestor_name` spans, time in `layer` spans
        nested under them, outermost layer spans only)."""
        names = [s[0] for s in self.spans]
        parents = [s[1] for s in self.spans]
        total = 0.0
        inside = 0.0
        for name, parent, start, end in self.spans:
            if name == ancestor_name:
                total += end - start
                continue
            if not name.startswith(layer + "."):
                continue
            p = parent
            has_ancestor = False
            while p >= 0:
                if names[p].startswith(layer + "."):
                    break  # counted at the outermost layer span
                if names[p] == ancestor_name:
                    has_ancestor = True
                    break
                p = parents[p]
            if has_ancestor:
                inside += end - start
        return total, inside

    def write(self, path, meta):
        """Write spans (one JSON array per line) after a metadata line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "counts": dict(self.counts),
                                 "fields": ["name", "parent", "start", "end"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

