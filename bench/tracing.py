"""Spans around the calls into rhocalc's layers, recorded from outside.

``Tracer.install`` replaces module functions and class methods with
timing wrappers and ``uninstall`` puts the original objects back.  Each
span records its name, start, end, parent span and operation id in
flat arrays that stay in memory until ``save`` writes them once.  A
span's self time is its duration minus the time its direct children
cover; spans nest strictly because the worker is single-threaded.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


def _points(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs.get("points")
    return len(pts) if hasattr(pts, "__len__") else 1


def _term_pairs(args, kwargs):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def layer_patches():
    """(owner, attribute, span name, counter) for every timed layer call.

    A function that other modules imported by name is patched on each
    of those modules too, so calls through either binding are seen."""
    import scipy.integrate
    from rhocalc import cli, closure, funcs, mollify, parser, series

    num = series.LCNumber
    out = [(num, "__init__", "series.ctor", None)]
    out += [(num, a, "series.add", None) for a in ("__add__", "__radd__", "__sub__", "__rsub__")]
    out += [(num, a, "series.mul", _term_pairs) for a in ("__mul__", "__rmul__")]
    out += [(num, a, "series.cmp", None) for a in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")]
    out += [(num, "truncate", "series.truncate", None),
            (closure, "inverse", "closure.inverse", None),
            (closure, "nth_root", "closure.nth_root", None),
            (closure, "poly_roots", "closure.poly_roots", None),
            (closure.LCPolynomial, "__call__", "closure.polyeval", None),
            (closure.LCPolynomial, "shift", "closure.shift", None),
            (funcs, "pair", "funcs.pair", None),
            (mollify, "pair", "funcs.pair", None),
            (funcs, "eval_at", "funcs.eval_at", None),
            (scipy.integrate, "quad", "funcs.quad", None),
            (mollify.TestFunction, "evaluate", "mollify.testfn_eval", _points),
            (mollify.DeltaKernel, "evaluate", "mollify.kernel_eval", None),
            (mollify.CutoffProvider, "evaluate", "mollify.cutoff_eval", _points),
            (mollify, "build_mollifier", "mollify.build_mollifier", None),
            (mollify, "embed_distribution", "mollify.embed", None),
            (mollify, "reference_pairing", "mollify.reference_pairing", None),
            (parser, "parse", "parser.parse", None),
            (cli, "parse", "parser.parse", None),
            (parser, "evaluate", "parser.evaluate", None),
            (cli, "evaluate", "parser.evaluate", None),
            (parser, "serialize", "parser.serialize", None),
            (cli, "main", "cli.main", None)]
    for cls in ("ExprProvider", "SumProvider", "ProductProvider", "DerivedProvider",
                "CallableProvider"):
        out.append((getattr(funcs, cls), "evaluate", "funcs.provider_eval", _points))
    for cls in ("_HeavisideConv", "_ConvolutionProvider"):
        out.append((getattr(mollify, cls), "evaluate", "mollify.conv_eval", _points))
    return out


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.names = ["op"]
        self._ids = {"op": 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)   # span name -> summed counter
        self.errors = defaultdict(int)   # span name -> spans ended by an exception
        self.op_id = -1
        self.active = False
        self._stack = [-1]
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, fn, name, counter=None):
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            if counter is not None:
                tracer.counts[name] += counter(args, kwargs)
            try:
                tracer.start[i] = clock()
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.end[i] = clock()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_op(self, op_id, fn):
        """Call ``fn`` as operation ``op_id`` under a root span."""
        self.op_id = op_id
        i = self._open(0)
        self.active = True
        try:
            self.start[i] = time.perf_counter()
            return fn()
        finally:
            self.end[i] = time.perf_counter()
            self.active = False
            self._stack.pop()

    def install(self, patches):
        """Wrap every patch target that exists; return the missing ones."""
        missing = []
        for owner, attr, name, counter in patches:
            try:
                original = _raw(owner, attr)
            except (KeyError, AttributeError):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every patched attribute is the original object again."""
        return all(_raw(owner, attr) is original for owner, attr, original in self._patches)

    def summary(self):
        """Per span name: calls, self_s and total_s (outermost spans of
        that name only, so recursion is not counted twice); and the number
        of products and inverses that ran inside ``poly_roots``."""
        n = len(self.start)
        par, nm = self.parent, self.name
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if par[i] >= 0:
                child[par[i]] += dur[i]
        roots_id = self._ids.get("closure.poly_roots", -1)
        in_roots = [False] * n
        within = {"series.mul": 0, "closure.inverse": 0}
        stats = {}
        for i in range(n):
            p = par[i]
            # a parent's index is smaller than its child's
            in_roots[i] = p >= 0 and (in_roots[p] or nm[p] == roots_id)
            while p >= 0 and nm[p] != nm[i]:
                p = par[p]
            name = self.names[nm[i]]
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if p < 0:
                s["total_s"] += dur[i]
            if in_roots[i] and name in within:
                within[name] += 1
        return stats, within

    def save(self, path):
        """Write the spans once, as a compact numpy archive."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
