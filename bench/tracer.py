"""Outside-in tracing of qalcove: wrap public functions, record spans.

Nothing inside the library is changed on disk.  ``Tracer.install`` replaces
the traced functions in every ``qalcove.*`` namespace that holds them
(``from .alcove import make_chain`` binds a separate name in each importing
module) and the traced methods on their classes; ``uninstall`` puts every
original object back and reports whether each name is again the original.

A span records its name, start, end and parent span in flat arrays.  A
layer's self time is the total duration of its spans minus the time their
child spans cover.  Cache misses are counted by the wrappers themselves,
from the first time a key is seen on a given ``QBG`` object, without reading
any private attribute of the library.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from collections import defaultdict

# Functions and methods that get a span, by layer.  Generator functions get
# one span per resumption, so their time is charged where it is spent.
SPANS = {
    "qbg": ["QBG.__init__", "QBG.edge_kind", "QBG.p_path"],
    "alcove": ["make_chain", "alcove_walk", "admissible_subsets",
               "filtered_A", "subset_stats"],
    "expansions": ["enumerate_S", "chained_filtered", "chevalley_expand",
                   "expand_to_base", "ic_lhs", "ic_first_terms",
                   "ic_second_terms", "ic_cf_first_terms",
                   "ic_conj_second_terms", "fold_terms", "ic_rhs_first",
                   "ic_rhs_second", "ic_rhs_cancel_free_first",
                   "ic_rhs_conjecture_second"],
    "ring": ["Coeff.__mul__", "RationalCoeff.__init__",
             "RationalCoeff.__mul__", "RationalCoeff.__add__",
             "divide_by_atom", "clear_denominators"],
    "verify": ["verify_first_half", "verify_second_half", "verify_key_props",
               "key_first_sides", "key_second_sides",
               "cancellation_certificate", "conjecture_scan"],
}
GENERATORS = {"chained_filtered", "ic_first_terms", "ic_second_terms",
              "ic_cf_first_terms", "ic_conj_second_terms"}
# Building a right-hand side before it is expanded to the base weight.
RHS_BUILD = {"enumerate_S", "chained_filtered", "ic_first_terms",
             "ic_second_terms", "ic_cf_first_terms", "ic_conj_second_terms",
             "fold_terms", "ic_rhs_first", "ic_rhs_second",
             "ic_rhs_cancel_free_first", "ic_rhs_conjecture_second"}
# typec gets no spans: its time stays in its callers' self time.
COUNTED = ("mul", "act")
TIMED = ("weyl_group",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []           # span-name table
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.timers: dict[str, float] = defaultdict(float)
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        sid_name = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(sid_name)
            parents.append(stack[-1])
            stack.append(sid)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return self._like(wrapper, fn)

    def _generator_span(self, name: str, fn):
        step = self._span(name, next)

        def resume(gen):
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return resume(fn(*args, **kwargs))

        return self._like(wrapper, fn)

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return self._like(wrapper, fn)

    def _timer(self, name: str, fn):
        timers, clock = self.timers, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[name] += clock() - t0

        return self._like(wrapper, fn)

    @staticmethod
    def _like(wrapper, fn):
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__wrapped__ = fn
        return wrapper

    def _first_seen(self, name: str, qbg, key) -> bool:
        """True the first time ``key`` is seen for this QBG object."""
        seen = self._seen.setdefault(name, weakref.WeakKeyDictionary())
        keys = seen.get(qbg)
        if keys is None:
            keys = seen[qbg] = set()
        if key in keys:
            return False
        keys.add(key)
        return True

    # -- result hooks (counts measured where the work happens) ------------

    def _after_admissible(self, args, result):
        qbg, w, chain = args
        if self._first_seen("admissible_subsets", qbg, (w, chain)):
            self.counts["admissible_subsets.misses"] += 1
            self.counts["admissible_subsets.enumerated"] += len(result)

    def _after_chevalley(self, args, result):
        qbg, w, sign, k = args
        if self._first_seen("chevalley_expand", qbg, (w, sign, k)):
            self.counts["chevalley_expand.misses"] += 1

    def _after_enumerate_S(self, args, result):
        self.counts["enumerate_S.sequences"] += len(result)

    def _after_divide(self, args, result):
        if result is not None:
            self.counts["divide_by_atom.hits"] += 1

    def _after_clear(self, args, result):
        self.counts["clear_denominators.lcm_max"] = max(
            self.counts["clear_denominators.lcm_max"], len(result[2]))

    def _after_report(self, args, result):
        self.counts["verify.lhs_terms"] += result.lhs_terms
        self.counts["verify.rhs_terms"] += result.rhs_terms

    def _fold(self, fn):
        """fold_terms, counting the terms it consumes and keeps."""
        counts = self.counts

        def counted(terms):
            for t in terms:
                counts["terms_streamed"] += 1
                yield t

        def fold(n, terms):
            combo = fn(n, counted(terms))
            counts["terms_folded"] += len(combo.terms)
            return combo

        return self._like(fold, fn)

    # -- patching ----------------------------------------------------------

    def _wrapped(self, name: str, fn):
        hooks = {"admissible_subsets": self._after_admissible,
                 "chevalley_expand": self._after_chevalley,
                 "enumerate_S": self._after_enumerate_S,
                 "divide_by_atom": self._after_divide,
                 "clear_denominators": self._after_clear,
                 "verify_first_half": self._after_report,
                 "verify_second_half": self._after_report,
                 "verify_key_props": self._after_report}
        if name in COUNTED:
            return self._counter(name, fn)
        if name in TIMED:
            return self._timer(name, fn)
        if name in GENERATORS:
            return self._generator_span(name, fn)
        if name == "fold_terms":
            fn = self._fold(fn)
        return self._span(name, fn, hooks.get(name))

    def install(self):
        """Wrap every traced function in each loaded ``qalcove.*`` module."""
        modules = {m: sys.modules[m] for m in list(sys.modules)
                   if m == "qalcove" or m.startswith("qalcove.")}
        targets = {}  # original object -> wrapper
        for layer, names in SPANS.items():
            mod = modules[f"qalcove.{layer}"]
            for name in names:
                cls_name, _, meth = name.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrapped(name, orig))
                else:
                    orig = getattr(mod, name)
                    targets[orig] = self._wrapped(name, orig)
        typec = modules["qalcove.typec"]
        for name in COUNTED + TIMED:
            orig = getattr(typec, name)
            targets[orig] = self._wrapped(name, orig)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in targets:
                    self._patch(mod, attr, targets[value])

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True iff each name is again the original."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        restored = all(vars(owner)[attr] is orig
                       for owner, attr, orig in self._patched)
        self._patched.clear()
        return restored

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = [0.0] * len(self.span_start)
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for sid in range(len(starts) - 1, -1, -1):
            d = ends[sid] - starts[sid]
            nid = self.span_name[sid]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - child[sid]
            p = parents[sid]
            if p >= 0:
                child[p] += d
        return {name: {"calls": calls[i], "total_s": total[i],
                       "self_s": self_s[i]}
                for i, name in enumerate(self.names)}
