"""Spans around the library's public functions, for the traced run only.

`install` replaces every module binding of each target function in the
loaded `latpath` modules with a wrapper that records a span (name, start,
end, parent) in memory.  Nothing under src/ changes; the untraced run never
imports this module.  Self time is a span's duration minus its children's.
"""

import inspect
import statistics
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" patches the class
TARGETS = (
    ("pairs.construct", "latpath.pairs", "BoundingPair.__init__"),
    ("pairs.loops", "latpath.pairs", "loops"),
    ("pairs.element_interval", "latpath.pairs", "element_interval"),
    ("pairs.count_bases", "latpath.pairs", "count_bases"),
    ("pairs.connectivity", "latpath.pairs", "connectivity"),
    ("pairs.fundamental_flats", "latpath.pairs", "fundamental_flats"),
    ("pairs.connected_flats", "latpath.pairs", "connected_flats"),
    ("pairs.circuits", "latpath.pairs", "circuits"),
    ("pairs.path_minor", "latpath.pairs", "path_minor"),
    ("pairs.restrict_interval", "latpath.pairs", "restrict_interval"),
    ("setsystem.matching_rank", "latpath.setsystem", "matching_rank"),
    ("setsystem.special_elements", "latpath.setsystem", "special_elements"),
    ("setsystem.maximal_presentation", "latpath.setsystem", "maximal_presentation"),
    ("setsystem.components", "latpath.setsystem", "components"),
    ("recognition.recognize", "latpath.recognition", "recognize"),
    ("recognition.incidence_classes", "latpath.recognition", "incidence_classes"),
    ("recognition.order_classes", "latpath.recognition", "order_classes"),
    ("recognition.check_charint", "latpath.recognition", "check_charint"),
    ("recognition.recover_paths", "latpath.recognition", "recover_paths"),
    # to_rank_table lives in pairs.py but belongs to the rank-table layer
    ("ranktable.to_rank_table", "latpath.pairs", "to_rank_table"),
    ("ranktable.construct", "latpath.ranktable", "construct"),
    ("ranktable.brute_circuits", "latpath.ranktable", "brute_circuits"),
    ("ranktable.brute_connected_flats", "latpath.ranktable", "brute_connected_flats"),
    ("ranktable.brute_connectivity", "latpath.ranktable", "brute_connectivity"),
    ("ranktable.has_minor", "latpath.ranktable", "has_minor"),
    ("ranktable.is_isomorphic", "latpath.ranktable", "is_isomorphic"),
    ("families.verify_excluded_minor", "latpath.families", "verify_excluded_minor"),
)
OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.kind = array("i")      # index into names
        self.parent = array("i")    # span index, -1 for an op span
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")     # no enclosing span of the same name
        self.failed = {}            # span index -> exception type name
        self.stack = []
        self.active = [0]           # open spans per name
        self.enabled = False
        self.masks = 0
        self.classes = []           # per order_classes call
        self.orderings = []

    def open(self, kind):
        i = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.active[kind] == 0)
        self.active[kind] += 1
        self.stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i, exc=None):
        self.end[i] = perf_counter()
        while self.stack:
            j = self.stack.pop()
            self.active[self.kind[j]] -= 1
            if j == i:
                break
        if exc is not None:
            self.failed[i] = type(exc).__name__

    def wrap(self, name, fn):
        kind = len(self.names)
        self.names.append(name)
        self.active.append(0)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                i = tracer.open(kind)
                try:
                    yield from fn(*args, **kwargs)
                except GeneratorExit:
                    tracer.close(i)  # the consumer stopped early
                    raise
                except BaseException as e:
                    tracer.close(i, e)
                    raise
                tracer.close(i)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "recognition.order_classes":
                tracer.classes.append(len(args[0]))
            i = tracer.open(kind)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer.close(i, e)
                raise
            tracer.close(i)
            if name == "recognition.order_classes":
                tracer.orderings.append(len(out))
            return out
        return wrapper

    def install(self):
        """Wrap every binding of each target in every loaded latpath module."""
        mods = [m for n, m in sys.modules.items()
                if n == "latpath" or n.startswith("latpath.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
        table_cls = sys.modules["latpath.ranktable"].RankTable
        post_init = table_cls.__post_init__

        def count_masks(table):
            post_init(table)
            if self.enabled:
                self.masks += len(table.ranks)
        table_cls.__post_init__ = count_masks

    def op_span(self):
        return self.open(0)

    def summary(self):
        """Per-layer metrics derived from the recorded spans."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, busy, own = [0] * k, [0.0] * k, [0.0] * k
        for i in range(count):
            kind = self.kind[i]
            calls[kind] += 1
            own[kind] += dur[i] - child[i]
            if self.outer[i]:
                busy[kind] += dur[i]
        out = {}
        for kind, name in enumerate(self.names):
            if kind == 0:
                continue
            out[f"{name}.calls"] = calls[kind]
            out[f"{name}.busy_ms"] = busy[kind] * 1e3
            out[f"{name}.self_ms"] = own[kind] * 1e3
        ops = [i for i in range(count) if self.kind[i] == 0]
        op_ms = sum(dur[i] for i in ops) * 1e3
        top_busy = sum(dur[i] for i in range(count)
                       if self.parent[i] >= 0 and self.kind[self.parent[i]] == 0) * 1e3
        op_self = sum(dur[i] - child[i] for i in ops) * 1e3
        kinds = {n: j for j, n in enumerate(self.names)}
        out["trace.op_ms"] = op_ms
        out["trace.accounted_ms"] = top_busy + op_self
        out["trace.unattributed_frac"] = op_self / op_ms if op_ms else 0.0
        out["trace.spans"] = count
        out["recognition.timeouts"] = sum(
            1 for i, e in self.failed.items()
            if e == "OpTimeout" and self.kind[i] == kinds["recognition.recognize"]
            and self.outer[i])
        setsys = {j for n, j in kinds.items() if n.startswith("setsystem.")}
        out["setsystem.recursion_errors"] = sum(
            1 for i, e in self.failed.items()
            if e == "RecursionError" and self.kind[i] in setsys
            and not (self.parent[i] in self.failed
                     and self.failed[self.parent[i]] == "RecursionError"
                     and self.kind[self.parent[i]] in setsys))
        out["recognition.classes_per_block.p50"] = (
            statistics.median(self.classes) if self.classes else 0)
        out["recognition.classes_per_block.max"] = max(self.classes, default=0)
        out["recognition.orderings_per_block.p50"] = (
            statistics.median(self.orderings) if self.orderings else 0)
        out["ranktable.masks"] = self.masks
        return out
