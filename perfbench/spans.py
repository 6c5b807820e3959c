"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``mafkit`` modules from the
outside: every name bound to a wrapped function is replaced in every
``mafkit`` module that holds it (``mafkit.cli.find_min_k``,
``mafkit.fpt.reduce_pair``, ``mafkit.approx.find_applicable`` …), and
methods are replaced on their class.  ``Forest.components`` is deliberately
left alone: it is a cache hit hundreds of thousands of times per exact solve,
so a wrapper there would measure mostly itself.

Spans nest on one stack, which holds for each open span the nanoseconds
its closed direct children took.  Direct children run one after another
inside their parent, so when a span closes its self time is its duration
minus that sum, and the aggregate for its name gains one call, the duration
and the self time.  The recorder keeps one aggregate per operation so that
counts can be compared between repeats of the same input.
"""

from __future__ import annotations

import functools
import sys
import time


class OpTrace:
    """Aggregates of one operation: spans by name and named counters."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counters = {}

    def add_span(self, name, total_ns, self_ns):
        agg = self.spans.get(name)
        if agg is None:
            self.spans[name] = [1, total_ns, self_ns]
        else:
            agg[0] += 1
            agg[1] += total_ns
            agg[2] += self_ns

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def counts(self):
        """Everything that must repeat exactly for the same input."""
        out = {f"{name}.calls": agg[0] for name, agg in self.spans.items()}
        out.update(self.counters)
        return out


class Recorder:
    """Span stack plus the current operation's aggregates."""

    def __init__(self):
        self._stack = []
        self.op = OpTrace()

    def start_op(self):
        self.op = OpTrace()
        return self.op

    def wrap(self, name, fn, on_result=None):
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                rec.op.add_span(name, duration, duration - stack.pop())
                if stack:
                    stack[-1] += duration
            if on_result is not None:
                on_result(rec.op, args, result)
            return result

        return wrapper


# -- what is wrapped, and what each wrapper counts ---------------------------


def _count_hit(op, args, result):
    if result is not None:
        op.count("reduction.find_applicable.hits")


def _count_removals(op, args, result):
    op.count("reduction.reduce_pair.removals", len(result[2]))


def _count_parse_bytes(op, args, result):
    op.count("newick.parse_instance.bytes", len(args[0].encode("utf-8")))


def _count_search(op, args, result):
    op.count("fpt.attempts", len(result.attempts))
    for st in result.attempts:
        for field in ("nodes", "leaves", "case1", "case2", "case31", "case32",
                      "collapses", "rule1_edges"):
            op.count(f"fpt.{field}", getattr(st, field))
        op.peak("fpt.max_depth", st.max_depth)


def _count_steps(op, args, result):
    for kind, n in result.step_counts().items():
        op.count(f"approx.steps.{kind}", n)


# (module, attribute, span name, result hook); "Class.method" wraps a method
TARGETS = [
    ("mafkit.cli", "main", "cli.main", None),
    ("mafkit.newick", "parse_instance", "newick.parse_instance", _count_parse_bytes),
    ("mafkit.newick", "serialize", "newick.serialize", None),
    ("mafkit.newick", "format_instance", "newick.format_instance", None),
    ("mafkit.datagen", "generate_instance", "datagen.generate_instance", None),
    ("mafkit.forest", "Forest.split_labels", "forest.split_labels", None),
    ("mafkit.forest", "Forest.find_mss", "forest.find_mss", None),
    ("mafkit.forest", "Forest.sibling_case", "forest.sibling_case", None),
    ("mafkit.forest", "Forest.remove_edges", "forest.remove_edges", None),
    ("mafkit.forest", "Forest.group_labels", "forest.group_labels", None),
    ("mafkit.forest", "Forest.expand_labels", "forest.expand_labels", None),
    ("mafkit.forest", "Forest.canonical_key", "forest.canonical_key", None),
    ("mafkit.forest", "AgreementForest.verify", "forest.verify", None),
    ("mafkit.forest", "certify", "forest.certify", None),
    ("mafkit.reduction", "find_applicable", "reduction.find_applicable", _count_hit),
    ("mafkit.reduction", "reduce_pair", "reduction.reduce_pair", _count_removals),
    ("mafkit.fpt", "find_min_k", "fpt.find_min_k", _count_search),
    ("mafkit.approx", "approx_rmaf", "approx.approximate", _count_steps),
    ("mafkit.approx", "approx_umaf", "approx.approximate", _count_steps),
    ("mafkit.approx", "essential_subset", "approx.essential_subset", None),
    ("mafkit.approx", "check_metastep_ratio", "approx.check_metastep_ratio", None),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS})


def install(recorder):
    """Wrap every target everywhere it is bound; returns the undo function."""
    undo = []
    mafkit_modules = [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "mafkit" or name.startswith("mafkit."))
    ]
    for module_name, attr, span, hook in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(span, original, hook))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(span, original, hook)
        for mod in mafkit_modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    undo.append((mod, name, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
