"""The per-layer metric table of the traced run."""

from __future__ import annotations

import spans

# Spans that run while the corpus is built, reported per corpus build.
SETUP_SPANS = ("datagen.generate_instance", "newick.format_instance")


def layer_metrics(ops, setup_op, counts):
    """Per-layer metrics from per-operation span aggregates.

    Times are means per traced operation (set-up spans: per corpus build).
    ``counts`` holds the call counts and counters summed over the operations
    of the first pass, which repeat exactly.
    """
    out = {}
    n_ops = len(ops)
    for name in spans.SPAN_NAMES:
        if name in SETUP_SPANS:
            calls, total_ns, self_ns = setup_op.spans.get(name, (0, 0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total_ns / 1e6
            out[f"{name}.self_ms"] = self_ns / 1e6
            continue
        total_ns = sum(op.spans.get(name, (0, 0, 0))[1] for op in ops)
        self_ns = sum(op.spans.get(name, (0, 0, 0))[2] for op in ops)
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        out[f"{name}.total_ms"] = total_ns / 1e6 / n_ops
        out[f"{name}.self_ms"] = self_ns / 1e6 / n_ops
    scans = counts.get("reduction.find_applicable.calls", 0)
    out["reduction.find_applicable.hit_ratio"] = (
        counts.get("reduction.find_applicable.hits", 0) / scans if scans else 0.0
    )
    out["reduction.reduce_pair.removals"] = counts.get("reduction.reduce_pair.removals", 0)
    parse_ns = sum(op.spans.get("newick.parse_instance", (0, 0, 0))[1] for op in ops)
    parse_bytes = sum(op.counters.get("newick.parse_instance.bytes", 0) for op in ops)
    out["newick.parse_instance.mb_per_s"] = (
        parse_bytes / 1e6 / (parse_ns / 1e9) if parse_ns else 0.0
    )
    for field in ("attempts", "nodes", "leaves", "max_depth", "case1", "case2",
                  "case31", "case32", "collapses", "rule1_edges"):
        out[f"fpt.{field}"] = counts.get(f"fpt.{field}", 0)
    for kind in ("rule1", "group", "ms2", "ms31", "ms32"):
        out[f"approx.steps.{kind}"] = counts.get(f"approx.steps.{kind}", 0)
    return out


def quality_metrics(outcomes):
    """Approximation quality over successful operations.

    ``amaf_order.mean`` is the mean approximation order (``maf amaf`` output,
    or the bootstrap k' of ``maf pmaf``); ``approx_ratio.max`` is the largest
    k' / exact order.  Both are 0 where the workload produces no such order.
    """
    approx = [o.approx_order for o in outcomes if o.approx_order is not None]
    ratios = [
        o.approx_order / o.exact_order
        for o in outcomes
        if o.approx_order is not None and o.exact_order
    ]
    return {
        "amaf_order.mean": sum(approx) / len(approx) if approx else 0.0,
        "approx_ratio.max": max(ratios, default=0.0),
    }
