"""The traced spans, and the per-layer metrics made from them.

This module is the one list of what the traced runner wraps: every span
named in SPAN_METRICS and every span a counter reads.  A span name is
`module.function`, `module.Class` (its construction) or
`module.Class.method`, for a module of the `quantales` package.

A span's duration is end minus start; its self time is the duration minus
the durations of its direct child spans.  "span" metrics sum the duration
of each span in the group that has no ancestor in the same group, so a
recursive or nested call is not counted twice; "self" metrics sum self
times; "calls" counts spans.  Each metric is summed over one traced pass.
"""

from __future__ import annotations

PARSING = ("parsing.parse_model", "parsing.parse_formula",
           "parsing.parse_frame", "parsing.build")
LATTICE = ("lattice.powerset_lattice", "lattice.make_lattice",
           "lattice.closure_from_meet_closed", "lattice.closed_elements")
EVALUATE = ("semantics.evaluate", "semantics.valid_in_model")

# name: (kind, span names, unit, better)
SPAN_METRICS = {
    "parsing.self_s": ("self", PARSING, "s", "lower"),
    "parsing.calls": ("calls", PARSING, "count", "lower"),
    "lattice.self_s": ("self", LATTICE, "s", "lower"),
    "quantale.build_s": ("span", ("quantale.relation_quantale",
                                  "quantale.groupoid_quantale"), "s", "lower"),
    "quantale.validate_s": ("span", ("quantale.make_quantale",), "s", "lower"),
    "quantale.locale_s": ("span", ("quantale.supports_locale",), "s", "lower"),
    "nucleus.saturate_s": ("span", ("nucleus.supported_closure",), "s", "lower"),
    "nucleus.closed_scan_s": ("self", ("nucleus.least_nucleus",), "s", "lower"),
    "nucleus.check_s": ("span", ("nucleus.is_nucleus",), "s", "lower"),
    "nucleus.check_calls": ("calls", ("nucleus.is_nucleus",), "count", "lower"),
    "nucleus.quotient_s": ("self", ("nucleus.quotient",), "s", "lower"),
    "bimodal.diamonds_s": ("span", ("bimodal.diamonds_from_point",), "s", "lower"),
    "bimodal.pairs_s": ("span", ("bimodal.conjugate_pairs",), "s", "lower"),
    "semantics.eval_s": ("span", EVALUATE, "s", "lower"),
    "semantics.evaluations": ("outer_calls", EVALUATE, "count", "lower"),
    "semantics.model_s": ("span", ("semantics.PointedModel",), "s", "lower"),
    "semantics.models": ("calls", ("semantics.PointedModel",), "count", "lower"),
    "tensor.algebra_s": ("span", ("tensor.TensorAlgebra",), "s", "lower"),
    "tensor.samples_s": ("span", ("tensor.default_samples",), "s", "lower"),
    "tensor.support_s": ("span", ("tensor.TensorAlgebra.support_of_product",),
                         "s", "lower"),
    "tensor.products": ("calls", ("tensor.TensorAlgebra.support_of_product",),
                        "count", "lower"),
    "tensor.laws_s": ("self", ("tensor.check_presupport_laws",
                               "tensor.check_lemmaB_inequalities"), "s", "lower"),
    "cli.self_s": ("self", ("cli.main",), "s", "lower"),
}
# Counters kept while a span runs: the metric, and the amount one call adds
# as a function of its arguments and result.
CALL_COUNTERS = {
    "quantale.make_quantale":
        ("quantale.elements_validated", lambda args, result: args[0].n),
    "nucleus.supported_closure":
        ("nucleus.pairs_saturated", lambda args, result: len(result)),
}
# Generators whose every yielded value adds one to a metric.
YIELD_COUNTERS = {
    "bimodal.join_preserving_endomaps": "bimodal.endomaps",
    "bimodal.conjugate_pairs": "bimodal.conjugate_pairs",
}
# Every span the runner wraps, in a fixed order.
TRACED = tuple(dict.fromkeys(
    [name for _, group, _, _ in SPAN_METRICS.values() for name in group]
    + [*CALL_COUNTERS, *YIELD_COUNTERS]))

# Counter metrics with (unit, better).  Validation stays exhaustive and the
# sweep covers every model, so those two must not fall.
COUNTER_METRICS = {
    "quantale.elements_validated": ("count", "higher"),
    "nucleus.pairs_saturated": ("count", "lower"),
    "bimodal.endomaps": ("count", "lower"),
    "bimodal.pair_space": ("count", "lower"),
    "bimodal.conjugate_pairs": ("count", "higher"),
    "bimodal.conjugate_hit_ratio": ("ratio", "higher"),
    "cli.sweep_models": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec():
    'The per_layer entries of BENCHMARK.json, in report order.'
    out = [(name, unit, better) for name, (_, _, unit, better)
           in SPAN_METRICS.items()]
    out += [(name, unit, better) for name, (unit, better)
            in COUNTER_METRICS.items()]
    return out


def add_invocation(totals, dump):
    """Fold one invocation's spans and counters into running totals."""
    names = dump["names"]
    name_of, parent, start, end = dump["spans"]
    n = len(start)
    duration = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += duration[i]

    def has_ancestor_in(i, group):
        p = parent[i]
        while p >= 0:
            if names[name_of[p]] in group:
                return True
            p = parent[p]
        return False

    members = {}
    for i in range(n):
        members.setdefault(names[name_of[i]], []).append(i)
    for metric, (kind, group, _, _) in SPAN_METRICS.items():
        spans = [i for name in group for i in members.get(name, ())]
        if kind == "self":
            value = sum(duration[i] - child[i] for i in spans)
        elif kind == "calls":
            value = len(spans)
        else:
            outer = [i for i in spans if not has_ancestor_in(i, group)]
            value = (sum(duration[i] for i in outer) if kind == "span"
                     else len(outer))
        totals[metric] = totals.get(metric, 0) + value
    for key, amount in dump["counts"].items():
        totals[key] = totals.get(key, 0) + amount
    # the enumeration tests every ordered pair of the endomaps it yields
    maps = dump["counts"].get("bimodal.endomaps", 0)
    totals["bimodal.pair_space"] = totals.get("bimodal.pair_space", 0) + maps ** 2


def finish(totals, sweep_models, traced_wall, untraced_wall):
    """Every per-layer metric, idle layers reading 0."""
    out = {name: totals.get(name, 0)
           for name in [*SPAN_METRICS, *COUNTER_METRICS]}
    space = out["bimodal.pair_space"]
    out["bimodal.conjugate_hit_ratio"] = (
        out["bimodal.conjugate_pairs"] / space if space else 0.0)
    out["cli.sweep_models"] = sweep_models
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    return out
