"""Per-layer metrics from the spans traced_cli.py writes.

A span's time is counted once per outermost occurrence of its name;
cli.self_s is cli.main's duration minus the time its direct children
cover.  summarize() gives one operation's figures; combine() turns the
traced operations of a run into the run's per-layer metrics: means per
operation, except the maxima max_entry_bits and de_level.
"""

from __future__ import annotations

from collections import defaultdict

# metric -> span name: summed time of the outermost spans of that name
SPAN_TIME = {
    "cli.import_s": "cli.import",
    "cli.load_s": "cli.load",
    "ratmat.matmul_s": "ratmat.matmul",
    "ratmat.inverse_s": "ratmat.inverse",
    "operators.build_D_s": "operators.build_D",
    "operators.induced_action_float_s": "operators.induced_action_float",
    "oppoly.build_Pk_s": "oppoly.build_Pk",
    "oppoly.apply_A_s": "oppoly.apply_A",
    "structure.verify_recurrence_s": "structure.verify_recurrence",
    "structure.recurrence_coeffs_s": "structure.recurrence_coeffs",
    "structure.verify_product_identities_s": "structure.verify_product_identities",
    "structure.verify_derivative_relation_s": "structure.verify_derivative_relation",
    "structure.build_tilde_Pk_s": "structure.build_tilde_Pk",
    "structure.expand_s": "structure.expand",
    "structure.reconstruct_s": "structure.reconstruct",
    "numeric.quasi_orth_integral_s": "numeric.quasi_orth_integral",
    "numeric.de_integrate_s": "numeric.de_integrate",
    "numeric.integrand_s": "numeric.integrand",
    "numeric.ode_sweep_s": "numeric.ode_sweep",
}
# metric -> span name: number of spans of that name
SPAN_CALLS = {
    "ratmat.matmul_calls": "ratmat.matmul",
    "ratmat.inverse_calls": "ratmat.inverse",
    "operators.induced_action_float_calls": "operators.induced_action_float",
    "oppoly.apply_A_calls": "oppoly.apply_A",
    "numeric.integrand_calls": "numeric.integrand",
}
# metric -> counter traced_cli.py keeps
COUNTERS = {
    "ratmat.matmul_dense_calls": "ratmat.matmul_dense_calls",
    "ratmat.max_entry_bits": "ratmat.max_entry_bits",
    "oppoly.build_Pk_misses": "oppoly.build_Pk_misses",
    "numeric.ode_nfev": "numeric.ode_nfev",
}
MAXIMA = ("ratmat.max_entry_bits", "numeric.de_level")

UNITS = {
    **{name: "s" for name in SPAN_TIME},
    **{name: "count" for name in SPAN_CALLS},
    "cli.self_s": "s",
    "ratmat.matmul_dense_calls": "count",
    "ratmat.max_entry_bits": "bits",
    "oppoly.build_Pk_misses": "count",
    "numeric.ode_nfev": "count",
    "numeric.de_level": "level",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}


def summarize(trace: dict) -> dict:
    """One traced operation's per-layer figures."""
    spans = trace["spans"]
    total: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    covered: dict = defaultdict(float)
    for name, start, end, parent in spans:
        dur = end - start
        calls[name] += 1
        if parent >= 0:
            covered[parent] += dur
        q = parent
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            total[name] += dur
    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    out = {metric: total[span] for metric, span in SPAN_TIME.items()}
    out.update({metric: calls[span] for metric, span in SPAN_CALLS.items()})
    counters = trace["counters"]
    out.update({metric: counters[key] for metric, key in COUNTERS.items()})
    out["cli.self_s"] = spans[main][2] - spans[main][1] - covered[main]
    out["numeric.de_level"] = max(counters["numeric.de_levels"], default=0)
    return out


def combine(per_op: list[dict]) -> dict:
    """Means per operation (maxima for MAXIMA) over the traced operations."""
    out = {}
    for metric in per_op[0]:
        values = [op[metric] for op in per_op]
        out[metric] = max(values) if metric in MAXIMA else sum(values) / len(values)
    return out
