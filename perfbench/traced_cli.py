"""Run one mvjacobi CLI command with spans around the package's layers.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE.json -- verify --input p.json ...

Imports mvjacobi.cli (timed as the span "cli.import"), wraps the public
functions of each module in every module namespace that looks them up,
then calls mvjacobi.cli.main(argv).  Spans (name, start, end, parent)
stay in memory and are written to TRACE.json at exit together with a few
counters; the exit code is main's.  Nothing in the package changes.
"""

from __future__ import annotations

import json
import os
import sys
import time

perf_counter = time.perf_counter

# (module, attribute, span name); the span name's prefix is the layer
WRAPPED = [
    ("mvjacobi.cli", "load_problem", "cli.load"),
    ("mvjacobi.cli", "load_vector_poly", "cli.load"),
    ("mvjacobi.operators", "build_D", "operators.build_D"),
    ("mvjacobi.operators", "induced_action_float", "operators.induced_action_float"),
    ("mvjacobi.oppoly", "build_Pk", "oppoly.build_Pk"),
    ("mvjacobi.oppoly", "apply_A", "oppoly.apply_A"),
    ("mvjacobi.structure", "verify_recurrence", "structure.verify_recurrence"),
    ("mvjacobi.structure", "recurrence_coeffs", "structure.recurrence_coeffs"),
    ("mvjacobi.structure", "verify_product_identities", "structure.verify_product_identities"),
    ("mvjacobi.structure", "verify_derivative_relation", "structure.verify_derivative_relation"),
    ("mvjacobi.structure", "build_tilde_Pk", "structure.build_tilde_Pk"),
    ("mvjacobi.structure", "expand", "structure.expand"),
    ("mvjacobi.structure", "reconstruct", "structure.reconstruct"),
    ("mvjacobi.numeric", "quasi_orth_integral", "numeric.quasi_orth_integral"),
]


class Recorder:
    """Spans as [name, start, end, parent index]; parent -1 is the root."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counters = {"ratmat.matmul_dense_calls": 0, "ratmat.max_entry_bits": 0,
                         "numeric.de_levels": [], "numeric.ode_nfev": 0}

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1]])

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent]
            if after is not None:
                after(args, out)
            return out

        return wrapper


def _patch_everywhere(orig, replacement) -> None:
    """Rebind every mvjacobi module global that refers to orig."""
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "mvjacobi" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every traced function, method and callable in place."""
    import mvjacobi.numeric as numeric
    from mvjacobi.ratmat import RatMatrix

    for modname, attr, name in WRAPPED:
        orig = getattr(sys.modules[modname], attr)
        _patch_everywhere(orig, rec.wrap(name, orig))

    counters = rec.counters

    def after_matmul(args, out):
        a, b = args
        # the product has already cached both operands' diagonality when a
        # is not diagonal; only dense products pay for the bit-size scan
        if a.__dict__.get("diag") is None and b.diag is None:
            counters["ratmat.matmul_dense_calls"] += 1
            bits = max(max(e.numerator.bit_length(), e.denominator.bit_length())
                       for row in out.rows for e in row)
            if bits > counters["ratmat.max_entry_bits"]:
                counters["ratmat.max_entry_bits"] = bits

    RatMatrix.__matmul__ = rec.wrap("ratmat.matmul", RatMatrix.__matmul__, after_matmul)
    RatMatrix.inverse = rec.wrap("ratmat.inverse", RatMatrix.inverse)

    orig_de = numeric.de_integrate

    def de_integrate(integrand, *args, **kwargs):
        return orig_de(rec.wrap("numeric.integrand", integrand), *args, **kwargs)

    def after_de(args, out):
        counters["numeric.de_levels"].append(out[2])

    _patch_everywhere(orig_de, rec.wrap("numeric.de_integrate", de_integrate, after_de))

    def after_ivp(args, sol):
        counters["numeric.ode_nfev"] += int(sol.nfev)

    numeric.solve_ivp = rec.wrap("numeric.ode_sweep", numeric.solve_ivp, after_ivp)


def main() -> int:
    trace_path = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        raise SystemExit("usage: traced_cli.py TRACE.json -- <mvjacobi arguments>")
    argv = sys.argv[3:]
    # look modules up as `python -m mvjacobi` does: the working directory first
    sys.path[0] = os.getcwd()
    rec = Recorder()
    start = perf_counter()
    import mvjacobi.cli as cli
    import mvjacobi.oppoly as oppoly

    rec.add("cli.import", start, perf_counter())
    build_Pk = oppoly.build_Pk  # the cached original, read after the run
    install(rec)
    try:
        code = rec.wrap("cli.main", cli.main)(argv)
    finally:
        rec.counters["oppoly.build_Pk_misses"] = build_Pk.cache_info().misses
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
