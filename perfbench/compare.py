"""Compare two sets of benchmark result files under the benchmark's bounds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by perfbench/run.py or a
directory of them (for example .perfbench/results copied from two
commits).  For every workload with untraced runs on both sides, each
end-to-end metric is compared median against median: a metric is
"worse" when the new median exceeds the base median by more than the
metric's bound from BENCHMARK.json (the printed metrics it does not
list, such as wall_s and the medians per operation, use wall_ref's
bound; fail_ratio allows no increase), and "unresolved" when the base
runs' own quartile spread is wider than the bound.  Outputs of
operations run on the same workload and seed are compared by digest.
Exits 1 if a metric is worse or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("meta", {}).get("trace") == 0:
            out.append(doc)
    return out


def _values(docs: list[dict]) -> dict:
    """workload -> metric -> list of values, one per run."""
    out: dict = {}
    for doc in docs:
        per = out.setdefault(doc["meta"]["workload"], {})
        for name, m in {**doc["metrics"], **doc["extra"]}.items():
            per.setdefault(name, []).append(m["value"])
    return out


def _spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def _digests(docs: list[dict]) -> dict:
    out = {}
    for doc in docs:
        meta = doc["meta"]
        for op in doc["ops"]:
            out.setdefault((meta["workload"], meta["seed"], op["position"]), op["digest"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    base_docs, new_docs = _load(args.base), _load(args.new)
    base, new = _values(base_docs), _values(new_docs)
    bad = False
    for workload in sorted(set(base) & set(new)):
        runs = (len(base[workload]["wall_ref"]), len(new[workload]["wall_ref"]))
        print(f"{workload}: {runs[0]} base run(s), {runs[1]} new run(s)")
        # ref_s times the host's reference process, which no commit moves
        for name in sorted((set(base[workload]) & set(new[workload])) - {"ref_s"}):
            b, n = base[workload][name], new[workload][name]
            bmed, nmed = statistics.median(b), statistics.median(n)
            if name == "fail_ratio":
                bound = 0.0
                verdict = "worse" if nmed > bmed else "ok"
            else:
                bound = bounds.get(name, bounds["wall_ref"])
                spread = _spread(b)
                if nmed > bmed * (1 + bound):
                    verdict = "worse"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            change = (nmed / bmed - 1) if bmed else 0.0
            bad |= verdict == "worse"
            print(f"  {name:20s} base {bmed:10.4g}  new {nmed:10.4g}  "
                  f"change {change:+7.1%}  bound {bound:.0%}  {verdict}")
    bd, nd = _digests(base_docs), _digests(new_docs)
    common = sorted(set(bd) & set(nd))
    differ = [key for key in common if bd[key] != nd[key]]
    print(f"digests: {len(common) - len(differ)} of {len(common)} shared operations identical")
    for key in differ:
        print(f"  differs: workload {key[0]} seed {key[1]} position {key[2]}")
    return 1 if bad or differ else 0


if __name__ == "__main__":
    sys.exit(main())
