"""CLI benchmark for mvjacobi: seeded workloads, one fresh process per operation.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is taken from src/ through
PYTHONPATH, not installed.  Set-up generates the workload's inputs from
the seed (perfbench/gen.py, at least SETUP_REPEATS times and for at
least SETUP_MIN_S seconds, in one process).  The run then makes PASSES
passes over the workload's fixed list of operations, one `python -m
mvjacobi ...` process at a time (a closed loop with one client), and
checks every output.  The amount of work is fixed, so --seconds is only
recorded: BENCHMARK.json's run_seconds is the typical length of a run
on a 2-core host.  Each untraced operation sits between two processes
of perfbench/ref.py, fixed work that uses nothing from the repository.
On a shared host the speed drifts by tens of percent, in spells of
seconds and phases of minutes, and stretches an operation and the
references beside it alike; wall_ref, the gated time, is the sum over
the operations of their wall time over that of their references.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced
pass and the same pass run through perfbench/traced_cli.py, and reports
the per-layer metrics.  Every pass, traced or not, must give each
operation the same output digest.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object, and the
full record (operations, digests, metadata) goes to the --result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
REF = os.path.join(HERE, "ref.py")
WORKLOADS = ("exact-verify", "members-expand", "quadrature-nc")
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5  # cheap set-ups repeat until this much generating is timed
PASSES = 2
OP_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}

perf_counter = time.perf_counter


class SetupError(Exception):
    pass


class RefError(Exception):
    pass


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


class Bench:
    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = os.path.join(root, ".perfbench", f"{workload}-s{seed}-t{int(trace)}")
        self.inputs = os.path.join(self.work, "inputs")
        self.outputs = os.path.join(self.work, "outputs")
        # one thread per process: OpenBLAS would otherwise spin a second
        # thread at import, which on a 2-core host contends with the next
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.records: list[dict] = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> tuple[dict, list[float]]:
        """Generate the inputs repeatedly; returns the manifest and the times."""
        shutil.rmtree(self.work, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", self.inputs,
               "--repeats", str(SETUP_REPEATS), "--min-seconds", str(SETUP_MIN_S)]
        r = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                           text=True, timeout=OP_TIMEOUT_S)
        if r.returncode != 0:
            raise SetupError(f"input generation failed:\n{r.stderr.strip()}")
        times = json.loads(r.stdout.splitlines()[-1])["setup_s"]
        with open(os.path.join(self.inputs, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        os.makedirs(self.outputs)
        return manifest, times

    # -- one operation ---------------------------------------------------

    def run_op(self, op: dict, npass: int, pos: int, traced: bool) -> dict:
        tag = f"p{npass}-{pos}-{'t' if traced else 'u'}"
        out_path = os.path.join(self.outputs, tag + ".json")
        trace_path = os.path.join(self.outputs, tag + ".trace.json")
        argv = op["argv"] + ["--out", out_path]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "mvjacobi"] + argv
        rec = {k: op[k] for k in ("kind", "d", "n", "N", "k_max") if k in op}
        rec.update({k: op[k] for k in ("j", "k", "side") if k in op})
        rec.update({"pass": npass, "position": pos, "traced": traced})

        with open(os.path.join(self.outputs, tag + ".stderr"), "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.inputs, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        rec.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, exit_code=code)

        doc = None
        try:
            with open(out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            pass
        problem_name = op["argv"][op["argv"].index("--input") + 1]
        with open(os.path.join(self.inputs, problem_name), encoding="utf-8") as fh:
            problem = json.load(fh)
        reason = "timeout" if code == -9 else checks.check_output(op, code, doc, problem)
        rec["digest"] = checks.digest(doc) if isinstance(doc, dict) else None
        if reason is None and op["kind"] == "compute":
            rec["member_bits"] = checks.member_bits(doc)
        if reason is None and traced:
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    rec["layers"] = layers.summarize(json.load(fh))
            except (OSError, ValueError, StopIteration) as exc:
                reason = f"no usable trace: {exc!r}"
        rec["failure"] = reason
        return rec

    def run_ref(self) -> float:
        """Wall time of one perfbench/ref.py process."""
        start = perf_counter()
        try:
            r = subprocess.run([sys.executable, REF], cwd=self.root, env=self.env,
                               stdin=subprocess.DEVNULL, capture_output=True,
                               timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RefError(f"reference process ran past {OP_TIMEOUT_S} s") from None
        wall = perf_counter() - start
        if r.returncode != 0:
            raise RefError(f"reference process exited {r.returncode}: {r.stderr.strip()!r}")
        return wall

    # -- the run ---------------------------------------------------------

    def run(self, ops: list) -> int:
        """Pass over the operation list; returns the number of passes made.

        The count is fixed, never taken from the host's momentary speed.
        A traced run makes one untraced pass followed by the same pass
        traced.  An untraced pass starts with a reference process and
        runs one after each operation.
        """
        passes = 1 if self.trace else PASSES
        modes = (False, True) if self.trace else (False,)
        # untimed: byte-compiles the package, so no pass pays for that
        subprocess.run([sys.executable, "-c", "import mvjacobi.cli"], cwd=self.root,
                       env=self.env, capture_output=True, timeout=OP_TIMEOUT_S)
        for npass in range(passes):
            for traced in modes:
                if traced:
                    self.records.extend(self.run_op(op, npass, pos, True)
                                        for pos, op in enumerate(ops))
                    continue
                # untraced operations sit between two reference processes
                ref = self.run_ref()
                for pos, op in enumerate(ops):
                    rec = self.run_op(op, npass, pos, False)
                    rec["ref_before_s"] = ref
                    rec["ref_after_s"] = ref = self.run_ref()
                    self.records.append(rec)
        self._match_digests()
        return passes

    def _match_digests(self) -> None:
        """Every pass, traced or not, must give an operation the same output."""
        first = {}
        for r in self.records:
            if r["failure"] is not None:
                continue
            want = first.setdefault(r["position"], r["digest"])
            if r["digest"] != want:
                r["failure"] = ("traced output differs from the untraced one" if r["traced"]
                                else "output differs between passes")


def _best_walls(records: list[dict], traced: bool) -> dict:
    """Each operation's fastest wall time over the run's passes."""
    best: dict = {}
    for r in records:
        if r["traced"] == traced:
            best[r["position"]] = min(best.get(r["position"], r["wall_s"]), r["wall_s"])
    return best


def _rel_walls(records: list[dict]) -> dict:
    """Each operation's median wall time over the passes, in reference times.

    An operation's wall time is divided by the mean of the two reference
    processes timed just before and just after it, which a slow spell of
    the host stretches alike.
    """
    rel: dict = {}
    for r in records:
        ref = (r["ref_before_s"] + r["ref_after_s"]) / 2
        rel.setdefault(r["position"], []).append(r["wall_s"] / ref)
    return {pos: statistics.median(v) for pos, v in rel.items()}


def end_to_end(records: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, and the medians and fail ratio with their counts."""
    best = _best_walls(records, False)
    refs = [r["ref_after_s"] for r in records] + [
        r["ref_before_s"] for r in records if r["position"] == 0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": sum(_rel_walls(records).values()),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    kinds = {r["position"]: r["kind"] for r in records}
    extra = {"wall_s": {"value": sum(best.values()), "unit": "s", "count": len(best)},
             "ref_s": {"value": statistics.median(refs), "unit": "s", "count": len(refs)},
             "op_p50_s": {"value": statistics.median(best.values()), "unit": "s",
                          "count": len(best)}}
    for kind in sorted(set(kinds.values())):
        walls = [w for pos, w in best.items() if kinds[pos] == kind]
        extra[f"{kind}_p50_s"] = {"value": statistics.median(walls), "unit": "s",
                                  "count": len(walls)}
    failed = sum(r["failure"] is not None for r in records)
    extra["fail_ratio"] = {"value": failed / len(records), "unit": "fraction",
                           "count": len(records)}
    return metrics, extra


def per_layer(records: list[dict]) -> dict:
    traced = [r["layers"] for r in records if r["traced"] and "layers" in r]
    metrics = layers.combine(traced) if traced else {}
    plain = [r["cpu_s"] for r in records if not r["traced"]]
    metrics["proc.cpu_s"] = sum(plain) / len(plain)
    metrics["trace.overhead_s"] = (sum(_best_walls(records, True).values())
                                   - sum(_best_walls(records, False).values()))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="result file (default: .perfbench/results/...)")
    args = parser.parse_args()
    # a terminated run unwinds, so the operation in flight is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mvjacobi", "cli.py")):
        print("error: run from the root of an mvjacobi checkout (src/mvjacobi is missing)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    try:
        manifest, setup_times = bench.setup()
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    try:
        passes = bench.run(manifest["ops"])
    except RefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = bench.records

    failures = [r for r in records if r["failure"] is not None]
    for r in failures:
        print(f"FAILED {r['kind']} N={r['N']} pass {r['pass']} position {r['position']}: "
              f"{r['failure']}")
    if args.trace:
        metrics = per_layer(records)
        units = layers.UNITS
        extra = {}
        for r in records:
            if r["traced"] and r["kind"] == "quadrature" and "layers" in r:
                lay = r["layers"]
                print(f"traced quadrature N={r['N']} j={r['j']} k={r['k']} {r['side']}: "
                      f"de_level {lay['numeric.de_level']}, "
                      f"integrand_calls {lay['numeric.integrand_calls']}")
    else:
        metrics, extra = end_to_end(records, setup_times)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, m in extra.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (of {m['count']})")
    print(f"{args.workload} passes = {passes}")

    result = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rat_backend": manifest["rat_backend"],
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "commit": _git_commit(root), "setup_s_samples": setup_times,
            "passes": passes,
        },
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "extra": extra,
        "ops": records,
    }
    path = args.result or os.path.join(
        root, ".perfbench", "results",
        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"result file: {os.path.relpath(path, root)}")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
