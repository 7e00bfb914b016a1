"""Seeded input generation for the CLI benchmark.

    PYTHONPATH=src python3 perfbench/gen.py --workload exact-verify --seed 3 --out DIR

Writes every problem and polynomial one run needs as JSON files under
DIR, plus DIR/manifest.json: the workload's fixed list of CLI
operations (argument vectors relative to DIR) with the facts the output
checks need.  Every operation gets a problem of its own.  The same
workload and seed always give the same bytes, so the program under test
receives only these files.  With --repeats R --min-seconds S the inputs
are generated in this process at least R times and until S seconds of
generating have passed, each time into an emptied DIR; the last line of
standard output is {"setup_s": [seconds per repeat]}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import time

import numpy as np

from mvjacobi.numeric import integrability_check
from mvjacobi.operators import ProblemSpec
from mvjacobi.rational import Rat, format_rational
from mvjacobi.sampling import (
    random_diagonal,
    random_matrix,
    random_problem_spec,
    random_vector_poly,
)

VERIFY_KMAX = 6
COMPUTE_KMAX = 7
EXPAND_DEGREE = 6
QUAD_TOL = "1e-6"
QUAD_SCALE = Rat(1, 8)  # small-norm residues keep the weight near-polynomial
QUAD_MIN_EXPONENT = -0.05
QUAD_MIN_EIGEN_GAP = 0.05
# (d, n, commutative, j, k, side): one commutative problem at the
# default tolerance, then noncommutative ones, one at N = 6 and five
# at N = 18.  Every pair is claimed (the right side vanishes for j < k, the
# left for j > k) and has j, k <= 3.  The seed draws the problems; the
# pairs are fixed, so the amount of work varies little between seeds.
QUAD_PLAN = [
    (2, 2, True, 2, 1, "left"),
    (2, 2, False, 0, 3, "right"),
    (3, 2, False, 0, 1, "right"),
    (3, 2, False, 0, 2, "right"),
    (3, 2, False, 1, 3, "right"),
    (3, 2, False, 2, 0, "left"),
    (3, 2, False, 3, 1, "left"),
]

# (d, n) lists, N = d * C(n + d - 1, d - 1).  Each list is sized so that
# a run repeats it twice, and one size holds a majority so the median
# per operation falls inside one size class.  Many operations of
# a few seconds keep a run's total steadier than a few long ones.
# verify --kmax 6 stops at N = 8: at N = 18 one operation takes 11-17 s
# on a 2-core host.
VERIFY_GRID = [(2, 3), (2, 2)] * 2 + [(2, 3)]  # N = 8, 6, 8, 6, 8
MEMBERS_GRID = [(2, 3), (3, 2), (2, 3)]  # N = 8, 18, 8


def _matrix(M) -> list[list[str]]:
    return [[format_rational(e) for e in row] for row in M.rows]


class _Writer:
    def __init__(self, out: str):
        self.out = out
        self.count = 0

    def problem(self, spec: ProblemSpec) -> str:
        name = f"problem_{self.count:03d}.json"
        self.count += 1
        self._write(name, {"d": spec.d, "n": spec.n,
                           "A": _matrix(spec.A), "B": _matrix(spec.B)})
        return name

    def poly(self, spec: ProblemSpec, rng: random.Random) -> str:
        f = random_vector_poly(rng, spec.space, EXPAND_DEGREE)
        name = f"poly_{self.count:03d}.json"
        self.count += 1
        self._write(name, {"d": spec.d, "n": spec.n,
                           "coeffs": [[format_rational(e) for e in c] for c in f.coeffs]})
        return name

    def _write(self, name: str, doc: dict) -> None:
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)


def _op(kind: str, spec: ProblemSpec, argv: list[str], k_max: int, **extra) -> dict:
    return {"kind": kind, "argv": [kind] + argv, "d": spec.d, "n": spec.n,
            "N": spec.space.N, "k_max": k_max, **extra}


def _dense_spec(rng: random.Random, d: int, n: int) -> ProblemSpec:
    """A random_problem_spec problem whose A and B have no zero entry.

    A zero off the diagonal makes A triangular or diagonal, and with it
    the operators sparser and an operation cheaper, so that a list of a
    few problems would cost what its seed happens to draw.
    """
    for _ in range(10000):
        spec = random_problem_spec(rng, d, n)
        if all(e != 0 for M in (spec.A, spec.B) for row in M.rows for e in row):
            return spec
    raise RuntimeError(f"no problem without zero entries at d={d}, n={n}")


def exact_verify(rng: random.Random, w: _Writer) -> list[dict]:
    ops = []
    for d, n in VERIFY_GRID:
        spec = _dense_spec(rng, d, n)
        ops.append(_op("verify", spec,
                       ["--input", w.problem(spec), "--suite", "all",
                        "--kmax", str(VERIFY_KMAX), "--format", "json"],
                       VERIFY_KMAX))
    return ops


def members_expand(rng: random.Random, w: _Writer) -> list[dict]:
    ops = []
    for d, n in MEMBERS_GRID:
        spec = _dense_spec(rng, d, n)
        prob = w.problem(spec)
        ops.append(_op("compute", spec,
                       ["--input", prob, "--kmax", str(COMPUTE_KMAX), "--format", "json"],
                       COMPUTE_KMAX))
        ops.append(_op("expand", spec,
                       ["--input", prob, "--poly", w.poly(spec, rng),
                        "--roundtrip", "--format", "json"],
                       EXPAND_DEGREE))
    return ops


def _eigen_gap(M) -> float:
    eig = np.linalg.eigvals(np.array([[float(e) for e in row] for row in M.rows]))
    return min(abs(a - b) for i, a in enumerate(eig) for b in eig[i + 1:])


def _quad_spec(rng: random.Random, d: int, n: int, commutative: bool) -> ProblemSpec:
    """Small-norm pair with A + B diagonal and a near-polynomial weight.

    integrability_check's fast_ok only asks for endpoint exponents
    > -1/2, and claimed integrals at tolerance 1e-6 fail inside that
    range: the part of the integral beyond the solver's endpoint cap
    (1 - 1e-12) grows like cap^(1 + exponent) times |P_j| |P_k|, and a
    residue with a repeated eigenvalue (a nilpotent A, say) adds
    logarithmic terms.  Residues scaled by 1/8, exponents >=
    QUAD_MIN_EXPONENT, noncommutative residues with eigenvalues
    QUAD_MIN_EIGEN_GAP apart, and k <= 3 keep every claim two orders of
    magnitude inside its tolerance.
    """
    for _ in range(10000):
        lam = random_diagonal(rng, d).scale(QUAD_SCALE)
        if commutative:
            A = random_diagonal(rng, d).scale(QUAD_SCALE)
        else:
            A = random_matrix(rng, d).scale(QUAD_SCALE)
            if A.diag is not None:
                continue
        spec = ProblemSpec(d, n, A, lam - A)
        rep = integrability_check(spec, spec.space)
        worst = min(rep.min_exponent_plus, rep.min_exponent_minus)
        if not rep.fast_ok or worst < QUAD_MIN_EXPONENT:
            continue
        if commutative or min(_eigen_gap(spec.A), _eigen_gap(spec.B)) >= QUAD_MIN_EIGEN_GAP:
            return spec
    raise RuntimeError(f"no admissible quadrature problem at d={d}, n={n}")


def quadrature_nc(rng: random.Random, w: _Writer) -> list[dict]:
    ops = []
    for d, n, commutative, j, k, side in QUAD_PLAN:
        spec = _quad_spec(rng, d, n, commutative)
        argv = ["--input", w.problem(spec), "--j", str(j), "--k", str(k),
                "--side", side, "--format", "json"]
        if not commutative:
            argv += ["--tol", QUAD_TOL]
        ops.append(_op("quadrature", spec, argv, max(j, k),
                       j=j, k=k, side=side, commutative=commutative))
    return ops


WORKLOADS = {
    "exact-verify": exact_verify,
    "members-expand": members_expand,
    "quadrature-nc": quadrature_nc,
}


def generate(workload: str, seed: int, out: str) -> str:
    """Write the inputs of one workload and seed under out; returns the manifest."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(out)
    ops = WORKLOADS[workload](rng, writer)
    manifest = {"workload": workload, "seed": seed, "rat_backend": Rat.__module__, "ops": ops}
    text = json.dumps(manifest, sort_keys=True, indent=1)
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    parser.add_argument("--repeats", type=int, default=1, help="generate at least this often")
    parser.add_argument("--min-seconds", type=float, default=0.0,
                        help="and until this much time went into generating")
    args = parser.parse_args()
    times, manifests = [], set()
    while len(times) < args.repeats or sum(times) < args.min_seconds:
        shutil.rmtree(args.out, ignore_errors=True)
        start = time.perf_counter()
        manifests.add(generate(args.workload, args.seed, args.out))
        times.append(time.perf_counter() - start)
    if len(manifests) != 1:
        raise SystemExit("input generation is not deterministic for this seed")
    print(json.dumps({"setup_s": times}))


if __name__ == "__main__":
    main()
