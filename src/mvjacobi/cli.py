"""Command-line front end: compute, verify, expand, quadrature.

Problems arrive as JSON documents whose matrix entries are rational
strings "p/q" (lowest terms, positive denominator); results leave the
same way, so files round-trip losslessly.  Every document carries a
header with the only nondeterministic field (the timestamp); the rest
of the output is a pure function of the inputs.

Exit codes are a stable contract:
    0  success / all selected checks passed
    1  a verification check failed, or an internal self-check did
    2  parse, validation, or precondition error
    3  resonance (a required operator is singular)
    4  quadrature failed to converge
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import OdeError, QuadratureError, ResonanceError
from .operators import ProblemSpec
from .oppoly import OpPoly, VectorPoly, build_Pk
from .polyspace import PolySpace, basis_size
from .ratmat import RatMatrix
from .rational import format_rational, parse_rational

# verify and expand import the structure layer where they run it, and quadrature
# the integrals layer (numpy only when noncommutative), so compute loads neither.
if TYPE_CHECKING:
    from .integrals import IntegrabilityReport, NumericReport
    from .reporting import CheckReport

TOOL = "mvjacobi/0.1.0"
DEFAULT_VERIFY_KMAX = 6
DEFAULT_COMPUTE_KMAX = 4
SUITES = ("all", "recurrence", "tilde", "scalar", "trace", "identities")
# Size caps, refused with exit 2 before anything is built.  Time grows
# about like N^2.3 (the recurrence's dense products) and memory like
# N^2 k^2 (the cached members); at N = 140 and k_max = 10, `verify` takes
# 60 s and `compute` peaks at 297 MB on a shared 2-core x86-64 host.
# README, "Size limits", has the measurements.
MAX_N = 150
MAX_KMAX = 10


# -- serialization -----------------------------------------------------------


def _matrix_to_json(M: RatMatrix) -> list[list[str]]:
    """Entries as lowest-terms "p/q" (or "p") strings, from the integer numerators."""
    den = M.den
    if den == 1:
        return [[str(e) for e in row] for row in M.num]
    out = []
    for row in M.num:
        texts = []
        for e in row:
            g = gcd(e, den)
            texts.append(str(e // g) if g == den else f"{e // g}/{den // g}")
        out.append(texts)
    return out


def _matrix_from_json(rows, what: str) -> RatMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{what} must be a list of rows")
    return RatMatrix([[parse_rational(e) for e in row] for row in rows])


def _vector_to_json(vec) -> list[str]:
    return [format_rational(e) for e in vec]


def _oppoly_to_json(P: OpPoly) -> list[list[list[str]]]:
    return [_matrix_to_json(c) for c in P.coeffs]


def _basis_manifest(space: PolySpace) -> list[dict]:
    return [{"m": list(b.m), "j": b.j} for b in space.basis]


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a problem file is a mistake
    return isinstance(value, int) and not isinstance(value, bool)


def load_problem(path: str) -> tuple[ProblemSpec, dict]:
    """Parse a problem document; returns the ProblemSpec and the raw JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("d", "n", "A", "B"):
        if key not in doc:
            raise ValueError(f"problem file is missing key {key!r}")
    # "seed" is accepted for older files and otherwise ignored: every
    # verifier is exact and deterministic
    for key in ("d", "n", "k_max", "seed"):
        if key in doc and not _is_int(doc[key]):
            raise ValueError(f"{key} must be an integer")
    _check_dimension(doc["d"], doc["n"])
    A = _matrix_from_json(doc["A"], "A")
    B = _matrix_from_json(doc["B"], "B")
    return ProblemSpec(doc["d"], doc["n"], A, B), doc


def _check_dimension(d: int, n: int) -> None:
    """Refuse a coefficient dimension N above MAX_N, computed by formula."""
    if d < 1 or n < 1:
        return  # ProblemSpec names the error
    # for d >= 2, N exceeds both d and n, so a huge d or n needs no binomial
    N = basis_size(d, n) if d == 1 or max(d, n) <= MAX_N else None
    if N is None or N > MAX_N:
        size = f"N > {MAX_N}" if N is None else f"N = {N}"
        raise ValueError(f"d={d}, n={n} gives coefficient dimension {size}, "
                         f"above the cap MAX_N = {MAX_N}")


def _check_index(k: int, what: str) -> None:
    """Refuse a member index above MAX_KMAX."""
    if k > MAX_KMAX:
        raise ValueError(f"{what} = {k} is above the cap MAX_KMAX = {MAX_KMAX}")


def load_vector_poly(path: str, spec: ProblemSpec) -> VectorPoly:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise ValueError("polynomial file must be a JSON object with a 'coeffs' key")
    for key in ("d", "n"):
        if key in doc and not _is_int(doc[key]):
            raise ValueError(f"{key} must be an integer")
    if doc.get("d", spec.d) != spec.d or doc.get("n", spec.n) != spec.n:
        raise ValueError(
            f"polynomial file is for d={doc.get('d')}, n={doc.get('n')}; "
            f"the problem has d={spec.d}, n={spec.n}"
        )
    if not isinstance(doc["coeffs"], list):
        raise ValueError("'coeffs' must be a list of coefficient arrays")
    space = spec.space
    coeffs = []
    for c in doc["coeffs"]:
        if not isinstance(c, list) or len(c) != space.N:
            raise ValueError(f"each coefficient must be a length-{space.N} array")
        coeffs.append(tuple(parse_rational(e) for e in c))
    return VectorPoly(coeffs, space)


def _utc_isoformat(t: float) -> str:
    """datetime.fromtimestamp(t, timezone.utc).isoformat() for t >= 0, built with time.

    The fraction is rounded to microseconds half to even, as datetime
    does, and left out when it is zero.
    """
    frac, whole = math.modf(t)
    us = round(frac * 1e6)
    if us == 1_000_000:
        whole, us = whole + 1, 0
    tm = time.gmtime(whole)
    text = (f"{tm.tm_year:04d}-{tm.tm_mon:02d}-{tm.tm_mday:02d}"
            f"T{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d}")
    return text + (f".{us:06d}" if us else "") + "+00:00"


def _header() -> dict:
    return {"tool": TOOL, "generated_at": _utc_isoformat(time.time())}


def _strict(value):
    """value rebuilt with each non-finite float spelled "inf", "-inf" or "nan".

    JSON has no such numbers; Python's json would write the non-standard
    tokens Infinity and NaN, which strict parsers reject.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(doc: dict, out: Optional[str]) -> None:
    # streamed: neither the whole text nor its chunks are held at once.
    # Only quadrature documents hold floats; cmd_quadrature makes them strict.
    with (open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _kmax(args, raw: dict, default: int) -> int:
    k_max = args.kmax if args.kmax is not None else raw.get("k_max", default)
    if k_max < 0:
        raise ValueError("k_max must be a nonnegative integer")
    _check_index(k_max, "k_max")
    return k_max


# -- commands ----------------------------------------------------------------


def cmd_compute(args) -> int:
    spec, raw = load_problem(args.input)
    k_max = _kmax(args, raw, DEFAULT_COMPUTE_KMAX)
    space = spec.space
    members = [
        {"k": k, "coeffs": _oppoly_to_json(build_Pk(spec, k))}
        for k in range(k_max + 1)
    ]
    doc = {
        "header": _header(),
        "kind": "members",
        "spec": {"d": spec.d, "n": spec.n,
                 "A": _matrix_to_json(spec.A), "B": _matrix_to_json(spec.B)},
        "basis": _basis_manifest(space),
        "members": members,
    }
    _emit(doc, args.out)
    if args.out:
        print(f"wrote members k=0..{k_max} (N={space.N}) to {args.out}")
    return 0


def _suite_reports(spec: ProblemSpec, suite: str, k_max: int) -> list[CheckReport]:
    from .structure import (
        verify_derivative_relation,
        verify_product_identities,
        verify_recurrence,
        verify_scalar_eigen_identity,
        verify_scalar_reduction,
        verify_trace_legendre,
    )

    reports: list[CheckReport] = []
    explicit = suite != "all"

    def want(name: str, applicable: bool, why: str) -> bool:
        if suite not in (name, "all"):
            return False
        if applicable:
            return True
        if explicit:
            raise ValueError(f"suite {name!r} is not applicable: {why}")
        return False

    if want("recurrence", True, ""):
        reports.append(verify_recurrence(spec, k_max))
    if want("identities", True, ""):
        reports.append(verify_product_identities(spec))
    if want("tilde", spec.n >= 2, "the shifted family needs n >= 2"):
        reports.append(verify_derivative_relation(spec, k_max))
    if want("scalar", spec.d == 1, "scalar reductions need d = 1"):
        a = spec.A.rows[0][0]
        b = spec.B.rows[0][0]
        reports.append(verify_scalar_reduction(a, b, spec.n, k_max))
        reports.append(verify_scalar_eigen_identity(a, b, spec.n, k_max))
    if want("trace", spec.n == 1, "the trace reduction needs n = 1"):
        reports.append(verify_trace_legendre(spec, k_max))
    return reports


def cmd_verify(args) -> int:
    spec, raw = load_problem(args.input)
    k_max = _kmax(args, raw, DEFAULT_VERIFY_KMAX)
    reports = _suite_reports(spec, args.suite, k_max)
    all_passed = bool(reports) and all(r.passed for r in reports)
    if args.format == "json":
        doc = {
            "header": _header(),
            "kind": "verification",
            "suite": args.suite,
            "k_max": k_max,
            "passed": all_passed,
            "reports": [r.to_dict() for r in reports],
        }
        _emit(doc, args.out)
    else:
        for rep in reports:
            for line in rep.summary_lines():
                print(line)
            ok, total = rep.counts
            print(f"{rep.title}: {ok}/{total} checks passed")
        print("overall: PASS" if all_passed else "overall: FAIL")
    return 0 if all_passed else 1


def cmd_expand(args) -> int:
    from .structure import expand, reconstruct

    spec, _raw = load_problem(args.input)
    f = load_vector_poly(args.poly, spec)
    _check_index(f.degree, "polynomial degree")
    expansion = expand(spec, f)
    roundtrip_ok = None
    if args.roundtrip:
        roundtrip_ok = reconstruct(spec, expansion) == f
    doc = {
        "header": _header(),
        "kind": "expansion",
        "spec": {"d": spec.d, "n": spec.n},
        "basis": _basis_manifest(spec.space),
        "coefficients": [_vector_to_json(q) for q in expansion.coefficients],
    }
    if roundtrip_ok is not None:
        doc["roundtrip_exact"] = roundtrip_ok
    _emit(doc, args.out)
    if args.roundtrip and not roundtrip_ok:
        print("roundtrip failed: reconstruction does not equal the input", file=sys.stderr)
        return 1
    return 0


def cmd_quadrature(args) -> int:
    # only this command loads integrals, and numeric (numpy) only when noncommutative
    from .integrals import integrability_check, quasi_orth_integral

    spec, _raw = load_problem(args.input)
    _check_index(max(args.j, args.k), "member index")
    report = quasi_orth_integral(spec, args.j, args.k, args.side, tol=args.tol,
                                 ode_tol=args.ode_tol,
                                 override_integrability=args.override_integrability)
    # the integral's gate has already made this memoized check
    integ = integrability_check(spec, spec.space, args.j, args.k)
    if args.format == "json":
        doc = {
            "header": _header(),
            "kind": "quadrature",
            "integrability": integ.to_dict(),
            "report": report.to_dict(),
        }
        _emit(_strict(doc), args.out)
    else:
        _print_numeric(integ, report)
    return 0 if report.passed else 1


def _print_numeric(integ: IntegrabilityReport, report: NumericReport) -> None:
    kind = "heuristic" if integ.heuristic else "exact"
    print(f"integrability ({kind}): min exponent {min(integ.min_exponent_plus, integ.min_exponent_minus):g}"
          f" ({integ.detail})")
    mark = "PASS" if report.passed else "FAIL"
    claim = "" if report.claimed else " [informational, no vanishing claim]"
    print(f"[{mark}] {report.quantity}{claim}")
    print(f"  max |entry| = {report.max_abs_entry:.3e}"
          f"  estimated quadrature error = {report.estimated_quadrature_error:.3e}"
          f"  tolerance = {report.tolerance:.3e}"
          + ("" if report.de_level is None else f"  DE level = {report.de_level}"))
    if report.detail:
        print(f"  {report.detail}")


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvjacobi",
        description="Exact construction and verification of matrix-valued "
                    "Jacobi-type polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument("--out", help="output JSON file (default: stdout)")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("compute", help="build members P_0..P_kmax and serialize them")
    common(p)
    p.add_argument("--kmax", type=int, help="highest member index (default: file k_max or 4)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run exact verification suites")
    common(p)
    p.add_argument("--kmax", type=int, help="highest member index (default: file k_max or 6)")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="expand a coefficient-vector polynomial over the family")
    common(p)
    p.add_argument("--poly", required=True, help="VectorPoly JSON file")
    p.add_argument("--roundtrip", action="store_true",
                   help="re-synthesize the expansion and require exact equality")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("quadrature", help="weighted quasi-orthogonality integral")
    common(p)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--side", choices=("right", "left"), required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="vanishing tolerance of noncommutative problems "
                        "(commutative ones are decided exactly)")
    p.add_argument("--ode-tol", dest="ode_tol", type=float, default=1e-10,
                   help="relative tolerance for the fundamental-matrix solve")
    p.add_argument("--override-integrability", dest="override_integrability",
                   action="store_true",
                   help="run a noncommutative integral even when its heuristic "
                        "endpoint-exponent check fails")
    p.set_defaults(func=cmd_quadrature)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResonanceError as exc:
        print(f"resonance: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 4
    except OdeError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # build_Pk, recurrence_coeffs and expand re-check their own results;
        # a failed self-check is a failed check
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

