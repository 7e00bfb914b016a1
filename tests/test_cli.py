import gc
import json
import math
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import DIGESTS, in_process_record, record
from test_golden import _argv as golden_argv
from test_structure import _d1_shift_mutant

import mvjacobi
import mvjacobi.operators
from mvjacobi import cli
from mvjacobi.cli import MAX_KMAX, MAX_N, _matrix_to_json, main
from mvjacobi.oppoly import build_Pk
from mvjacobi.operators import ProblemSpec
from mvjacobi.rational import Rat, format_rational, parse_rational
from mvjacobi.ratmat import RatMatrix
from mvjacobi.sampling import random_problem_spec, random_vector
import random

LEGENDRE = {"d": 1, "n": 1, "A": [["0"]], "B": [["0"]]}
COMMUT_2x2 = {
    "d": 2, "n": 2,
    "A": [["1/2", "0"], ["0", "1/3"]],
    "B": [["1/4", "0"], ["0", "1/5"]],
}
# a complex-conjugate eigenvalue pair with real part 1/16 on each side
NONCOMMUT_2x2 = {
    "d": 2, "n": 2,
    "A": [["1/16", "1/20"], ["-1/20", "1/16"]],
    "B": [["1/16", "-1/20"], ["1/20", "0"]],
}
RESONANT = {"d": 2, "n": 2, "A": [["-3", "0"], ["0", "0"]],
            "B": [["0", "0"], ["0", "0"]]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def spec_of(doc):
    return ProblemSpec(doc["d"], doc["n"],
                       RatMatrix([[Rat(e) for e in r] for r in doc["A"]]),
                       RatMatrix([[Rat(e) for e in r] for r in doc["B"]]))


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


# -- compute -------------------------------------------------------------------


def test_compute_legendre_members(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    out = tmp_path / "members.json"
    assert main(["compute", "--input", inp, "--kmax", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "members"
    assert doc["basis"] == [{"m": [1], "j": 1}]
    assert [m["k"] for m in doc["members"]] == [0, 1, 2]
    assert doc["members"][2]["coeffs"] == [[["-4"]], [["0"]], [["12"]]]
    assert doc["spec"]["A"] == [["0"]]
    capsys.readouterr()


def test_compute_kmax_zero_gives_identity_only(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    out = tmp_path / "members.json"
    assert main(["compute", "--input", inp, "--kmax", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["members"]) == 1
    N = 6
    want = [["1" if r == c else "0" for c in range(N)] for r in range(N)]
    assert doc["members"][0]["coeffs"] == [want]
    capsys.readouterr()


def test_compute_kmax_precedence(tmp_path, capsys):
    doc = dict(LEGENDRE, k_max=1)
    inp = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "m.json"
    assert main(["compute", "--input", inp, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 2  # file k_max
    assert main(["compute", "--input", inp, "--kmax", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 4  # flag wins
    capsys.readouterr()


def test_compute_result_file_roundtrips_exactly(tmp_path, capsys):
    rng = random.Random(3)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    doc = {
        "d": 2, "n": 2,
        "A": [[str(e) for e in row] for row in spec.A.rows],
        "B": [[str(e) for e in row] for row in spec.B.rows],
    }
    inp = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "m.json"
    assert main(["compute", "--input", inp, "--kmax", "3", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    for member in written["members"]:
        P = build_Pk(spec, member["k"])
        got = [RatMatrix([[parse_rational(e) for e in row] for row in coeff])
               for coeff in member["coeffs"]]
        assert got == list(P.coeffs)
    capsys.readouterr()


def test_compute_rejects_malformed_input(tmp_path, capsys):
    bad = dict(LEGENDRE, A=[["1/0"]])
    assert main(["compute", "--input", write_json(tmp_path / "a.json", bad)]) == 2
    assert "error:" in capsys.readouterr().err

    missing = {"d": 1, "n": 1, "A": [["0"]]}
    assert main(["compute", "--input", write_json(tmp_path / "b.json", missing)]) == 2

    nondiag = {"d": 2, "n": 1, "A": [["0", "1"], ["0", "0"]],
               "B": [["0", "0"], ["0", "0"]]}
    assert main(["compute", "--input", write_json(tmp_path / "c.json", nondiag)]) == 2
    assert "conjugate" in capsys.readouterr().err

    # JSON true/false are not integers, although bool subclasses int
    for key in ("d", "n", "k_max", "seed"):
        flagged = write_json(tmp_path / f"{key}.json", dict(LEGENDRE, **{key: True}))
        assert main(["compute", "--input", flagged]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    assert main(["compute", "--input", str(tmp_path / "absent.json")]) == 2
    (tmp_path / "garbage.json").write_text("{not json")
    assert main(["compute", "--input", str(tmp_path / "garbage.json")]) == 2
    capsys.readouterr()


def test_compute_rejects_negative_kmax(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    assert main(["compute", "--input", inp, "--kmax", "-3"]) == 2
    assert "k_max must be a nonnegative integer" in capsys.readouterr().err
    neg = write_json(tmp_path / "neg.json", dict(LEGENDRE, k_max=-1))
    assert main(["compute", "--input", neg]) == 2
    capsys.readouterr()


def test_compute_resonance_exit_code(tmp_path, capsys):
    # building members never inverts anything, so force it via verify instead;
    # compute itself succeeds on a resonant spec
    inp = write_json(tmp_path / "r.json", RESONANT)
    assert main(["compute", "--input", inp, "--kmax", "2",
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()


# -- verify ---------------------------------------------------------------------


def test_verify_all_passes(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["verify", "--input", inp, "--kmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_json_report(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    out = tmp_path / "report.json"
    assert main(["verify", "--input", inp, "--kmax", "3", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "verification"
    assert doc["passed"] is True
    assert "seed" not in doc
    titles = [r["title"] for r in doc["reports"]]
    assert any("recurrence" in t for t in titles)
    assert any("scalar" in t for t in titles)  # d = 1 makes scalar applicable
    assert any("trace" in t for t in titles)  # n = 1 makes trace applicable
    capsys.readouterr()


def test_verify_has_no_seed_and_ignores_a_file_seed(tmp_path, capsys):
    # every check is exact and deterministic, so --seed is gone, and a
    # problem file's integer seed changes nothing in the report
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", inp, "--seed", "5"])
    assert exc.value.code == 2
    outs = []
    for name, doc in (("plain", COMMUT_2x2), ("seeded", dict(COMMUT_2x2, seed=5))):
        out = tmp_path / f"{name}.out.json"
        assert main(["verify", "--input", write_json(tmp_path / f"{name}.json", doc),
                     "--kmax", "2", "--format", "json", "--out", str(out)]) == 0
        outs.append(strip_timestamp(out.read_text()))
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_verify_inapplicable_suite_is_precondition_error(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)  # n = 2
    assert main(["verify", "--input", inp, "--suite", "trace"]) == 2
    assert "not applicable" in capsys.readouterr().err
    assert main(["verify", "--input", inp, "--suite", "scalar"]) == 2
    capsys.readouterr()


def test_verify_trace_suite_runs_to_kmax(tmp_path, capsys):
    # the trace suite checks every k <= k_max, like every other suite
    out = tmp_path / "trace.json"
    assert main(["verify", "--input", str(GOLDEN / "d2n1.json"), "--suite", "trace",
                 "--kmax", "8", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k_max"] == 8
    (report,) = doc["reports"]
    assert [item["name"] for item in report["items"]] == [
        f"k={k} trace equals 2^k k! Legendre times trace" for k in range(9)]
    assert report["passed"] and report["checks_passed"] == 9
    capsys.readouterr()


def test_verify_resonance_names_operator(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", RESONANT)
    assert main(["verify", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert "resonance:" in err
    assert "D1 + 2k + 1 at k = 1" in err
    assert "kernel" in err


def test_verify_rejects_negative_kmax(tmp_path, capsys):
    # no suite may run zero checks and call that a pass
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    assert main(["verify", "--input", inp, "--kmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert "k_max must be a nonnegative integer" in captured.err
    assert "overall: PASS" not in captured.out


def test_verify_failing_identity_exits_1(tmp_path, capsys, monkeypatch):
    from mvjacobi import structure

    solve = structure._solve_recurrence

    def broken(spec, k):
        rc = solve(spec, k)
        return structure.RecurrenceCoeffs(k, rc.alpha, rc.beta.plus_scalar(1), rc.gamma)

    monkeypatch.setattr(structure, "_solve_recurrence", broken)
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    assert main(["verify", "--input", inp, "--suite", "recurrence", "--kmax", "1"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "overall: FAIL" in out


def test_internal_consistency_failure_exits_1_without_traceback(capsys, monkeypatch):
    # a member construction that fails its own leading-coefficient check
    from mvjacobi import oppoly

    monkeypatch.setattr(oppoly, "_stencil", _d1_shift_mutant(oppoly._stencil, 2, 1))
    build_Pk.cache_clear()
    try:
        code = main(["verify", "--input", str(GOLDEN / "d2n2_nc.json"), "--kmax", "2"])
    finally:
        build_Pk.cache_clear()  # no member built by the mutant outlives the test
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal consistency failure: member k=2 ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_with_no_reports_fails(tmp_path, capsys, monkeypatch):
    from mvjacobi import cli

    monkeypatch.setattr(cli, "_suite_reports", lambda *args: [])
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    assert main(["verify", "--input", inp]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_deterministic_output(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["verify", "--input", inp, "--kmax", "2", "--format", "json",
                     "--out", str(out)]) == 0
        outs.append(strip_timestamp(out.read_text()))
    assert outs[0] == outs[1]
    capsys.readouterr()


# -- expand ----------------------------------------------------------------------


def test_expand_unit_and_roundtrip(tmp_path, capsys):
    spec = spec_of(COMMUT_2x2)
    space = spec.space
    rng = random.Random(11)
    q = random_vector(rng, space.N)
    f = build_Pk(spec, 2).apply_to(q)
    poly_doc = {"d": 2, "n": 2,
                "coeffs": [[str(e) for e in c] for c in f.coeffs]}
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    pol = write_json(tmp_path / "f.json", poly_doc)
    out = tmp_path / "coeffs.json"
    assert main(["expand", "--input", inp, "--poly", pol, "--roundtrip",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "expansion"
    assert doc["roundtrip_exact"] is True
    got = [tuple(parse_rational(e) for e in c) for c in doc["coefficients"]]
    assert got[2] == q
    assert all(not any(c) for c in got[:2])
    capsys.readouterr()


def test_expand_zero_polynomial(tmp_path, capsys):
    poly_doc = {"d": 2, "n": 2, "coeffs": []}
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    pol = write_json(tmp_path / "f.json", poly_doc)
    out = tmp_path / "coeffs.json"
    assert main(["expand", "--input", inp, "--poly", pol, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["coefficients"] == []
    capsys.readouterr()


def test_expand_dimension_mismatch(tmp_path, capsys):
    poly_doc = {"d": 1, "n": 1, "coeffs": [["1"]]}
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    pol = write_json(tmp_path / "f.json", poly_doc)
    assert main(["expand", "--input", inp, "--poly", pol]) == 2
    capsys.readouterr()


def test_expand_rejects_coeffs_that_are_not_a_list(tmp_path, capsys):
    pol = write_json(tmp_path / "f.json", {"d": 2, "n": 2, "coeffs": 5})
    assert main(["expand", "--input", str(GOLDEN / "d2n2_nc.json"), "--poly", pol]) == 2
    assert capsys.readouterr().err == "error: 'coeffs' must be a list of coefficient arrays\n"


def test_json_booleans_are_refused_as_numbers(tmp_path, capsys):
    # bool is an int subclass, but true/false in an input file is a mistake
    flagged = dict(COMMUT_2x2, B=[[1, 0], [0, True]])
    assert main(["compute", "--input", write_json(tmp_path / "b.json", flagged)]) == 2
    assert capsys.readouterr().err == "error: expected a rational string, got bool\n"

    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    entry = {"d": 2, "n": 2, "coeffs": [[True] + ["0"] * 5]}
    assert main(["expand", "--input", inp, "--poly", write_json(tmp_path / "e.json", entry)]) == 2
    assert capsys.readouterr().err == "error: expected a rational string, got bool\n"

    # "d": true would pass as d == 1 against a d = 1 problem
    legendre = write_json(tmp_path / "legendre.json", LEGENDRE)
    for key in ("d", "n"):
        poly = write_json(tmp_path / f"{key}.json", {key: True, "coeffs": [["1"]]})
        assert main(["expand", "--input", legendre, "--poly", poly]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an integer\n"


def test_expand_singular_dominant_coefficient_exit(tmp_path, capsys):
    # a + b = -2 for d = 1, n = 2: the degree-1 dominant product vanishes
    res = {"d": 1, "n": 2, "A": [["-3/2"]], "B": [["-1/2"]]}
    poly_doc = {"d": 1, "n": 2, "coeffs": [["0"], ["1"]]}
    inp = write_json(tmp_path / "spec.json", res)
    pol = write_json(tmp_path / "f.json", poly_doc)
    assert main(["expand", "--input", inp, "--poly", pol]) == 3
    assert "resonance:" in capsys.readouterr().err


# -- quadrature -------------------------------------------------------------------


def test_quadrature_claimed_pass(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "1", "--k", "3",
                 "--side", "right", "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "integrability (exact)" in out
    assert ("max |entry| = 0.000e+00  estimated quadrature error = 0.000e+00"
            "  tolerance = 0.000e+00\n") in out
    assert "DE level" not in out
    assert "vanishing claimed; exact Jacobi moments, tolerance 0" in out


def test_quadrature_informational_equal_indices(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "2", "--k", "2",
                 "--side", "right"]) == 0
    assert "no vanishing claim" in capsys.readouterr().out


def test_quadrature_json_format(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    out = tmp_path / "q.json"
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "2",
                 "--side", "right", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "quadrature"
    assert doc["report"]["claimed"] is True
    assert doc["report"]["passed"] is True
    assert doc["integrability"]["commutative"] is True
    assert doc["report"]["max_abs_entry"] == 0.0
    assert doc["report"]["estimated_quadrature_error"] == 0.0
    assert doc["report"]["tolerance"] == 0.0
    assert doc["report"]["de_level"] is None
    assert doc["report"]["detail"] == "vanishing claimed; exact Jacobi moments, tolerance 0"
    capsys.readouterr()


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_quadrature_json_is_strict_past_the_float_range(tmp_path, capsys):
    # the exact off-claim magnitude of exponent 1100 overflows to inf; it is
    # spelled as the string "inf", never as the bare token Infinity
    inp = write_json(tmp_path / "spec.json", {"d": 1, "n": 2, "A": [["1100"]], "B": [["0"]]})
    assert main(["quadrature", "--input", inp, "--j", "1", "--k", "1",
                 "--side", "right", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert doc["report"]["max_abs_entry"] == "inf"
    assert doc["report"]["claimed"] is False


def test_quadrature_checks_integrability_once(tmp_path, capsys):
    # the report printed by the command and the gate inside the integral
    # share one memoized integrability check
    from mvjacobi import numeric

    numeric.integrability_check.cache_clear()
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "2",
                 "--side", "right"]) == 0
    assert numeric.integrability_check.cache_info().misses == 1
    capsys.readouterr()


def test_quadrature_integrability_gate(tmp_path, capsys):
    # an integral that does not exist is refused, with or without the override
    divergent = {"d": 1, "n": 2, "A": [["-5/4"]], "B": [["0"]]}
    inp = write_json(tmp_path / "spec.json", divergent)
    for extra in ([], ["--override-integrability"]):
        assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                     "--side", "right", *extra]) == 2
        assert "weighted integral does not exist" in capsys.readouterr().err


def test_quadrature_nonconvergence_exit(tmp_path, capsys):
    # an unreachable refinement target exhausts the level budget
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", "--tol", "1e-30"]) == 4
    assert "quadrature failure:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_quadrature_rejects_nonfinite_tolerance(tmp_path, capsys, value):
    # --tol inf would pass any claim; the ODE tolerance is covered by the
    # next test, on a commutative problem, so that no test can start the
    # solver on a NaN
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", "--tol", value]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--ode-tol", "nan", "rel_tol must be finite, got nan"),
    ("--ode-tol", "inf", "rel_tol must be finite, got inf"),
    ("--ode-tol", "0", "rel_tol must be positive"),
    ("--tol", "0", "tolerance must be positive"),
])
def test_quadrature_validates_tolerances_without_an_ode(tmp_path, capsys, flag, value, message):
    # the commutative integral is exact and never runs the solver, yet both
    # tolerances are still checked
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_quadrature_biased_override_fails_claim(tmp_path, capsys):
    # forced computation with endpoint exponents in (-1, -1/2): converges but
    # the endpoint-cap bias exceeds a 1e-6 tolerance, so the claim fails
    doc = {"d": 2, "n": 2,
           "A": [["-3/5", "1/4"], ["-1/4", "-3/5"]],
           "B": [["-3/5", "-1/4"], ["1/4", "-3/5"]]}
    inp = write_json(tmp_path / "spec.json", doc)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", "--tol", "1e-6",
                 "--override-integrability"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


# -- argument basics ----------------------------------------------------------------


def test_unknown_suite_rejected(tmp_path):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    with pytest.raises(SystemExit):
        main(["verify", "--input", inp, "--suite", "bogus"])


# -- size caps ---------------------------------------------------------------------


CAPPED_COMMANDS = [
    ["compute"],
    ["verify"],
    ["expand", "--poly", "f.json"],
    ["quadrature", "--j", "1", "--k", "2", "--side", "right"],
]


@pytest.mark.parametrize("argv", CAPPED_COMMANDS, ids=lambda a: a[0])
def test_dimension_cap_refuses_before_building(tmp_path, capsys, monkeypatch, argv):
    # d = 6, n = 10 has N = 6 C(15, 5) = 18,018 basis elements
    zeros = [["0"] * 6 for _ in range(6)]
    inp = write_json(tmp_path / "big.json", {"d": 6, "n": 10, "A": zeros, "B": zeros})
    write_json(tmp_path / "f.json", {"d": 6, "n": 10, "coeffs": []})
    monkeypatch.chdir(tmp_path)

    def refuse(d, n):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(mvjacobi.operators, "enumerate_basis", refuse)
    assert 18_018 > MAX_N
    assert main([argv[0], "--input", inp] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "N = 18018" in err and f"cap MAX_N = {MAX_N}" in err


def test_dimension_cap_is_read_by_formula(tmp_path, capsys):
    # a huge n refuses at once for d >= 2, and d = 1 always has N = 1
    huge = write_json(tmp_path / "huge.json",
                      {"d": 2, "n": 10**12, "A": [["0", "0"], ["0", "0"]],
                       "B": [["0", "0"], ["0", "0"]]})
    assert main(["compute", "--input", huge]) == 2
    assert f"N > {MAX_N}" in capsys.readouterr().err
    line = write_json(tmp_path / "line.json", {"d": 1, "n": 10**6, "A": [["0"]], "B": [["0"]]})
    assert main(["compute", "--input", line, "--kmax", "1",
                 "--out", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_kmax_cap(tmp_path, capsys, command):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    over = str(MAX_KMAX + 1)
    assert main([command, "--input", inp, "--kmax", over]) == 2
    assert f"k_max = {over} is above the cap MAX_KMAX = {MAX_KMAX}" in capsys.readouterr().err
    from_file = write_json(tmp_path / "k.json", dict(LEGENDRE, k_max=MAX_KMAX + 1))
    assert main([command, "--input", from_file]) == 2
    assert f"cap MAX_KMAX = {MAX_KMAX}" in capsys.readouterr().err
    assert main([command, "--input", inp, "--kmax", str(MAX_KMAX),
                 "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()


def test_member_index_cap_on_expand_and_quadrature(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    pol = write_json(tmp_path / "f.json",
                     {"d": 1, "n": 1, "coeffs": [["0"]] * MAX_KMAX + [["1"], ["1"]]})
    assert main(["expand", "--input", inp, "--poly", pol]) == 2
    assert f"polynomial degree = {MAX_KMAX + 1} is above the cap" in capsys.readouterr().err
    assert main(["quadrature", "--input", inp, "--j", str(MAX_KMAX + 1), "--k", "0",
                 "--side", "left"]) == 2
    assert f"member index = {MAX_KMAX + 1} is above the cap" in capsys.readouterr().err


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([])


# -- process level ---------------------------------------------------------------

SRC = Path(mvjacobi.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_python(*args):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    # only the quadrature command needs the numeric layer, and with it numpy
    out = run_python("-c", "import sys, mvjacobi.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] in ('scipy', 'numpy')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_quadrature_loads_no_scipy(tmp_path):
    # the fundamental matrix needs numpy at most, and the exact Jacobi
    # moments of a commutative problem need neither numpy nor the numeric layer
    for doc, floats in ((NONCOMMUT_2x2, True), (COMMUT_2x2, False)):
        inp = write_json(tmp_path / "spec.json", doc)
        out = run_python("-X", "importtime", "-m", "mvjacobi", "quadrature", "--input", inp,
                         "--j", "0", "--k", "2", "--side", "right", "--tol", "1e-6")
        assert out.returncode == 0, out.stderr
        assert "[PASS]" in out.stdout
        imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "mvjacobi.integrals" in imported
        assert ("numpy" in imported) is floats
        assert ("mvjacobi.numeric" in imported) is floats
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


BIG = "1" + "0" * 400
MASS = "the Jacobi mass of exponents from A and B"


def _mass_spec(big: int) -> dict:
    # the exponents at +1 run from 0 to 8 big: the gate passes, and the
    # Jacobi masses of the other channels meet the float range
    return {"d": 2, "n": 3, "A": [[str(big), "0"], ["0", str(3 * big)]],
            "B": [["0", "0"], ["0", "0"]]}


@pytest.mark.parametrize("doc, what", [
    ({"d": 1, "n": 2, "A": [[BIG]], "B": [["0"]]}, "an endpoint exponent from A"),
    (_mass_spec(10**400), MASS),  # the exponent itself is past the float range
    (_mass_spec(10**306), MASS),  # lgamma of the exponent is
    ({"d": 2, "n": 2, "A": [[BIG, "1"], ["0", "1/2"]], "B": [["-" + BIG, "-1"], ["0", "1/3"]]},
     "an entry of A"),
], ids=["commutative-gate", "commutative-exponent", "commutative-lgamma", "noncommutative"])
def test_quadrature_refuses_values_past_the_float_range(tmp_path, doc, what):
    inp = write_json(tmp_path / "spec.json", doc)
    out = run_python("-m", "mvjacobi", "quadrature", "--input", inp,
                     "--j", "0", "--k", "0", "--side", "right")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: {what} is past the float range\n"


PERFBENCH = SRC.parent / "perfbench"


def test_frozen_tracer_sees_every_quadrature(tmp_path):
    # perfbench/traced_cli.py wraps mvjacobi.numeric's functions in every
    # module that holds them, so the integrals layer must hold the same objects
    import mvjacobi.integrals as integrals
    import mvjacobi.numeric as numeric

    assert numeric.quasi_orth_integral is integrals.quasi_orth_integral
    assert numeric.integrability_check is integrals.integrability_check
    assert callable(integrals.integrability_check.cache_info)  # perfbench's setup_s relies on it
    cases = {
        "commutative": [str(GOLDEN / "d2n3_c.json"), "--j", "1", "--k", "3"],
        "noncommutative": [write_json(tmp_path / "nc.json", NONCOMMUT_2x2),
                           "--j", "0", "--k", "2", "--tol", "1e-6"],
    }
    for kind, (inp, *indices) in cases.items():
        trace = tmp_path / f"{kind}.trace.json"
        out = run_python(str(PERFBENCH / "traced_cli.py"), str(trace), "--", "quadrature",
                         "--input", inp, *indices, "--side", "right",
                         "--out", str(tmp_path / f"{kind}.json"))
        assert out.returncode == 0, out.stderr
        doc = json.loads(trace.read_text(encoding="utf-8"))
        names = {span[0] for span in doc["spans"]}
        assert "numeric.quasi_orth_integral" in names, kind
        if kind == "noncommutative":
            assert "numeric.ode_sweep" in names
            assert doc["counters"]["numeric.ode_nfev"] > 0


def test_module_entry_point_computes():
    out = run_python("-m", "mvjacobi", "compute", "--input", str(GOLDEN / "d1n2.json"))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["kind"] == "members"


# every golden command (exit 0 or 3) and one the command refuses (exit 2)
ENTRY_CASES = [pytest.param(golden_argv(*key.split()), id=key) for key in sorted(DIGESTS)] + [
    pytest.param(["verify", "--input", str(GOLDEN / "d2n2_nc.json"), "--suite", "trace"],
                 id="d2n2_nc verify trace"),
]


@pytest.mark.parametrize("argv", ENTRY_CASES)
def test_process_entry_matches_in_process_main(tmp_path, argv):
    want = in_process_record(argv)
    out = run_python("-m", "mvjacobi", *argv)
    assert record(out.returncode, out.stdout, out.stderr) == want
    if want["exit"] == 0:
        path = tmp_path / "out.json"
        out = run_python("-m", "mvjacobi", *argv, "--out", str(path))
        assert out.returncode == 0, out.stderr
        assert record(0, path.read_text(encoding="utf-8"), "") == want


RUN_ENTRY = """
import gc, sys
from mvjacobi.__main__ import run
before = gc.get_freeze_count()
code = run(sys.argv[1:])
print(code, before, gc.get_freeze_count())
"""


@pytest.mark.parametrize("problem, code", [("d1n2", 0), ("resonant", 3)])
def test_run_returns_main_code_and_freezes_the_heap(problem, code):
    argv = ["verify", "--input", str(GOLDEN / f"{problem}.json"), "--kmax", "2",
            "--format", "json"]
    out = run_python("-c", RUN_ENTRY, *argv)
    assert out.returncode == 0, out.stderr
    got, before, after = map(int, out.stdout.splitlines()[-1].split())
    assert got == code == in_process_record(argv)["exit"]
    assert before == 0 and after > 0


def test_in_process_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["compute", "--input", str(GOLDEN / "d1n2.json"), "--kmax", "1"]) == 0
    assert gc.get_freeze_count() == before


def test_importing_the_process_entry_has_no_side_effects():
    out = run_python("-c", "import gc, mvjacobi.__main__; print(gc.get_freeze_count())")
    assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "0", "")


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"mvjacobi": "mvjacobi.__main__:run"}
    from mvjacobi.__main__ import run
    assert callable(run)


def test_profiler_still_reports_through_the_process_entry(tmp_path):
    # the entry freezes the heap instead of ending with os._exit, which
    # would skip atexit and with it the profile and coverage data
    path = tmp_path / "members.json"
    out = run_python("-m", "cProfile", "-m", "mvjacobi", "compute",
                     "--input", str(GOLDEN / "d1n2.json"), "--out", str(path))
    assert out.returncode == 0, out.stderr
    assert "function calls" in out.stdout
    assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "members"


# -- start-up: what each command loads --------------------------------------------

# run one command in a fresh interpreter and list the modules it added to
# those the bare interpreter (site and its .pth files included) starts with
RUN_AND_LIST = """
import json, sys
before = set(sys.modules)
from mvjacobi.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""
NO_NUMERICS = ("mvjacobi.numeric", "numpy", "dataclasses", "datetime")


def loaded_by(argv, preload=()):
    """Modules the command adds, beyond the interpreter's and those in preload."""
    out = run_python("-c", "".join(f"import {m}\n" for m in preload) + RUN_AND_LIST, *argv)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["loaded"])


def test_compute_loads_only_the_construction(tmp_path):
    loaded = loaded_by(["compute", "--input", str(GOLDEN / "d2n2_nc.json"), "--kmax", "2",
                        "--out", str(tmp_path / "m.json")])
    assert "mvjacobi.oppoly" in loaded
    forbidden = ("mvjacobi.structure", "mvjacobi.reporting", "mvjacobi.sampling") + NO_NUMERICS
    assert loaded.isdisjoint(forbidden), sorted(loaded.intersection(forbidden))


@pytest.mark.parametrize("argv", [
    ["verify", "--input", str(GOLDEN / "d2n2_nc.json"), "--kmax", "2"],
    ["expand", "--input", str(GOLDEN / "d2n2_nc.json"),
     "--poly", str(GOLDEN / "d2n2_nc.poly.json"), "--roundtrip"],
], ids=lambda argv: argv[0])
def test_exact_commands_load_no_numerics(tmp_path, argv):
    loaded = loaded_by(argv + ["--out", str(tmp_path / "out.json")])
    assert "mvjacobi.structure" in loaded
    assert loaded.isdisjoint(NO_NUMERICS), sorted(loaded.intersection(NO_NUMERICS))
    assert "mvjacobi.sampling" not in loaded  # no verifier samples


def test_quadrature_loads_no_dataclasses(tmp_path):
    # a commutative problem is decided exactly, without the float layers
    argv = ["quadrature", "--input", str(GOLDEN / "d2n3_c.json"), "--j", "1", "--k", "3",
            "--side", "right", "--out", str(tmp_path / "q.json")]
    loaded = loaded_by(argv)
    assert "mvjacobi.integrals" in loaded
    forbidden = ("mvjacobi.structure",) + NO_NUMERICS
    assert loaded.isdisjoint(forbidden), sorted(loaded.intersection(forbidden))
    # a noncommutative one integrates in floats
    argv = ["quadrature", "--input", write_json(tmp_path / "nc.json", NONCOMMUT_2x2),
            "--j", "0", "--k", "2", "--side", "right", "--tol", "1e-6",
            "--out", str(tmp_path / "q.json")]
    loaded = loaded_by(argv)
    assert {"mvjacobi.numeric", "numpy"} <= loaded
    assert "dataclasses" not in loaded
    # numpy's core loads datetime (and inspect) itself; once numpy is in,
    # the package adds neither module
    assert loaded_by(argv, preload=["numpy"]).isdisjoint({"dataclasses", "datetime"})


def test_numeric_import_loads_structure():
    # perfbench/traced_cli.py wraps mvjacobi.structure after importing
    # mvjacobi.cli and mvjacobi.numeric, so the numeric layer must load it
    out = run_python("-c", "import sys, mvjacobi.cli, mvjacobi.numeric; "
                           "print('mvjacobi.structure' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_package_exports_the_documented_names_lazily():
    code = ("import sys, mvjacobi; print(sorted(m for m in sys.modules "
            "if m.startswith('mvjacobi.'))); print(mvjacobi.__all__); "
            "print(mvjacobi.expand.__module__, 'mvjacobi.structure' in sys.modules)")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    submodules, names, resolved = out.stdout.splitlines()
    assert submodules == "[]"
    assert names == str(sorted([
        "OpPoly", "ProblemSpec", "Rat", "RatMatrix", "ResonanceError", "VectorPoly",
        "apply_A", "build_Pk", "build_tilde_Pk", "expand", "reconstruct"]))
    assert resolved == "mvjacobi.structure True"
    for name in mvjacobi.__all__:
        assert getattr(mvjacobi, name) is not None
    # every other name stays importable from its submodule
    with pytest.raises(AttributeError):
        mvjacobi.verify_recurrence
    from mvjacobi.structure import verify_recurrence  # noqa: F401
    from mvjacobi import structure  # a submodule is still found as an attribute
    assert structure.__name__ == "mvjacobi.structure"


# -- serialization helpers -----------------------------------------------------------


big = 2**1100
numerators = st.one_of(st.just(0), st.integers(-10, 10), st.integers(-4 * big, 4 * big))
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 4 * big))


def raw_matrix(num, den):
    # numerators over den exactly as given, without reduction
    M = object.__new__(RatMatrix)
    M.num, M.den = num, den
    return M


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(numerators, min_size=3, max_size=3), min_size=1, max_size=3),
       denominators)
def test_matrix_to_json_matches_fraction_formatting(rows, den):
    num = tuple(map(tuple, rows))
    for M in (raw_matrix(num, den), RatMatrix._normal(num, den)):
        want = [[format_rational(Fraction(e, M.den)) for e in row] for row in M.num]
        assert _matrix_to_json(M) == want


def test_matrix_to_json_edge_entries():
    M = raw_matrix(((0, -6, big + 1, -3 * big),), 3)
    assert _matrix_to_json(M) == [["0", "-2", f"{big + 1}/3", str(-big)]]
    assert _matrix_to_json(raw_matrix(((0, -7),), 1)) == [["0", "-7"]]


@pytest.mark.parametrize("t", [0.0, 1_700_000_000.0, 1_700_000_000.25, 1_000_000_000.0000005,
                               1_000_000_000.0000015, 1_700_000_000.9999996, 951_782_400.5])
def test_header_timestamp_matches_datetime(monkeypatch, t):
    want = datetime.fromtimestamp(t, timezone.utc).isoformat()
    assert cli._utc_isoformat(t) == want
    monkeypatch.setattr(cli.time, "time", lambda: t)
    assert cli._header()["generated_at"] == want


def test_strict_returns_a_finite_document_itself():
    doc = {"a": [["1/2", "3"], ["0"]], "b": {"x": 1.5, "y": [True, None, 2]}, "c": (1.0,)}
    assert json.dumps(cli._strict(doc)) == json.dumps(doc)


def test_strict_spells_nonfinite_floats_and_copies_only_their_path():
    inner = [["1", "2"]]
    doc = {"keep": inner, "r": {"v": [1.0, float("inf")], "w": -math.inf, "z": math.nan}}
    out = cli._strict(doc)
    assert out == {"keep": inner, "r": {"v": [1.0, "inf"], "w": "-inf", "z": "nan"}}
    assert out["keep"] == inner
    assert doc["r"]["v"][1] == math.inf  # the input is left alone
