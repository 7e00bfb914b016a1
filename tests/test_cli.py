import argparse
import ast
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply_to
from test_golden import DIGESTS, in_process_record, record
from test_golden import _argv as golden_argv
from test_structure import _constant_block_mutant, _d1_shift_mutant, patch_apply_A

import mvjacobi
import mvjacobi.operators
from mvjacobi import cli
from mvjacobi.cli import MAX_KMAX, MAX_N, _matrix_to_json, main
from mvjacobi.integrals import quasi_orth_integral
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


def test_compute_kmax_comes_from_the_flag_alone(tmp_path, capsys):
    # a problem file's k_max is refused, not read as a second default
    refused = write_json(tmp_path / "k.json", dict(LEGENDRE, k_max=1))
    assert main(["compute", "--input", refused]) == 2
    assert capsys.readouterr().err == "error: problem file has unknown key 'k_max'\n"
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    out = tmp_path / "m.json"
    assert main(["compute", "--input", inp, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 5  # the flag's default, 4
    assert main(["compute", "--input", inp, "--kmax", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["members"]) == 4
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


@pytest.mark.parametrize("text", ["1_000", "1 / 2", "\u0663", "\uff11/2", "3/-4"])
def test_rational_strings_are_ascii_p_over_q(tmp_path, capsys, text):
    # int() takes underscores, spaces, other scripts' digits and a signed
    # denominator; a file entry is only [+-]?[0-9]+(/[0-9]+)?
    path = write_json(tmp_path / "a.json", dict(LEGENDRE, A=[[text]]))
    assert main(["compute", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed rational {text!r}\n"


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
    for key in ("d", "n"):
        flagged = write_json(tmp_path / f"{key}.json", dict(LEGENDRE, **{key: True}))
        assert main(["compute", "--input", flagged]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err
    # k_max and seed are not problem keys, whatever their value
    for key in ("k_max", "seed"):
        flagged = write_json(tmp_path / f"{key}.json", dict(LEGENDRE, **{key: True}))
        assert main(["compute", "--input", flagged]) == 2
        assert capsys.readouterr().err == f"error: problem file has unknown key {key!r}\n"

    assert main(["compute", "--input", str(tmp_path / "absent.json")]) == 2
    (tmp_path / "garbage.json").write_text("{not json")
    assert main(["compute", "--input", str(tmp_path / "garbage.json")]) == 2
    capsys.readouterr()

    for name, doc, message in (("list", [LEGENDRE], "problem file must be a JSON object"),
                               ("string-A", dict(LEGENDRE, A="x"), "A must be a list of rows"),
                               ("zero-d", {"d": 0, "n": 2, "A": [[0]], "B": [[0]]},
                                "need d >= 1 and n >= 1, got d=0, n=2")):
        assert main(["compute", "--input", write_json(tmp_path / f"{name}.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_compute_rejects_negative_kmax(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", LEGENDRE)
    assert main(["compute", "--input", inp, "--kmax", "-3"]) == 2
    assert "k_max must be a nonnegative integer" in capsys.readouterr().err
    neg = write_json(tmp_path / "neg.json", dict(LEGENDRE, k_max=-1))
    assert main(["compute", "--input", neg]) == 2
    assert capsys.readouterr().err == "error: problem file has unknown key 'k_max'\n"


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


def test_verify_has_no_seed_flag_or_file_key(tmp_path, capsys):
    # every check is exact and deterministic, so there is no --seed, and
    # a problem file's seed is an unknown key
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", inp, "--seed", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    seeded = write_json(tmp_path / "seeded.json", dict(COMMUT_2x2, seed=5))
    assert main(["verify", "--input", seeded, "--kmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: problem file has unknown key 'seed'\n"
    assert captured.out == ""


def test_verify_inapplicable_suite_is_precondition_error(tmp_path, capsys):
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)  # d = n = 2
    for suite, problem, reason in (
            ("trace", inp, "the trace reduction needs n = 1"),
            ("scalar", inp, "scalar reductions need d = 1"),
            ("tilde", str(GOLDEN / "d2n1.json"), "the shifted family needs n >= 2")):
        assert main(["verify", "--input", problem, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: suite {suite!r} is not applicable: {reason}\n"
        assert captured.out == ""


@pytest.mark.parametrize("problem", ["d1n2", "d2n1", "d2n2_nc", "d2n3_c", "d3n2_nc"])
def test_verify_all_runs_the_applicable_suites_in_table_order(problem):
    # `all` is the applicable suites run alone, one after another, in the
    # table's order (the resonant problem stops at its first suite, exit 3)
    spec = cli.load_problem(str(GOLDEN / f"{problem}.json"))
    alone = []
    for suite in cli.SUITES[1:]:
        try:
            alone += cli._suite_reports(spec, suite, 3)
        except ValueError as exc:
            assert "is not applicable" in str(exc)
    assert cli.SUITES == ("all", "recurrence", "identities", "tilde", "scalar", "trace")
    assert ([r.to_dict() for r in cli._suite_reports(spec, "all", 3)]
            == [r.to_dict() for r in alone])


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
    # a member construction and an expansion that fail their own checks
    from mvjacobi import oppoly

    patch_apply_A(monkeypatch, _d1_shift_mutant(oppoly.apply_A, 2, 1))
    build_Pk.cache_clear()
    try:
        code = main(["verify", "--input", str(GOLDEN / "d2n2_nc.json"), "--kmax", "2"])
        err = capsys.readouterr().err
        # expand's own degree check, under the same fault
        expand_code = main(["expand", "--input", str(GOLDEN / "d2n2_nc.json"),
                            "--poly", str(GOLDEN / "d2n2_nc.poly.json"), "--roundtrip"])
        captured = capsys.readouterr()
    finally:
        build_Pk.cache_clear()  # no member built by the mutant outlives the test
    assert code == 1
    assert err.startswith("internal consistency failure: member k=2 ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert expand_code == 1 and captured.out == ""
    assert captured.err == ("internal consistency failure: expansion failed to reduce the "
                            "degree at step 2; this indicates an internal construction bug\n")


def test_an_internal_key_error_is_not_an_input_error(capsys, monkeypatch):
    # the input readers name every missing key themselves, so a KeyError is
    # a fault in the program (here a basis lookup), never exit 2
    def faulty_build_Pk(spec, k):
        return spec.space.index_of((spec.n + 1,) * spec.d, 1)

    monkeypatch.setattr(cli, "build_Pk", faulty_build_Pk)
    with pytest.raises(KeyError, match="no basis element"):
        main(["compute", "--input", str(GOLDEN / "d2n2_nc.json")])
    assert capsys.readouterr().out == ""


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
    f = apply_to(build_Pk(spec, 2), q)
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


# the five non-resonant golden problems, each with its golden polynomial
EXPAND_PROBLEMS = ["d2n2_nc", "d3n2_nc", "d2n3_c", "d1n2", "d2n1"]


@pytest.mark.parametrize("problem", EXPAND_PROBLEMS)
def test_expand_without_the_flag_writes_the_roundtrip_document(capsys, problem):
    # --roundtrip is accepted and changes nothing: the golden digest was
    # recorded with it, and the document holds roundtrip_exact either way
    argv = golden_argv(problem, "expand")
    assert argv[-1] == "--roundtrip"
    assert main(argv[:-1]) == 0
    out = capsys.readouterr().out
    assert record(0, out, "") == DIGESTS[f"{problem} expand"]
    assert json.loads(out)["roundtrip_exact"] is True


@pytest.mark.parametrize("problem, vector_only, flags", [
    pytest.param(p, v, f, id=p + ("" if v else "-both-input-types")
                 + ("" if f else "-without-the-flag"))
    for v, f in ((True, ["--roundtrip"]), (False, ["--roundtrip"]), (True, []))
    for p in EXPAND_PROBLEMS])
def test_expand_roundtrip_exits_1_on_a_vector_only_factor_fault(tmp_path, capsys, monkeypatch,
                                                               problem, vector_only, flags):
    # reconstruct composes the factors from the ring operations, which the
    # fault in apply_A does not reach, so they no longer cancel the seeded
    # chains that expand subtracted; expand runs the round trip, flag or not
    from mvjacobi import oppoly

    patch_apply_A(monkeypatch, _constant_block_mutant(oppoly.apply_A, vector_only))
    out = tmp_path / "coeffs.json"
    assert main(["expand", "--input", str(GOLDEN / f"{problem}.json"),
                 "--poly", str(GOLDEN / f"{problem}.poly.json"), *flags,
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["roundtrip_exact"] is False
    assert capsys.readouterr().err == "roundtrip failed: reconstruction does not equal the input\n"


def test_expand_zero_polynomial(tmp_path, capsys):
    poly_doc = {"d": 2, "n": 2, "coeffs": []}
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    pol = write_json(tmp_path / "f.json", poly_doc)
    out = tmp_path / "coeffs.json"
    assert main(["expand", "--input", inp, "--poly", pol, "--out", str(out)]) == 0
    # the empty expansion reconstructs as the zero polynomial
    doc = json.loads(out.read_text())
    assert doc["coefficients"] == [] and doc["roundtrip_exact"] is True
    capsys.readouterr()


def test_expand_dimension_mismatch(tmp_path, capsys):
    poly_doc = {"d": 1, "n": 1, "coeffs": [["1"]]}
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    pol = write_json(tmp_path / "f.json", poly_doc)
    assert main(["expand", "--input", inp, "--poly", pol]) == 2
    capsys.readouterr()


def test_expand_mismatch_names_the_compared_dimensions(tmp_path, capsys):
    # the file must give both d and n; the refusal prints the values compared
    inp = write_json(tmp_path / "spec.json", {"d": 1, "n": 2, "A": [["1/2"]], "B": [["1/3"]]})
    pol = write_json(tmp_path / "f.json", {"d": 1, "n": 3, "coeffs": [["1"]]})
    assert main(["expand", "--input", inp, "--poly", pol]) == 2
    assert capsys.readouterr().err == ("error: polynomial file is for d=1, n=3; "
                                       "the problem has d=1, n=2\n")
    no_d = write_json(tmp_path / "no_d.json", {"n": 3, "coeffs": [["1"]]})
    assert main(["expand", "--input", inp, "--poly", no_d]) == 2
    assert capsys.readouterr().err == "error: polynomial file is missing key 'd'\n"


def test_expand_rejects_coeffs_that_are_not_a_list(tmp_path, capsys):
    for doc, message in (
        ({"d": 2, "n": 2, "coeffs": 5}, "'coeffs' must be a list of coefficient arrays"),
        ([["1"] * 6], "polynomial file must be a JSON object"),
        # d2n2_nc has N = 6
        ({"d": 2, "n": 2, "coeffs": [["1"] * 5]}, "each coefficient must be a length-6 array"),
    ):
        pol = write_json(tmp_path / "f.json", doc)
        assert main(["expand", "--input", str(GOLDEN / "d2n2_nc.json"), "--poly", pol]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
    # one memoized decision per problem: the report each command prints and
    # the gate inside every integral share it, whatever j, k and side
    from mvjacobi import numeric

    numeric.integrability_check.cache_clear()
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_2x2)
    for j, k, side in (("0", "2", "right"), ("2", "0", "left")):
        assert main(["quadrature", "--input", inp, "--j", j, "--k", k, "--side", side]) == 0
    for j, k, side in ((1, 2, "right"), (2, 1, "left"), (0, 1, "right")):
        assert quasi_orth_integral(spec_of(NONCOMMUT_2x2), j, k, side).passed
    assert numeric.integrability_check.cache_info().misses == 1
    capsys.readouterr()


def test_quadrature_integrability_gate(tmp_path, capsys):
    # an integral that does not exist is refused
    divergent = {"d": 1, "n": 2, "A": [["-5/4"]], "B": [["0"]]}
    inp = write_json(tmp_path / "spec.json", divergent)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right"]) == 2
    assert "weighted integral does not exist" in capsys.readouterr().err


# endpoint exponents -1.05 at both ends: the integral does not exist
NONCOMMUT_DIVERGENT = {"d": 2, "n": 2,
                       "A": [["-21/20", "1/4"], ["-1/4", "-21/20"]],
                       "B": [["-21/20", "-1/4"], ["1/4", "-21/20"]]}
# exponents -0.6: the integral exists, and a claim is decided exactly, but a
# noncommutative value's float mu_0 is refused below -1/2
NONCOMMUT_SLOW = {"d": 2, "n": 2,
                  "A": [["-3/5", "1/4"], ["-1/4", "-3/5"]],
                  "B": [["-3/5", "-1/4"], ["1/4", "-3/5"]]}
GATE_DETAIL = ("exact Routh-Hurwitz decision: {verdict}; "
               "estimated min at +1 about {e:g}, min at -1 about {e:g}")


@pytest.mark.parametrize("j, k", [(0, 1), (1, 1)])
def test_quadrature_refuses_a_noncommutative_integral_that_does_not_exist(
        tmp_path, capsys, j, k):
    # the claimed pair and the off-claim one alike: nothing is computed
    spec = spec_of(NONCOMMUT_DIVERGENT)
    with pytest.raises(ValueError, match="weighted integral does not exist"):
        quasi_orth_integral(spec, j, k, "right", tol=1e-1)
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_DIVERGENT)
    assert main(["quadrature", "--input", inp, "--j", str(j), "--k", str(k),
                 "--side", "right", "--tol", "1e-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    detail = GATE_DETAIL.format(verdict="an exponent <= -1", e=-1.05)
    assert err == (f"error: weighted integral does not exist: {detail}; "
                   "every endpoint exponent must exceed -1\n")


def test_quadrature_nonconvergence_exit(tmp_path, capsys):
    # an unreachable refinement target for the off-claim value's mu_0
    # exhausts the level budget
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "1", "--k", "1",
                 "--side", "right", "--tol", "1e-30"]) == 4
    assert "quadrature failure:" in capsys.readouterr().err


NONCOMMUT_DETAIL = "exact matrix moments, tolerance 0"


def test_quadrature_noncommutative_claim_report(tmp_path, capsys):
    # a claimed noncommutative pair is decided exactly, like a commutative one
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_2x2)
    argv = ["quadrature", "--input", inp, "--j", "0", "--k", "2", "--side", "right",
            "--tol", "1e-6"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] == {
        "quantity": "right weighted integral j=0 k=2 d=2 n=2",
        "max_abs_entry": 0.0, "estimated_quadrature_error": 0.0, "tolerance": 0.0,
        "passed": True, "claimed": True, "de_level": None,
        "detail": "vanishing claimed; " + NONCOMMUT_DETAIL,
    }
    assert doc["integrability"]["commutative"] is False
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "integrability (exact): estimated min exponent 0.03125 (exact Routh-Hurwitz decision: "
        "every exponent > -1/2; estimated min at +1 about 0.0625, min at -1 about 0.03125)",
        "[PASS] right weighted integral j=0 k=2 d=2 n=2",
        "  max |entry| = 0.000e+00  estimated quadrature error = 0.000e+00  tolerance = 0.000e+00",
        "  vanishing claimed; " + NONCOMMUT_DETAIL,
    ]


# endpoint exponents of real part 0 at both ends, and D1 has the entry -2
NONCOMMUT_MOMENT_RESONANCE = {"d": 2, "n": 1, "A": [["0", "1"], ["-1", "1"]],
                              "B": [["0", "-1"], ["1", "1"]]}


def test_quadrature_moment_resonance_exit(tmp_path, capsys):
    # D1 + 2 is singular, so the moment recurrence cannot give R_1
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_MOMENT_RESONANCE)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1", "--side", "right"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("resonance: singular operator: D1 + m + 2 at m = 0 "
                   "(rank 3 of 4; kernel (1)*w^(1, 0).e2)\n")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_quadrature_rejects_nonfinite_tolerance(tmp_path, capsys, value):
    # --tol sets an accuracy target, which must be finite
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", "--tol", value]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "0", "tolerance must be positive"),
    ("--tol", "-1", "tolerance must be positive"),
])
def test_quadrature_validates_tolerances_without_an_ode(tmp_path, capsys, flag, value, message):
    # the commutative integral is exact and never uses the tolerance, yet
    # it is still checked
    inp = write_json(tmp_path / "spec.json", COMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "0", "--k", "1",
                 "--side", "right", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_quadrature_refuses_biased_noncommutative_exponents(tmp_path, capsys):
    # exponents in (-1, -1/2]: the integral exists, so a claim is decided
    # exactly; an off-claim value would need the float mu_0, whose endpoint
    # bias the -1/2 margin bounds, so it is refused
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_SLOW)
    argv = ["quadrature", "--input", inp, "--side", "right", "--tol", "1e-6"]
    assert main(argv + ["--j", "0", "--k", "1"]) == 0
    assert "[PASS] right weighted integral j=0 k=1" in capsys.readouterr().out
    assert main(argv + ["--j", "1", "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    detail = GATE_DETAIL.format(verdict="every exponent > -1, not every one > -1/2", e=-0.6)
    assert err == ("error: the value of a noncommutative weighted integral needs the float "
                   f"mu_0, restricted to endpoint exponents > -1/2 ({detail})\n")


# -- argument basics ----------------------------------------------------------------


# README.md as a checked contract: four lists it states are read from its
# text and compared with the code.  Each check also runs on a README with a
# planted mismatch of its own kind, which it must report, and only that kind.

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(text: str, header: str) -> list:
    """The body rows, as lists of stripped cells, of the table under this header line."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _ticked(text: str) -> list:
    return re.findall(r"`([^`]+)`", text)


def documented(text: str) -> dict:
    """What the README states: exported names, flags, verify suites, exit codes."""
    exports = re.search(r"The package exports \w+ names: (.*?)\.\s", text, re.S).group(1)
    return {
        "exports": sorted(_ticked(exports)),
        "flags": {_ticked(command)[0]: _ticked(flags)
                  for command, flags in readme_table(text, "| command | flags |")},
        "suites": [_ticked(row[0])[0] for row in readme_table(text, "| suite | proves | failed by |")],
        "exit codes": [int(row[0]) for row in readme_table(text, "| code | meaning |")],
    }


def implemented() -> dict:
    """The same four lists from the code: __all__, the parser, the suite table, cli's docstring."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        "exports": sorted(mvjacobi.__all__),
        "flags": {name: [opt for a in sub._actions for opt in a.option_strings
                         if opt not in ("-h", "--help")]
                  for name, sub in commands.choices.items()},
        "suites": list(cli._SUITE_TABLE),
        "exit codes": [int(c) for c in re.findall(r"^    (\d)  ", cli.__doc__, re.M)],
    }


def readme_mismatches(text: str) -> list:
    """The kinds of list on which the README and the code disagree."""
    doc, code = documented(text), implemented()
    return [kind for kind in code if doc[kind] != code[kind]]


def check_readme(kind: str, old: str, new: str) -> None:
    """The README agrees with the code on kind, and reports kind alone with old planted as new."""
    text = README.read_text(encoding="utf-8")
    assert documented(text)[kind] == implemented()[kind]
    assert text.count(old) == 1
    assert readme_mismatches(text.replace(old, new)) == [kind]


def test_each_command_has_exactly_its_documented_flags():
    check_readme("flags", "`--kmax`, `--suite` |", "`--kmax` |")
    assert set(implemented()["flags"]) == {"compute", "verify", "expand", "quadrature"}


def test_readme_names_exactly_the_package_exports():
    check_readme("exports", "`VectorPoly`, `apply_A`, ", "`VectorPoly`, ")


def test_readme_suite_table_is_the_cli_suite_table():
    check_readme("suites", "| `trace` (n = 1) |", "| `legendre` (n = 1) |")


def test_readme_exit_codes_are_the_cli_exit_codes():
    check_readme("exit codes", "| 4 | quadrature failed", "| 5 | quadrature failed")
    assert implemented()["exit codes"] == [0, 1, 2, 3, 4]


# a text example: a sh block holding one mvjacobi command, then a plain
# block holding what it prints
README_EXAMPLE = re.compile(r"```sh\nmvjacobi ([^\n]*)\n```\n\n```\n(.*?)\n```\n", re.S)


def example_mismatches(text: str) -> list:
    """The README's example commands whose printed lines differ from cli.main's stdout."""
    bad = []
    for command, shown in README_EXAMPLE.findall(text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(command.split())
        if out.getvalue().splitlines() != shown.splitlines():
            bad.append(command.split()[0])
    return bad


@pytest.mark.parametrize("command, old, new", [
    ("verify", "k=2 maps into shifted member k+1", "k=2 maps into shifted member k+2"),
    ("verify", "product identities d=2 n=2: 3/3", "product identities d=2 n=2: 4/4"),
    ("quadrature", "min at -1 is -0.85)", "min at -1 is -0.86)"),
], ids=["verify", "verify-identities", "quadrature"])
def test_readme_text_examples_are_real_output(monkeypatch, command, old, new):
    monkeypatch.chdir(README.parent)  # the examples read tests/golden from the repository root
    text = README.read_text(encoding="utf-8")
    assert [c.split()[0] for c, _ in README_EXAMPLE.findall(text)] == [
        "verify", "verify", "quadrature"]
    assert example_mismatches(text) == []
    assert text.count(old) == 1
    assert example_mismatches(text.replace(old, new)) == [command]


# README's d = 1 example: the problem, the number of scalar lines, the two
# exit codes and the singular shift that stops `all`, read from one sentence
# with its line breaks folded.  At alpha = beta = -1 the classical three-term
# recurrence divides by zero, Szego's closed sum does not, and the problem is
# resonant.
SCALAR_EXAMPLE = re.compile(
    r"With A = B = (\S+) at n = (\d+) \(alpha = beta = \S+\), `verify --suite scalar "
    r"--kmax (\d+)` passes all (\d+) lines and exits (\d+), and `--suite all` exits (\d+) "
    r"at the recurrence's singular shift (.+? at k = \d+)\.")


def scalar_example_mismatches(text: str, tmp_path) -> list:
    """Which of the line count, the two exits and the shift differ from cli.main."""
    residue, n, k_max, *shown, shift = SCALAR_EXAMPLE.search(" ".join(text.split())).groups()
    inp = write_json(tmp_path / "scalar.json",
                     {"d": 1, "n": int(n), "A": [[residue]], "B": [[residue]]})
    argv = ["verify", "--input", inp, "--kmax", k_max, "--suite"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        scalar_exit = main(argv + ["scalar"])
        lines = [line for line in out.getvalue().splitlines() if line.startswith("[PASS]")]
        all_exit = main(argv + ["all"])
    got = (len(lines), scalar_exit, all_exit)
    bad = [what for what, g, s in zip(("lines", "scalar exit", "all exit"), got, shown)
           if g != int(s)]
    if not err.getvalue().startswith(f"resonance: singular operator: {shift} ("):
        bad.append("shift")
    return bad


@pytest.mark.parametrize("old, new, kind", [
    ("passes all 8 lines", "passes all 38 lines", "lines"),
    ("lines and exits 0, and", "lines and exits 1, and", "scalar exit"),
    ("`--suite all` exits 3 at", "`--suite all` exits 0 at", "all exit"),
    ("D1 + 2k + 2 at k = 0.", "D1 + 2k + 2 at k = 1.", "shift"),
], ids=["lines", "scalar-exit", "all-exit", "shift"])
def test_readme_scalar_example_is_real_output(tmp_path, old, new, kind):
    text = README.read_text(encoding="utf-8")
    assert scalar_example_mismatches(text, tmp_path) == []
    assert text.count(old) == 1
    assert scalar_example_mismatches(text.replace(old, new), tmp_path) == [kind]


# README's problem file: the JSON block after "Problem file:"
README_PROBLEM = re.compile(r"^Problem file:\n\n```json\n(.*?)```\n", re.S | re.M)


def test_readme_problem_file_is_exactly_what_load_problem_reads(tmp_path, capsys):
    doc = json.loads(README_PROBLEM.search(README.read_text(encoding="utf-8")).group(1))
    assert cli.load_problem(write_json(tmp_path / "readme.json", doc)) == spec_of(doc)
    extra = write_json(tmp_path / "extra.json", dict(doc, note="x"))
    assert main(["compute", "--input", extra]) == 2
    assert capsys.readouterr().err == "error: problem file has unknown key 'note'\n"


@pytest.mark.parametrize("problem, poly, message", [
    # a typo such as "kmax" would otherwise be ignored and the default used
    (dict(LEGENDRE, kmax=1), None, "problem file has unknown key 'kmax'"),
    ({"d": 1, "n": 1, "A": [["0"]]}, None, "problem file is missing key 'B'"),
    (LEGENDRE, {"d": 1, "n": 1, "coeffs": [["1"]], "k_max": 0},
     "polynomial file has unknown key 'k_max'"),
], ids=["problem-kmax", "problem-no-B", "polynomial-k_max"])
def test_input_files_hold_exactly_their_keys(tmp_path, capsys, problem, poly, message):
    inp = write_json(tmp_path / "spec.json", problem)
    argv = (["compute", "--input", inp] if poly is None else
            ["expand", "--input", inp, "--poly", write_json(tmp_path / "f.json", poly)])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# json.load alone keeps a repeated key's last value, so each file is written as text
@pytest.mark.parametrize("problem, poly, message", [
    ('{"d": 1, "n": 2, "A": [["1/2"]], "A": [["1/3"]], "B": [["0"]]}', None,
     "problem file repeats key 'A'"),
    ('{"d": 1, "n": 2, "A": [["1/2"]], "B": [["0"]]}',
     '{"d": 1, "n": 2, "coeffs": [["1"]], "coeffs": [["2"]]}',
     "polynomial file repeats key 'coeffs'"),
], ids=["problem", "polynomial"])
def test_input_files_refuse_a_repeated_key(tmp_path, capsys, problem, poly, message):
    inp = tmp_path / "spec.json"
    inp.write_text(problem, encoding="utf-8")
    argv = ["compute", "--input", str(inp), "--kmax", "1"]
    if poly is not None:
        (tmp_path / "f.json").write_text(poly, encoding="utf-8")
        argv = ["expand", "--input", str(inp), "--poly", str(tmp_path / "f.json")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    assert capsys.readouterr().err == "error: problem file has unknown key 'k_max'\n"
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


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, as pyflakes' F401 would flag them.

    Imports from __future__ and import lines marked "# noqa" (re-exports)
    are skipped; a name read anywhere in the module counts as used.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_src_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "mvjacobi").glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1)\n") == ["line 1: os",
                                                                           "line 2: gcd"]


def _mentions(node: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                   else n.name for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def _definitions(tree: ast.Module):
    """(node, name) of every function, class and method, then of every module-level assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield node, n.id


def unreferenced_private_names(sources: dict) -> list:
    """Private functions, classes, methods and module-level names that no
    module names outside their own definition.

    sources maps module names to their text.  Private means one leading
    underscore; dunders are exempt.  A name counts as used wherever it is
    read, looked up as an attribute or imported, so two definitions of one
    name (a method in two classes) share their uses.  A module-level
    assignment's own statement is its definition, its target included.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum(map(_mentions, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node, name in _definitions(tree):
            if (name.startswith("_") and not name.startswith("__")
                    and total[name] == _mentions(node)[name]):
                found.append(f"{module}: {name}")
    return found


def test_src_has_no_unreferenced_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "mvjacobi").glob("*.py"))}
    assert unreferenced_private_names(sources) == []
    # a planted orphan is reported, even when it calls itself; a used helper
    # and a dunder are not
    planted = ("def _used():\n    return 1\n\n\ndef _orphan(k):\n    return _orphan(k - 1)\n\n\n"
               "class _Box:\n    def __init__(self):\n        self.v = _used()\n")
    assert unreferenced_private_names({"planted.py": planted}) == ["planted.py: _orphan",
                                                                   "planted.py: _Box"]
    # a module-level constant no module reads is reported, one that a
    # function or another module reads is not, nor a dunder assignment
    planted = ("__all__ = []\n_LIMIT = 3\n_SHARED: int = 4\n_ORPHAN, _PAIR = 1, 2\n\n\n"
               "def f(k):\n    return k < _LIMIT + _PAIR\n")
    assert unreferenced_private_names({"planted.py": planted,
                                       "user.py": "from planted import _SHARED\n"}) == [
        "planted.py: _ORPHAN"]


def test_quadrature_loads_no_scipy(loads):
    # a claim is decided by exact moments and an exact gate, and a
    # noncommutative value integrates in numpy alone
    for name in ("commutative claim", "noncommutative claim", "noncommutative value"):
        assert [m for m in loads[name] if m.split(".")[0] == "scipy"] == []


def test_quadrature_integration_failure_exits_2(tmp_path, capsys, monkeypatch):
    # the noncommutative pair off the claim integrates Y' = MY in floats;
    # a sweep that fails surfaces as an integration failure, exit 2
    from mvjacobi import numeric
    from mvjacobi.errors import OdeError

    def fail(*args, **kwargs):
        raise OdeError("sweep refused")

    numeric._sweep.cache_clear()  # a cached sweep would skip solve_ivp
    monkeypatch.setattr(numeric, "solve_ivp", fail)
    inp = write_json(tmp_path / "spec.json", NONCOMMUT_2x2)
    assert main(["quadrature", "--input", inp, "--j", "2", "--k", "2", "--side", "right",
                 "--tol", "1e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "integration failure: sweep refused\n"


BIG = "1" + "0" * 400
HUGE = "1" + "0" * 308
HUGE_4000 = "1" + "0" * 3999
MASS = "the Jacobi mass of exponents from A and B"
NORM = "the row-sum norm of A"


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
     NORM),
    # entries of 1e308 fit, but A's eigenvalue 2e308 does not
    ({"d": 2, "n": 2, "A": [[HUGE, HUGE], [HUGE, HUGE]], "B": [["-" + HUGE, "-" + HUGE],
                                                              ["-" + HUGE, "-" + HUGE]]},
     NORM),
    # refused before the bisection, whose steps grow with the entries' digits
    ({"d": 2, "n": 2, "A": [[HUGE_4000, "1"], ["0", "1/2"]],
      "B": [["-" + HUGE_4000, "-1"], ["0", "1/3"]]}, NORM),
], ids=["commutative-gate", "commutative-exponent", "commutative-lgamma", "noncommutative",
        "noncommutative-eigenvalue", "noncommutative-4000-digits"])
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
        # a claimed pair integrates nothing; an off-claim value integrates mu_0
        "noncommutative": [write_json(tmp_path / "nc.json", NONCOMMUT_2x2),
                           "--j", "2", "--k", "2", "--tol", "1e-6"],
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


EXACT_SPANS = {"verify": {"operators.build_D", "oppoly.apply_A", "oppoly.build_Pk",
                          "structure.verify_recurrence", "structure.verify_product_identities",
                          "structure.verify_derivative_relation", "structure.build_tilde_Pk",
                          "ratmat.matmul", "ratmat.inverse"},
               "compute": {"operators.build_D", "oppoly.apply_A", "oppoly.build_Pk"},
               "expand": {"structure.expand", "structure.reconstruct", "oppoly.apply_A",
                          "ratmat.inverse"}}


@pytest.mark.parametrize("command", sorted(EXACT_SPANS))
def test_frozen_tracer_sees_every_exact_command(tmp_path, command):
    # perfbench/traced_cli.py wraps these functions by name in every module
    # that holds them; a renamed or inlined one would drop out of the trace
    argv = golden_argv("d2n2_nc", command)
    trace, doc = tmp_path / "trace.json", tmp_path / "out.json"
    out = run_python(str(PERFBENCH / "traced_cli.py"), str(trace), "--", *argv, "--out", str(doc))
    assert out.returncode == 0, out.stderr
    assert record(0, doc.read_text(encoding="utf-8"), "") == in_process_record(argv)
    names = {span[0] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]}
    assert EXACT_SPANS[command] <= names


def test_golden_corpus_loads_through_the_readers():
    for problem in sorted(p for p in GOLDEN.glob("*.json")
                          if p.name != "digests.json" and not p.name.endswith(".poly.json")):
        spec = cli.load_problem(str(problem))
        f = cli.load_vector_poly(str(problem.with_suffix(".poly.json")), spec)
        assert f.space is spec.space


@pytest.mark.parametrize("workload", ["exact-verify", "members-expand", "quadrature-nc"])
def test_frozen_benchmark_inputs_load_through_the_readers(tmp_path, workload):
    # perfbench/gen.py writes the problem and polynomial files the benchmark's
    # operations read; every one must pass the readers' key checks
    out = run_python(str(PERFBENCH / "gen.py"), "--workload", workload, "--seed", "4",
                     "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    for op in manifest["ops"]:
        argv = op["argv"]
        spec = cli.load_problem(str(tmp_path / argv[argv.index("--input") + 1]))
        assert (spec.d, spec.n) == (op["d"], op["n"])
        if "--poly" in argv:
            cli.load_vector_poly(str(tmp_path / argv[argv.index("--poly") + 1]), spec)


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


def loaded_by(argv, preload=()):
    """Modules the command adds, beyond the interpreter's and those in preload."""
    out = run_python("-c", "".join(f"import {m}\n" for m in preload) + RUN_AND_LIST, *argv)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["loaded"])


# the golden commands behind each row of README's Install table, by the row's
# first cell; a failing claim takes the off-claim path, a float value of mu_0
INSTALL_RUNS = {
    "compute": ("`compute`", golden_argv("d2n2_nc", "compute")),
    "verify": ("`verify`, `expand`", golden_argv("d2n2_nc", "verify")),
    "expand": ("`verify`, `expand`", golden_argv("d2n2_nc", "expand")),
    "commutative claim": ("`quadrature`, commutative problem",
                          golden_argv("d2n3_c", "quadrature", "1", "3", "right")),
    "noncommutative claim": ("`quadrature`, noncommutative claimed pair",
                             golden_argv("d2n2_nc", "quadrature", "0", "2", "right")),
    "noncommutative value": ("`quadrature`, noncommutative off-claim pair or failing claim",
                             golden_argv("d2n2_nc", "quadrature", "2", "2", "right")),
}
STDLIB_UNUSED = {"dataclasses", "datetime"}


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    """The modules each of INSTALL_RUNS adds in a fresh process, by run name."""
    out = str(tmp_path_factory.mktemp("loads") / "out.json")
    return {name: loaded_by(argv + ["--out", out]) for name, (_, argv) in INSTALL_RUNS.items()}


def install_table(text: str) -> dict:
    """README's Install table: {command cell: (sorted package modules, numpy loaded)}."""
    return {command: (sorted(_ticked(modules)), numpy == "yes")
            for command, modules, numpy in readme_table(
                text, "| command | package modules loaded | numpy |")}


def as_install_row(loaded: set) -> tuple:
    """A run's loads in the Install table's terms: (sorted package modules, numpy loaded)."""
    return (sorted(m.removeprefix("mvjacobi.") for m in loaded if m.startswith("mvjacobi.")),
            "numpy" in loaded)


def install_mismatches(text: str, loads: dict) -> list:
    """The Install rows that a run of theirs contradicts."""
    table = install_table(text)
    return sorted({row for name, (row, _) in INSTALL_RUNS.items()
                   if table[row] != as_install_row(loads[name])})


def test_readme_install_table_is_what_each_command_loads(loads):
    text = README.read_text(encoding="utf-8")
    assert set(install_table(text)) == {row for row, _ in INSTALL_RUNS.values()}
    assert install_mismatches(text, loads) == []
    old = "| `compute` | `errors`, "
    assert text.count(old) == 1
    assert install_mismatches(text.replace(old, "| `compute` | "), loads) == ["`compute`"]


def test_compute_loads_only_the_construction(loads):
    assert loads["compute"].isdisjoint(STDLIB_UNUSED)


@pytest.mark.parametrize("command", ["verify", "expand"])
def test_exact_commands_load_no_numerics(loads, command):
    assert loads[command].isdisjoint(STDLIB_UNUSED)


def test_quadrature_loads_no_dataclasses(loads, tmp_path):
    # a claimed pair is decided exactly, without the float layers, whether
    # the problem is commutative or not
    for name in ("commutative claim", "noncommutative claim"):
        assert loads[name].isdisjoint(STDLIB_UNUSED)
    # a noncommutative off-claim value integrates mu_0 in floats
    assert "dataclasses" not in loads["noncommutative value"]
    # numpy's core loads datetime (and inspect) itself; once numpy is in,
    # the package adds neither module
    argv = INSTALL_RUNS["noncommutative value"][1] + ["--out", str(tmp_path / "q.json")]
    assert loaded_by(argv, preload=["numpy"]).isdisjoint(STDLIB_UNUSED)


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
    assert names == str(mvjacobi.__all__)
    assert resolved == "mvjacobi.structure True"
    for name in mvjacobi.__all__:
        assert getattr(mvjacobi, name) is not None
    # every other name stays importable from its submodule
    with pytest.raises(AttributeError):
        mvjacobi.verify_recurrence
    from mvjacobi.structure import verify_recurrence  # noqa: F401
    from mvjacobi import structure  # a submodule is still found as an attribute
    assert structure.__name__ == "mvjacobi.structure"


def test_package_dir_lists_the_exported_names():
    assert set(mvjacobi.__all__) <= set(dir(mvjacobi))


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


def _utc_microseconds(ns: int) -> datetime:
    # datetime of the whole seconds of ns, with its microseconds truncated
    return datetime.fromtimestamp(ns // 10**9, timezone.utc).replace(microsecond=ns // 1000 % 10**6)


@pytest.mark.parametrize("t", [0.0, 1_700_000_000.0, 1_700_000_000.25, 1_000_000_000.0000005,
                               1_000_000_000.0000015, 1_700_000_000.9999996, 951_782_400.5])
def test_header_timestamp_matches_datetime(monkeypatch, t):
    # the clock read in nanoseconds (t's exact value), truncated to microseconds
    ns = int(Fraction(t) * 10**9)
    monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
    want = _utc_microseconds(ns).isoformat(timespec="microseconds")
    assert cli._header()["generated_at"] == want


@pytest.mark.parametrize("ns, text", [
    (0, "1970-01-01T00:00:00.000000+00:00"),
    (1_700_000_000 * 10**9, "2023-11-14T22:13:20.000000+00:00"),
    (1_700_000_000_999_999_999, "2023-11-14T22:13:20.999999+00:00"),
    (951_782_400_500_000_500, "2000-02-29T00:00:00.500000+00:00"),
])
def test_header_timestamp_truncates_time_ns(monkeypatch, ns, text):
    monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
    assert cli._header()["generated_at"] == text
    stamp = datetime.fromisoformat(text)
    assert stamp.utcoffset() == timedelta(0)
    assert stamp == _utc_microseconds(ns)


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
