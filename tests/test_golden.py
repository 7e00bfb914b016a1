"""Golden-output regression: CLI output digests on a fixed corpus.

tests/golden/ holds seven problems (one resonant) with one polynomial
each: five at N <= 8, d3n2_nc, a noncommutative d = 3, n = 2 problem
at N = 18, and d3n3, a noncommutative d = 3, n = 3 problem at N = 30,
the north-star size.  digests.json records, per problem and command, the
exit code and either the sha256 of the JSON output with
header.generated_at removed or, for a nonzero exit, the stderr line.
Any change to the member construction, the verifiers, the expansion,
the exact quadrature path or the resonance message shows up here as a
changed digest.  Quadrature keys name their indices and side, as in
"d2n3_c quadrature 1 3 right"; on a commutative problem the integral is
decided exactly, and on a noncommutative one a claimed pair is decided
by exact moments and a pair the gate refuses exits 2, so each document
or stderr line is deterministic.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from mvjacobi.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


def _argv(problem: str, command: str, *extra: str) -> list[str]:
    inp = str(GOLDEN / f"{problem}.json")
    if command == "compute":
        return ["compute", "--input", inp, "--kmax", "4"]
    if command == "verify":
        return ["verify", "--input", inp, "--suite", "all", "--kmax", "4", "--format", "json"]
    if command == "expand":
        return ["expand", "--input", inp, "--poly", str(GOLDEN / f"{problem}.poly.json"),
                "--roundtrip"]
    if command == "quadrature":
        j, k, side = extra
        return ["quadrature", "--input", inp, "--j", j, "--k", k, "--side", side,
                "--format", "json"]
    raise ValueError(command)


def _digest(text: str) -> str:
    doc = json.loads(text)
    del doc["header"]["generated_at"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, indent=2).encode("utf-8")).hexdigest()


def record(code: int, out: str, err: str) -> dict:
    """Exit code plus output digest (exit 0) or stderr text (otherwise)."""
    if code == 0:
        return {"exit": 0, "sha256": _digest(out)}
    return {"exit": code, "stderr": err.strip()}


def in_process_record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return record(code, out.getvalue(), err.getvalue())


def golden_record(key: str) -> dict:
    return in_process_record(_argv(*key.split()))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_golden_output(key):
    assert golden_record(key) == DIGESTS[key]


def test_golden_corpus_covers_resonance():
    assert DIGESTS["resonant verify"]["exit"] == 3
    assert DIGESTS["resonant verify"]["stderr"].startswith("resonance: ")


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


@pytest.mark.parametrize("key", sorted(k for k in DIGESTS if DIGESTS[k]["exit"] == 0
                                       and k.split()[1] != "quadrature"))
def test_exact_documents_hold_no_float(key):
    # only quadrature reports hold floats, so only cmd_quadrature spells
    # non-finite ones; compute, verify and expand must emit none at all
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(_argv(*key.split())) == 0
    assert list(_floats(json.loads(out.getvalue()))) == []
