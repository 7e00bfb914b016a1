"""Output checks, digests and bit sizes for the CLI benchmark.

Every check is computed here from the generated inputs, independently
of the package: check_output returns None when an operation's output
is right and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction


def digest(doc: dict) -> str:
    """sha256 of the output document with header.generated_at removed."""
    doc = dict(doc)
    doc["header"] = {k: v for k, v in doc.get("header", {}).items() if k != "generated_at"}
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _basis(d: int, n: int) -> set:
    """Every (m, j) with m a d-part composition of n and 1 <= j <= d."""
    ms = [m for m in itertools.product(range(n + 1), repeat=d) if sum(m) == n]
    return {(m, j) for m in ms for j in range(1, d + 1)}


def _check_verify(op: dict, doc: dict):
    reports = doc.get("reports") or []
    if not reports:
        return "verification report holds no suites"
    for rep in reports:
        if rep["checks_total"] < 1:
            return f"suite {rep['title']!r} ran no checks (0/0)"
        if not rep["passed"] or rep["checks_passed"] != rep["checks_total"]:
            return f"suite {rep['title']!r} failed"
    if doc.get("passed") is not True or doc.get("k_max") != op["k_max"]:
        return "report is not an overall pass at the requested k_max"
    return None


def _check_compute(op: dict, doc: dict, problem: dict):
    d, n = op["d"], op["n"]
    basis = [(tuple(b["m"]), b["j"]) for b in doc["basis"]]
    if len(basis) != op["N"] or set(basis) != _basis(d, n):
        return "basis manifest is not the degree-n basis"
    M1 = [[Fraction(a) + Fraction(b) for a, b in zip(ra, rb)]
          for ra, rb in zip(problem["A"], problem["B"])]
    diag = [M1[i][i] for i in range(d)]
    lam = [sum(mi * li for mi, li in zip(m, diag)) - diag[j - 1] for m, j in basis]
    members = doc["members"]
    if [m["k"] for m in members] != list(range(op["k_max"] + 1)):
        return "members are not k = 0..k_max"
    for member in members:
        k, coeffs = member["k"], member["coeffs"]
        if len(coeffs) != k + 1:
            return f"member k={k} does not have degree {k}"
        lead = coeffs[k]
        if len(lead) != op["N"] or any(len(row) != op["N"] for row in lead):
            return f"member k={k} x^{k} coefficient is not {op['N']} x {op['N']}"
        for r, row in enumerate(lead):
            for c, entry in enumerate(row):
                want = Fraction(0)
                if r == c:
                    want = Fraction(1)
                    for i in range(k + 1, 2 * k + 1):
                        want *= lam[r] + i
                if Fraction(entry) != want:
                    return f"member k={k} x^{k} coefficient differs at ({r}, {c})"
    return None


def check_output(op: dict, code: int, doc, problem: dict):
    if code != 0:
        return f"exit code {code}, expected 0"
    if not isinstance(doc, dict):
        return "no output document"
    try:
        return _check_kind(op, doc, problem)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _check_kind(op: dict, doc: dict, problem: dict):
    kind = op["kind"]
    if kind == "verify":
        return _check_verify(op, doc)
    if kind == "compute":
        return _check_compute(op, doc, problem)
    if kind == "expand":
        if doc.get("roundtrip_exact") is not True:
            return "roundtrip is not exact"
        if len(doc["coefficients"]) != op["k_max"] + 1:
            return "expansion does not have one coefficient per degree"
        return None
    if kind == "quadrature":
        rep = doc["report"]
        if rep.get("claimed") is not True or rep.get("passed") is not True:
            return "claimed vanishing did not pass"
        return None
    return f"unknown operation kind {kind!r}"


def member_bits(doc: dict) -> list[dict]:
    """Largest numerator and denominator bit length of each member P_k."""
    out = []
    for member in doc["members"]:
        num = den = 0
        for coeff in member["coeffs"]:
            for row in coeff:
                for entry in row:
                    p, _, q = entry.partition("/")
                    num = max(num, abs(int(p)).bit_length())
                    den = max(den, int(q or 1).bit_length())
        out.append({"k": member["k"], "num_bits": num, "den_bits": den})
    return out
