"""Output checks: exact references at the default seed, invariants at any seed.

Every experiment's result is a CSV document (provenance comments, header,
rows). ``digest`` parses it into typed cells; at the default seed the digest
must match the stored reference (counts, verdicts, flags, ladder fractions
and exclusion counts exactly, other floats to a relative 1e-9), and at every
seed the invariants below must hold. A changed SHA-256 with a matching digest
is counted, not failed, so a low-bit change in the floats shows openly.
"""

from __future__ import annotations

import hashlib
import math

EXACT_FIELDS = {"n", "successes", "verdict", "flag", "fraction", "excluded_paths",
                "requested_paths", "agree"}
REL_TOL = 1e-9
# documents with more rows than this (the ensemble dump) keep only their
# shape and last row in the reference file
MAX_STORED_ROWS = 64


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell(text: str):
    # CSV cells render booleans as true/false, provenance values as True/False
    if text in ("true", "false", "True", "False"):
        return text in ("true", "True")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def digest(csv_text: str) -> dict:
    """Provenance, header and typed rows of a rendered CSV document."""
    provenance, lines = {}, []
    for line in csv_text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            provenance[key] = _cell(value)
        elif line:
            lines.append(line)
    doc = {"provenance": provenance, "columns": lines[0].split(",")}
    body = lines[1:]
    if len(body) > MAX_STORED_ROWS:
        doc["n_rows"] = len(body)
        body = body[-1:]
        doc["last_row"] = [_cell(c) for c in body[0].split(",")]
    else:
        doc["rows"] = [[_cell(c) for c in line.split(",")] for line in body]
    return doc


def _same(field: str, ref, got) -> bool:
    # .17g renders a whole float such as 0.0 as "0", so a float cell may read
    # back as an int; two ints (counts, seeds) compare exactly
    numbers = [v for v in (ref, got) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numbers) == 2 and float in (type(ref), type(got)) and field not in EXACT_FIELDS:
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0)
    if len(numbers) == 2:
        return ref == got
    return type(ref) is type(got) and ref == got


def compare(ref: dict, got: dict) -> list[str]:
    """Differences between a reference digest and a fresh one."""
    problems = []
    if ref["columns"] != got["columns"]:
        return [f"columns {got['columns']} != {ref['columns']}"]
    if ref.get("n_rows") != got.get("n_rows"):
        problems.append(f"n_rows {got.get('n_rows')} != {ref.get('n_rows')}")
    if set(ref["provenance"]) != set(got["provenance"]):
        problems.append("provenance keys differ")
    for key, value in ref["provenance"].items():
        if key in got["provenance"] and not _same(key, value, got["provenance"][key]):
            problems.append(f"provenance {key}={got['provenance'][key]!r} != {value!r}")
    ref_rows = ref.get("rows") or [ref.get("last_row")]
    got_rows = got.get("rows") or [got.get("last_row")]
    if len(ref_rows) != len(got_rows):
        return problems + [f"{len(got_rows)} rows != {len(ref_rows)}"]
    for r, (ref_row, got_row) in enumerate(zip(ref_rows, got_rows)):
        fields = ref["columns"] if len(ref_row) == len(ref["columns"]) else []
        for c, (a, b) in enumerate(zip(ref_row, got_row)):
            field = fields[c] if fields else ""
            if not _same(field, a, b):
                problems.append(f"row {r} {field or c}: {b!r} != {a!r}")
        if len(ref_row) != len(got_row):
            problems.append(f"row {r} has {len(got_row)} cells, expected {len(ref_row)}")
    return problems


def _wilson_verdict(successes: int, ci_low: float) -> str:
    if successes == 0:
        return "ZERO"
    return "POSITIVE" if ci_low > 0.0 else "INCONCLUSIVE"


def invariants(doc: dict) -> list[str]:
    """Seed-independent properties of a result document."""
    cols, prov = doc["columns"], doc["provenance"]
    rows = [dict(zip(cols, row)) for row in doc.get("rows", [])]
    problems = []
    if "successes" in cols:
        for row in rows:
            s, n = row["successes"], row["n"]
            if not 0 <= s <= n:
                problems.append(f"successes {s} outside [0, {n}]")
            elif not math.isclose(row["p_hat"], s / n, rel_tol=1e-12):
                problems.append(f"p_hat {row['p_hat']} != {s}/{n}")
            if row["verdict"] != _wilson_verdict(s, row["ci_low"]):
                problems.append(f"verdict {row['verdict']} breaks the Wilson convention")
            if not 0.0 <= row["ci_low"] <= row["p_hat"] <= row["ci_high"] <= 1.0:
                problems.append("interval does not bracket p_hat inside [0, 1]")
        if "agree" in prov and prov["agree"] != (len({r["verdict"] for r in rows}) == 1):
            problems.append("cross-check agreement flag contradicts the verdicts")
    if "fraction" in cols:
        fractions = [row["fraction"] for row in rows]
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            problems.append("ladder fraction outside [0, 1]")
        if any(b > a for a, b in zip(fractions, fractions[1:])):
            problems.append(f"ladder fractions increase: {fractions}")
    if "frac_nonneg" in cols:
        for row in rows:
            if not 0.0 <= row["frac_pos"] <= row["frac_nonneg"] <= 1.0:
                problems.append("market fractions out of order")
            if row["min_VT"] > row["mean_VT"]:
                problems.append("min_VT above mean_VT")
            if row["flag"] != (row["frac_nonneg"] == 1.0 and row["frac_pos"] > 0.0):
                problems.append("arbitrage flag contradicts the fractions")
        free = [r["mean_VT"] for r in rows if r["strategy"] == "momentum" and r["k"] == 0.0]
        costly = [r["mean_VT"] for r in rows if r["strategy"] == "momentum" and r["k"] > 0.0]
        if free and costly and max(costly) > min(free):
            problems.append("cost ledger mean exceeds the cost-free mean")
    if "increment_var_ratio" in cols:
        for row in rows:
            if not all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
                problems.append("non-finite DDS statistic")
    if "excluded_paths" in prov:
        excluded, requested = prov["excluded_paths"], prov["requested_paths"]
        if not 0 <= excluded < requested:
            problems.append(f"excluded {excluded} of {requested} paths")
        elif rows and rows[0]["n"] != requested - excluded:
            problems.append("ramp n differs from requested minus excluded")
    if cols[0] == "t" and "last_row" in doc:
        if len(doc["last_row"]) != len(cols):
            problems.append("ensemble dump row width differs from its header")
    return problems
