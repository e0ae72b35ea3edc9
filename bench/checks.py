"""Reference checks.  Each returns None when the output is right, or a
one-line reason.  The references come from the benchmark's own inputs
and from known mathematics, never from the code path being timed."""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import HECKE3_SHA256, ca_document, expected_m_diagonal, read_pinned

ROOT = Path(__file__).resolve().parent.parent


def _lint_failures(doc: dict) -> list[str]:
    return [c["check"] for c in doc["lint"]["checks"] if c["status"] == "fail"]


def check_cartan_report(doc: dict, text: str, components) -> str | None:
    if not doc["validation"]["ok"]:
        return "validation failed"
    want = expected_m_diagonal(components)
    if doc["m_diagonal"] != want:
        return f"m-diagonal {doc['m_diagonal']} != Cartan diagonal {want}"
    failed = _lint_failures(doc)
    if failed or doc["lint"]["fiat_certified_impossible"]:
        return f"lint failed: {failed}"
    if not text.endswith("verdict: all checks pass\n"):
        return "rendered text lacks the passing verdict"
    return None


# Hecke algebra of S_n: one right (left) cell per standard Young tableau,
# one two-sided cell per partition, m(w0, w0) = n!.
HECKE_CELLS = {3: (4, 3), 4: (10, 5), 5: (26, 7)}


def check_hecke_report(doc: dict, text: str, n: int) -> str | None:
    if not doc["validation"]["ok"]:
        return "validation failed"
    tableaux, partitions = HECKE_CELLS[n]
    counts = {kind: len(doc["cells"][kind]["classes"]) for kind in ("right", "left", "two-sided")}
    if counts != {"right": tableaux, "left": tableaux, "two-sided": partitions}:
        return f"cell counts {counts}"
    if not all(s["strongly_regular"] for s in doc["two_sided_analysis"]):
        return "a two-sided cell is not strongly regular"
    w0 = "theta_" + "".join(str(d) for d in range(n, 0, -1))
    entries = [
        e for s in doc["two_sided_analysis"] for e in s.get("m_table", [])
        if e["f"] == w0 and e["h"] == w0
    ]
    if [(e["target"], e["m"]) for e in entries] != [(w0, math.factorial(n))]:
        return f"m({w0},{w0}) entries {entries}"
    failed = _lint_failures(doc)
    if failed or doc["lint"]["fiat_certified_impossible"]:
        return f"lint failed: {failed}"
    if not text.endswith("verdict: all checks pass\n"):
        return "rendered text lacks the passing verdict"
    return None


# ---------------------------------------------------------------------------
# cli


def _table_shape(doc: dict) -> tuple:
    """A label-independent summary: sizes and the multiset of entry shapes."""
    entries = sorted(
        (len(e["out"]), sum(o["mult"] for o in e["out"])) for e in doc["compose"]
    )
    return len(doc["objects"]), len(doc["morphisms"]), tuple(entries)


def _table_set(doc: dict) -> tuple:
    """A table document as order-free sets, for structural equality."""
    return (
        tuple(doc["objects"]),
        frozenset(json.dumps(m, sort_keys=True) for m in doc["morphisms"]),
        frozenset(doc["star"].items()),
        frozenset(
            (e["g"], e["f"], frozenset((o["m"], o["mult"]) for o in e["out"]))
            for e in doc["compose"]
        ),
    )


def check_cli(op: dict, code: int, out: str, err: str) -> str | None:
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}: {err.strip()[-200:]}"
    rule, arg = op["check"]
    if rule == "golden":
        want = (ROOT / "tests" / "golden" / arg).read_text(encoding="utf-8")
        return None if out == want else f"stdout differs from tests/golden/{arg}"
    if rule == "equals":
        return None if out == arg else f"stdout {out[:200]!r}"
    if rule == "contains":
        missing = [s for s in arg if s not in out]
        return f"stdout lacks {missing}" if missing else None
    if rule == "class_lines":
        n = sum(line.startswith("class ") for line in out.splitlines())
        return None if n == arg else f"{n} classes, expected {arg}"
    if rule == "ca_table":
        got = _table_set(json.loads(out))
        return None if got == _table_set(ca_document(arg)) else "table differs from the closed formula"
    if rule == "hecke3_table":
        # 6 morphs, one object; every composite of non-identities as in S_3
        stored = json.loads(read_pinned("hecke3.json", HECKE3_SHA256))
        return None if _table_shape(json.loads(out)) == _table_shape(stored) else "S3 table shape differs"
    if rule == "quiver":
        lines = out.splitlines()
        ok = lines and all(line.endswith(": PASS") for line in lines[:-1])
        ok = ok and lines[-1].endswith(": 4, 2, 2, 2")
        return None if ok else f"quiver report {out[:200]!r}"
    raise ValueError(f"unknown cli check {rule!r}")
