"""
Full-table analysis document: validation, cells, regularity, Duflo
elements, m tables, Cartan blocks, left-cell constancy of the diagonal,
and the lint battery, as one JSON-ready dict plus a stable text
rendering.
"""

from __future__ import annotations

from .analysis import LintReport, _lint_lines, cell_analysis, fiat_lint
from .cells import cells
from .model import MultiCat, ValidationReport, validate

__all__ = ["report_analyze", "render_analyze_text"]


def _cells_section(cat: MultiCat, kind: str) -> dict:
    part = cells(cat, kind)
    return {
        "classes": [sorted(cat.morphs[i].label for i in c) for c in part.classes],
        "hasse": [list(e) for e in part.order_edges],
    }


def _validation_block(report: ValidationReport) -> dict:
    """The ``validation`` block of the JSON reports."""
    return {
        "ok": report.ok,
        "violations": [
            {"law": v.law, "witness": list(v.witness), "detail": v.detail}
            for v in report.violations
        ],
    }


def _lint_block(report: LintReport) -> dict:
    """The ``lint`` block of the JSON reports."""
    return {
        "checks": [
            {"check": c.check, "status": c.status, "witnesses": list(c.witnesses)}
            for c in report.checks
        ],
        "fiat_certified_impossible": report.fiat_certified_impossible,
    }


def report_analyze(cat: MultiCat) -> dict:
    """Aggregate every analysis this package performs on one table.

    The optional per-cell sections appear only where they are defined
    (strongly regular cells); a cell that fails the hypotheses carries
    its verdict and witnesses instead.
    """
    vreport = validate(cat)
    doc: dict = {"validation": _validation_block(vreport)}
    if not vreport.ok:
        return doc

    doc["cells"] = {kind: _cells_section(cat, kind) for kind in ("left", "right", "two-sided")}

    two_sided = cells(cat, "two-sided")
    analysis = cell_analysis(cat)
    sections = []
    m_diagonal: dict[str, int] = {}
    for q, verdict in enumerate(analysis.verdicts):
        section: dict = {
            "class": q,
            "members": sorted(cat.morphs[i].label for i in two_sided.classes[q]),
            "regular": verdict.regular,
            "strongly_regular": verdict.strongly_regular,
        }
        if verdict.witnesses:
            section["witnesses"] = [list(map(str, w)) for w in verdict.witnesses]
        record = analysis.records.get(q)
        if record is not None and record.error is not None:
            section["analysis_error"] = str(record.error)
        elif record is not None:
            section["duflo"] = {
                str(rc): cat.morphs[self_dual[0]].label
                for rc, self_dual in record.self_dual.items()
            }
            section["m_table"] = [
                {
                    "f": cat.morphs[f].label,
                    "h": cat.morphs[h].label,
                    "target": cat.morphs[t].label if t is not None else None,
                    "m": m,
                }
                for (f, h), (t, m) in sorted(record.m.items())
            ]
            for (f, h), (_, m) in record.m.items():
                if f == h:
                    m_diagonal[cat.morphs[f].label] = m
            witness = next(iter(record.unequal_diagonal), None)
            section["left_cell_constant"] = witness is None
            if witness is not None:
                section["constancy_witness_left_class"] = witness
            section["cartan_blocks"] = [
                {
                    "right_cell": rc,
                    "object": cat.objects[obj].label,
                    "basis": [cat.morphs[i].label for i in basis],
                    "matrix": [list(row) for row in matrix],
                }
                for (rc, obj), (basis, matrix) in record.cartan.items()
            ]
        sections.append(section)
    doc["two_sided_analysis"] = sections
    doc["m_diagonal"] = {
        m.label: m_diagonal[m.label] for m in cat.morphs if m.label in m_diagonal
    }

    doc["lint"] = _lint_block(fiat_lint(cat))
    return doc


def render_analyze_text(doc: dict) -> str:
    lines: list[str] = []
    val = doc["validation"]
    lines.append("== validation ==")
    if val["ok"]:
        lines.append("ok")
    else:
        lines.append(f"{len(val['violations'])} violation(s)")
        for v in val["violations"]:
            lines.append(f"  - {v['law']} [{', '.join(v['witness'])}]: {v['detail']}")
        return "\n".join(lines) + "\n"

    for kind in ("left", "right", "two-sided"):
        section = doc["cells"][kind]
        lines.append(f"== cells: {kind} ==")
        for i, cls in enumerate(section["classes"]):
            lines.append(f"class {i}: {', '.join(cls)}")
        if section["hasse"]:
            lines.append(
                "order: " + ", ".join(f"{a} < {b}" for a, b in section["hasse"])
            )

    for section in doc["two_sided_analysis"]:
        lines.append(f"== two-sided cell {section['class']} ==")
        lines.append("members: " + ", ".join(section["members"]))
        lines.append(
            f"regular: {_yn(section['regular'])}  "
            f"strongly regular: {_yn(section['strongly_regular'])}"
        )
        if "analysis_error" in section:
            lines.append(f"analysis error: {section['analysis_error']}")
        if "duflo" in section:
            lines.append(
                "duflo: "
                + ", ".join(f"right cell {rc} -> {lab}" for rc, lab in section["duflo"].items())
            )
        if "left_cell_constant" in section:
            lines.append(
                f"left-cell constancy: {_yn(section['left_cell_constant'])}"
            )
        for block in section.get("cartan_blocks", []):
            lines.append(
                f"cartan block (right cell {block['right_cell']}, object "
                f"{block['object']}): basis {', '.join(block['basis'])}; "
                f"matrix {block['matrix']}"
            )

    if doc.get("m_diagonal"):
        lines.append("== m-diagonal ==")
        lines.append(
            ", ".join(f"{lab}={m}" for lab, m in doc["m_diagonal"].items())
        )

    lines.append("== lint ==")
    lint = doc["lint"]
    checks = ((c["check"], c["status"], c["witnesses"]) for c in lint["checks"])
    lines += _lint_lines(checks, lint["fiat_certified_impossible"])
    return "\n".join(lines) + "\n"


def _yn(b: bool) -> str:
    return "yes" if b else "no"
