"""Oracle ops: cold Hecke generation, the bar-invariance certificate, the
Robinson-Schensted cell check and the bimodule oracle.

The benchmark imports this module in a process that then runs nothing
itself; each op (a list of steps) runs in a child forked from it (see
run.Oracles), so the import is paid once and no memo of an earlier op
survives.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from pathlib import Path

import fiatcells as fc
from fiatcells import bimodule, klbasis

from calibration import Calibration
from checks import HECKE_CELLS
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _by_permutation(cat) -> dict[str, object]:
    """Morphs of a Hecke table keyed by the digits of their permutation."""
    return {re.sub(r"\D", "", m.label): m for m in cat.morphs}


def gen_hecke(spec: dict, tr: Tracer):
    n = spec["n"]
    with tr.span("constructors.make_hecke"):
        if tr.enabled:
            with tr.span("klbasis.canonical_basis"):
                klbasis.canonical_basis(n)
            with tr.span("klbasis.structure_constants"):
                consts = klbasis.kl_structure_constants(n)
            tr.count("klbasis.structure_terms", sum(len(v) for v in consts.values()))
        cat = fc.make_hecke(n)
    return cat


def check_gen_hecke(spec: dict, cat, tr: Tracer) -> str | None:
    # at v = 1: b_s b_s = 2 b_s for a simple reflection, b_w0 b_w0 = n! b_w0
    n = spec["n"]
    by = _by_permutation(cat)
    w0 = by["".join(str(d) for d in range(n, 0, -1))]
    s1 = by["21" + "".join(str(d) for d in range(3, n + 1))]
    if len(cat.morphs) != math.factorial(n):
        return f"{len(cat.morphs)} morphs"
    if fc.compose(cat, w0, w0) != {w0: math.factorial(n)} or fc.compose(cat, s1, s1) != {s1: 2}:
        return "w0∘w0 or s∘s has the wrong summands"
    return None if fc.validate(cat).ok else "generated table is not valid"


def bar_invariance(spec: dict, tr: Tracer):
    n = spec["n"]
    with tr.span("klbasis.bar_invariance"):
        certified = klbasis.canonical_basis_by_bar_invariance(n)
    with tr.span("klbasis.canonical_basis"):
        recursive = klbasis.canonical_basis(n)
    return certified, recursive


def check_bar_invariance(spec: dict, result, tr: Tracer) -> str | None:
    certified, recursive = result
    if len(certified) != math.factorial(spec["n"]):
        return f"{len(certified)} basis elements"
    return None if certified == recursive else "KL recursion differs from the certified basis"


def rs_cell_check(spec: dict, tr: Tracer):
    with tr.span("constructors.rs_cell_check"):
        return fc.rs_cell_check(spec["n"])


def check_rs_cell_check(spec: dict, report, tr: Tracer) -> str | None:
    convention = json.loads((ROOT / "tests" / "golden" / "rs_convention.json").read_text())
    want = HECKE_CELLS[spec["n"]][0]  # standard tableaux: one per right cell
    if not report.consistent or report.n_right_cells != want or report.n_standard_tableaux != want:
        return f"RS cells: {report.n_right_cells} right cells, {report.n_standard_tableaux} tableaux"
    if (convention["right_cells"], convention["left_cells"]) not in report.assignments:
        return f"tableau assignment {report.assignments} misses the pinned convention"
    return None


def _algebras(spec: dict):
    return [bimodule.algebra_from_document(doc) for doc in spec["algebras"]]


def realize_ca(spec: dict, tr: Tracer):
    algebras = _algebras(spec)
    with tr.span("bimodule.realize_ca"):
        return fc.realize_CA(algebras)


def check_realize_ca(spec: dict, cat, tr: Tracer) -> str | None:
    algebras = _algebras(spec)
    if [list(map(list, c)) for c in fc.cartan_of(algebras).components] != spec["cartan"]:
        return "cartan_of differs from the algebras' pairing"
    with tr.span("constructors.make_ca"):
        formula = fc.make_CA(*spec["cartan"])
    if cat != formula:
        return "realize_CA differs from make_CA"
    if tr.enabled:
        _bimodule_layers(algebras, tr)
    return None


def _bimodule_layers(algebras, tr: Tracer) -> None:
    """realize_CA's steps through the public bimodule calls, one span each."""
    vertices = [(a, i) for a in algebras for i in range(len(a.idempotents))]
    with tr.span("bimodule.projective"):
        proj = {
            (f, e): bimodule.projective_bimodule(vertices[f][0], vertices[f][1],
                                                 vertices[e][0], vertices[e][1])
            for f, e in itertools.product(range(len(vertices)), repeat=2)
        }
    candidates = {}
    for a, b in itertools.product(algebras, repeat=2):
        cand = [bimodule.identity_bimodule(a)] if a is b and a.dim > 1 else []
        cand += [p for (f, e), p in proj.items() if vertices[f][0] is a and vertices[e][0] is b]
        candidates[(id(a), id(b))] = cand
    for (f, e), (f2, e2) in itertools.product(proj, repeat=2):
        if vertices[e][0] is not vertices[f2][0]:
            continue
        with tr.span("bimodule.tensor"):
            product = bimodule.tensor_over(proj[(f, e)], proj[(f2, e2)])
        tr.count("bimodule.tensors", 1)
        tr.peak("bimodule.max_tensor_dim", product.dim)
        cand = candidates[(id(vertices[f][0]), id(vertices[e2][0]))]
        with tr.span("bimodule.hom"):
            for c in cand:
                bimodule.hom_dim(c, product)
        tr.peak("bimodule.max_hom_unknowns", max(c.dim * product.dim for c in cand))
        with tr.span("bimodule.decompose"):
            bimodule.decompose_against(product, cand)


def verify_quiver(spec: dict, tr: Tracer):
    with tr.span("bimodule.verify_quiver"):
        return fc.verify_dual_numbers_quiver()


def check_verify_quiver(spec: dict, report, tr: Tracer) -> str | None:
    return None if report.ok and report.hom_dims == (4, 2, 2, 2) else f"quiver {report}"


OPS = {
    "gen_hecke": (gen_hecke, check_gen_hecke),
    "bar_invariance": (bar_invariance, check_bar_invariance),
    "rs_cell_check": (rs_cell_check, check_rs_cell_check),
    "realize_ca": (realize_ca, check_realize_ca),
    "verify_quiver": (verify_quiver, check_verify_quiver),
}


def run_op(spec: dict, traced: bool) -> dict:
    """Time each step of one op and check its result; spans and counts only
    when traced.  Calibration samples taken inside the steps are returned
    and kept out of their times."""
    tr = Tracer(traced)
    tr.begin_op(0)
    cal = Calibration()
    parts, errors = [], []
    with cal.during():
        for step in spec["steps"]:
            run, check = OPS[step["op"]]
            paused = cal.paused
            start = time.perf_counter()
            with tr.span(f"oracle.{step['op']}"):
                result = run(step, tr)
            seconds = time.perf_counter() - start - (cal.paused - paused)
            parts.append({"op": step["op"], "name": step.get("name", ""), "seconds": seconds})
            error = check(step, result, tr)
            if error:
                errors.append(f"{step['op']} {step.get('name', '')}: {error}")
    return {"seconds": sum(p["seconds"] for p in parts), "parts": parts,
            "error": "; ".join(errors) or None, "calibration": cal.samples,
            "spans": tr.spans, "counts": tr.counts, "peaks": tr.peaks}
