"""
Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL verdicts; timing bounds are asserted where the criterion
states one.
"""

import json
import random
import time

from fiatcells import (
    CartanBlock,
    are_isomorphic,
    cartan_blocks,
    cells,
    classify_two_sided,
    check_left_cell_constancy,
    dual_numbers,
    fiat_lint,
    find_isomorphism,
    leq_LR,
    load_multicat,
    m_coeff,
    m_table,
    make_CA,
    make_hecke,
    make_s2,
    make_sl2_singular,
    multicat_to_document,
    random_cartan_data,
    rationals,
    realize_CA,
    rs_cell_check,
    validate,
    verify_dual_numbers_quiver,
    verify_order_factorization,
)
from fiatcells.cells import preorder_closure
from fiatcells.cli import run
from fiatcells.constructors import clear_hecke_cache
from fiatcells.report import report_analyze

from conftest import FIXTURES, GOLDEN, corpus


def verdict(number: int, name: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {state}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


def analyze_doc(cat):
    return report_analyze(cat)


def test_criterion_1_s2_reproduction(capsys):
    start = time.perf_counter()
    code = run(["gen", "s2"])
    table_text = capsys.readouterr().out
    assert code == 0
    from fiatcells import load_multicat

    cat = load_multicat(table_text)
    doc = analyze_doc(cat)
    right = doc["cells"]["right"]["classes"]
    ok = right == [["1_i"], ["F"]]
    ok &= doc["m_diagonal"]["F"] == 2
    big = next(s for s in doc["two_sided_analysis"] if s["members"] == ["F"])
    ok &= [b["matrix"] for b in big["cartan_blocks"]] == [[[2]]]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        verdict(1, "s2-reproduction", ok, f"{elapsed:.3f}s")


def test_criterion_2_sl2_reproduction(capsys):
    start = time.perf_counter()
    code = run(["gen", "sl2"])
    table_text = capsys.readouterr().out
    assert code == 0
    from fiatcells import load_multicat

    cat = load_multicat(table_text)
    doc = analyze_doc(cat)
    ok = len(doc["cells"]["two-sided"]["classes"]) == 2
    right = {tuple(c) for c in doc["cells"]["right"]["classes"]}
    ok &= {("1_j", "theta_out"), ("theta", "theta_on")} <= right
    left = {tuple(c) for c in doc["cells"]["left"]["classes"]}
    ok &= {("1_j", "theta_on"), ("theta", "theta_out")} <= left
    ok &= list(doc["m_diagonal"].items()) == [
        ("1_i", 1), ("1_j", 1), ("theta_on", 1), ("theta_out", 2), ("theta", 2)
    ]
    ok &= all(s.get("left_cell_constant", True) for s in doc["two_sided_analysis"])
    ok &= not doc["lint"]["fiat_certified_impossible"]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        verdict(2, "sl2-reproduction", ok, f"{elapsed:.3f}s")


def _random_instances():
    rng = random.Random(96321)
    return [random_cartan_data(rng) for _ in range(100)]


def _order_maximal_class(part):
    """The unique two-sided class with nothing strictly above it."""
    tops = [
        q
        for q in range(len(part.classes))
        if not any(a == q and b != q for (a, b) in part.closure)
    ]
    assert len(tops) == 1, tops
    return tops[0]


def test_criterion_3_ca_correspondence(capsys):
    start = time.perf_counter()
    ok = find_isomorphism(make_CA([[1]], [[2]]), make_sl2_singular()) is not None
    ok &= are_isomorphic(make_CA([[2]]), make_s2())
    checked = 0
    for data in _random_instances():
        cat = make_CA(data)
        ok &= validate(cat).ok
        ts = cells(cat, "two-sided")
        maximal = _order_maximal_class(ts)
        ok &= classify_two_sided(cat, maximal).strongly_regular
        table = m_table(cat, maximal)
        diag = table.diagonal()
        offsets = []
        off = 0
        for comp in data.components:
            offsets.append(off)
            off += len(comp)
        for idx, m in diag.items():
            label = cat.morphs[idx].label
            if label.startswith("P["):
                f, _ = label[2:-1].split(",")
                fg = int(f[1:])
            else:  # merged identity of a one-dimensional component
                t = int(label.split("_t")[1]) - 1
                fg = offsets[t]
            comp_idx = max(t for t, o in enumerate(offsets) if o <= fg)
            local = fg - offsets[comp_idx]
            ok &= m == data.components[comp_idx][local][local]
        constant, _ = check_left_cell_constancy(cat, maximal)
        ok &= constant
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= checked == 100 and elapsed < 10.0
    with capsys.disabled():
        verdict(3, "ca-correspondence", ok, f"100 instances, {elapsed:.2f}s")


def test_criterion_4_bimodule_oracle(capsys):
    start = time.perf_counter()
    q, d = rationals(), dual_numbers()
    ok = realize_CA([q, d]) == make_CA([[1]], [[2]])
    ok &= realize_CA([d]) == make_CA([[2]])
    report = verify_dual_numbers_quiver()
    relations = (
        "alpha∘gamma = 0",
        "gamma∘beta = 0",
        "gamma² = -(beta∘alpha)²",
        "(alpha∘beta)² = 0",
    )
    ok &= all(report.checks[r] for r in relations)
    ok &= report.hom_dims == (4, 2, 2, 2)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    with capsys.disabled():
        verdict(4, "bimodule-oracle", ok, f"{elapsed:.2f}s")


def _clear_hecke_caches() -> None:
    """Forget every Hecke table and KL memo, so the next make_hecke is cold."""
    from fiatcells import klbasis

    clear_hecke_cache()
    for cached in (
        klbasis.kl_structure_constants,
        klbasis.canonical_basis,
        klbasis.canonical_basis_by_bar_invariance,
        klbasis._column,
        klbasis._bar_of_standard,
    ):
        cached.cache_clear()


def _hecke_criterion_for(n: int, time_budget: float) -> tuple[bool, float]:
    import math

    from fiatcells.klbasis import canonical_basis, canonical_basis_by_bar_invariance

    _clear_hecke_caches()
    start = time.perf_counter()
    cat = make_hecke(n)
    ok = validate(cat).ok
    ok &= fiat_lint(cat).ok
    ts = cells(cat, "two-sided")
    for qq in range(len(ts.classes)):
        ok &= classify_two_sided(cat, qq).strongly_regular
        constant, _ = check_left_cell_constancy(cat, qq)
        ok &= constant
    report = rs_cell_check(n)
    expected_right = report.n_standard_tableaux
    ok &= report.n_right_cells == expected_right
    ok &= report.n_right_cells == {3: 4, 4: 10}[n]
    convention = json.loads((GOLDEN / "rs_convention.json").read_text())
    ok &= (convention["right_cells"], convention["left_cells"]) in report.assignments
    w0 = cat.morph("theta_" + "".join(str(d) for d in range(n, 0, -1)))
    target, m = m_coeff(cat, w0, w0)
    ok &= (target, m) == (w0, math.factorial(n))
    # independent certification of the basis behind that number
    ok &= canonical_basis(n) == canonical_basis_by_bar_invariance(n)
    elapsed = time.perf_counter() - start
    ok &= elapsed < time_budget
    return ok, elapsed


def test_criterion_5_hecke_pipeline(capsys):
    ok3, t3 = _hecke_criterion_for(3, 1.0)
    ok4, t4 = _hecke_criterion_for(4, 60.0)
    with capsys.disabled():
        verdict(5, "hecke-pipeline", ok3 and ok4, f"n=3 {t3:.2f}s, n=4 {t4:.2f}s")


def test_hecke5_pipeline_from_cold():
    # S5: 120 morphs, 7 two-sided cells (one per partition of 5), 26 right
    # cells (one per standard tableau), b_w0 b_w0 = 5! b_w0 at v = 1
    _clear_hecke_caches()
    cat = make_hecke(5)
    assert validate(cat).ok
    assert fiat_lint(cat).ok
    ts = cells(cat, "two-sided")
    assert len(ts.classes) == 7
    assert all(classify_two_sided(cat, q).strongly_regular for q in range(7))
    report = rs_cell_check(5)
    assert report.n_right_cells == report.n_standard_tableaux == 26
    convention = json.loads((GOLDEN / "rs_convention.json").read_text())
    assert (convention["right_cells"], convention["left_cells"]) in report.assignments
    w0 = cat.morph("theta_54321")
    assert m_coeff(cat, w0, w0) == (w0, 120)


def cartan_blocks_agree(cat) -> bool:
    """Criterion 6 on one table: every two-sided class is strongly
    regular, and the Cartan blocks of each right cell R agree with those
    of the class's first right cell R₀ through φ: R₀ → R, which sends x
    to the member of R in the left cell of x (the main theorem, on the
    Grothendieck group).  A left cell has one target, so φ keeps targets
    and sends the basis of a block to the basis of a block; first the
    blocks of R and R₀ must have the same targets and sizes."""
    right, left = cells(cat, "right"), cells(cat, "left")
    for q in range(len(cells(cat, "two-sided").classes)):
        if not classify_two_sided(cat, q).strongly_regular:
            return False
        (_, base_blocks), *others = sorted(cartan_blocks(cat, q).items())
        base = sorted((b.target_object, len(b.basis)) for b in base_blocks)
        for rc, blocks in others:
            if sorted((b.target_object, len(b.basis)) for b in blocks) != base:
                return False
            phi = {left.class_of[y]: y for y in right.classes[rc]}
            place = {m.index: (b.matrix, i) for b in blocks for i, m in enumerate(b.basis)}
            for block in base_blocks:
                image = [place.get(phi.get(left.class_of[x.index])) for x in block.basis]
                if None in image:  # R misses the left cell of some x
                    return False
                for row, (mine, h) in zip(block.matrix, image):
                    if any(entry != mine[h][f] for entry, (_, f) in zip(row, image)):
                        return False
    return True


def test_criterion_6_cartan_blocks_agree_across_right_cells(capsys):
    cats = [make_hecke(3), make_hecke(4)]
    cats += [make_CA(data) for data in _random_instances()]
    ok = all(cartan_blocks_agree(cat) for cat in cats)
    with capsys.disabled():
        verdict(6, "cartan-block-equivalence", ok)


def test_criterion_6_fails_its_negative_controls(monkeypatch, hecke3):
    # a class that is not strongly regular: the Fibonacci table F∘F = F + 1
    doc = multicat_to_document(make_s2())
    doc["compose"] = [{"g": "F", "f": "F", "out": [{"m": "F", "mult": 1}, {"m": "1_i", "mult": 1}]}]
    assert not cartan_blocks_agree(load_multicat(doc))

    # on hecke3, whose two right cells of the middle class agree, the
    # blocks of the last right cell with one member dropped, then with
    # one entry changed
    assert cartan_blocks_agree(hecke3)
    q = cells(hecke3, "two-sided").class_of[hecke3.morph("theta_213").index]
    assert len(cartan_blocks(hecke3, q)) == 2
    true_blocks = cartan_blocks

    def one_short(b):
        return CartanBlock(b.right_cell, b.target_object, b.basis[:-1],
                           [row[:-1] for row in b.matrix[:-1]])

    def one_entry_changed(b):
        return CartanBlock(b.right_cell, b.target_object, b.basis,
                           [[b.matrix[0][0] + 1, *b.matrix[0][1:]], *b.matrix[1:]])

    for change in (one_short, one_entry_changed):
        def blocks_of(cat, q, change=change):
            blocks = true_blocks(cat, q)
            last = blocks[max(blocks)]
            last[0] = change(last[0])
            return blocks

        monkeypatch.setitem(globals(), "cartan_blocks", blocks_of)
        assert not cartan_blocks_agree(hecke3), change.__name__


def test_criterion_7_property_suite(capsys):
    ok = True
    for name, cat in corpus():
        ok &= validate(cat).ok
        ok &= fiat_lint(cat).ok
        factor_ok, _ = verify_order_factorization(cat)
        ok &= factor_ok
        for m in cat.morphs:
            ok &= leq_LR(cat, m, cat.star(m)) and leq_LR(cat, cat.star(m), m)
        reach = preorder_closure(cat, "right")
        from fiatcells import annihilator_of_simple

        for g in cat.morphs:
            ann = {m.index for m in annihilator_of_simple(cat, g)}
            for i in ann:
                for k in reach[i]:
                    if cat.morphs[k].src.index == g.tgt.index and k not in ann:
                        ok = False
    with capsys.disabled():
        verdict(7, "property-suite", ok, f"{len(corpus())} fixtures")


def test_criterion_8_negative_controls(capsys):
    results = {}
    for name, check in (
        ("nonassoc", "associativity"),
        ("badstar", "star-anti-automorphism"),
        ("unequal_m", "m-divisibility"),
    ):
        code = run(["lint", str(FIXTURES / f"{name}.json")])
        out = capsys.readouterr().out
        results[name] = code == 2 and check in out and "FAIL" in out
    # the unequal-m fixture must also name the constancy failure
    code = run(["lint", str(FIXTURES / "unequal_m.json")])
    out = capsys.readouterr().out
    results["unequal_m_constancy"] = "left-cell-constancy: FAIL" in out
    ok = all(results.values())
    with capsys.disabled():
        verdict(8, "negative-controls", ok, str(results) if not ok else "")
