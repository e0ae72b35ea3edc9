"""
The identity battery, universally quantified over the whole fixture
corpus (builtins, Hecke tables for n = 2..4, fixed and seeded-random
Cartan tables).  Zero violations are expected anywhere; a failure here
fails the build.
"""

import pytest

from fiatcells import (
    annihilator_of_simple,
    cartan_blocks,
    cells,
    classify_two_sided,
    duflo_element,
    fiat_lint,
    leq_LR,
    m_table,
    validate,
    verify_order_factorization,
)
from fiatcells.cells import preorder_closure

from conftest import corpus

CORPUS = corpus()
IDS = [name for name, _ in CORPUS]
CATS = [cat for _, cat in CORPUS]


def strongly_regular_classes(cat):
    ts = cells(cat, "two-sided")
    for q in range(len(ts.classes)):
        if classify_two_sided(cat, q).strongly_regular:
            yield q, ts


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_tables_validate(cat):
    assert validate(cat).ok


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_order_factors_through_one_sided_orders(cat):
    ok, witness = verify_order_factorization(cat)
    assert ok, witness


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_star_stays_in_its_two_sided_cell(cat):
    for m in cat.morphs:
        assert leq_LR(cat, m, cat.star(m))
        assert leq_LR(cat, cat.star(m), m)


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_regular_cells_have_nonempty_intersections(cat):
    ts = cells(cat, "two-sided")
    for q in range(len(ts.classes)):
        verdict = classify_two_sided(cat, q)
        if verdict.regular:
            assert not verdict.empty_intersections


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_cells_are_mutual_reachability_classes(cat):
    for kind in ("left", "right", "two-sided"):
        part = cells(cat, kind)
        reach = preorder_closure(cat, kind)
        for cls in part.classes:
            for f in cls:
                for g in cls:
                    assert g in reach[f]


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_two_sided_classes_refine(cat):
    ts = cells(cat, "two-sided")
    for kind in ("left", "right"):
        part = cells(cat, kind)
        for cls in part.classes:
            assert len({ts.class_of[m] for m in cls}) == 1


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_m_symmetric_on_right_cells(cat):
    right = cells(cat, "right")
    for q, ts in strongly_regular_classes(cat):
        table = m_table(cat, q)
        for (f, h), (_, m) in table.m.items():
            if right.class_of[f] == right.class_of[h]:
                assert table.m[(h, f)][1] == m


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_m_diagonal_positive(cat):
    for q, ts in strongly_regular_classes(cat):
        table = m_table(cat, q)
        for f, m in table.diagonal().items():
            assert m >= 1, cat.morphs[f].label


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_self_dual_composites_are_pure(cat):
    right = cells(cat, "right")
    for q, ts in strongly_regular_classes(cat):
        table = m_table(cat, q)
        members = sorted(ts.classes[q])
        for h in members:
            if cat.star_map[h] != h:
                continue
            for f in members:
                if right.class_of[f] != right.class_of[h]:
                    continue
                # F∘H in the quotient attached to the cell: its summands
                # inside the cell, none of the others below it
                out = cat.compose_idx(f, h)
                assert all(ts.leq_class(q, ts.class_of[k]) for k in out)
                kept = {k: c for k, c in out.items() if ts.class_of[k] == q}
                m_hh = table.m[(h, h)][1]
                assert kept == {f: m_hh}, (
                    f"{cat.morphs[f].label}∘{cat.morphs[h].label} is not "
                    f"{m_hh} copies of {cat.morphs[f].label}"
                )


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_m_product_identity(cat):
    right = cells(cat, "right")
    left = cells(cat, "left")
    for q, ts in strongly_regular_classes(cat):
        table = m_table(cat, q)
        diag = table.diagonal()
        members = sorted(ts.classes[q])
        for f in members:
            fs = cat.star_map[f]
            hs = [h for h in members if cat.star_map[h] == h
                  and left.class_of[h] == left.class_of[f]]
            gs = [g for g in members if cat.star_map[g] == g
                  and right.class_of[g] == right.class_of[f]]
            for h in hs:
                for g in gs:
                    assert diag[f] * diag[g] == diag[fs] * diag[h]


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_cartan_blocks_symmetric(cat):
    for q, ts in strongly_regular_classes(cat):
        for rc, blocks in cartan_blocks(cat, q).items():
            for block in blocks:
                assert block.is_symmetric()
                n = len(block.basis)
                assert all(block.matrix[i][i] >= 1 for i in range(n))


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_self_dual_dominates_and_divides(cat):
    left = cells(cat, "left")
    for q, ts in strongly_regular_classes(cat):
        table = m_table(cat, q)
        diag = table.diagonal()
        members = sorted(ts.classes[q])
        for h in members:
            if cat.star_map[h] != h:
                continue
            for f in members:
                if left.class_of[f] != left.class_of[h]:
                    continue
                assert diag[f] <= diag[h]
                assert diag[h] % diag[f] == 0


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_annihilator_is_right_coideal(cat):
    reach = preorder_closure(cat, "right")
    for g in cat.morphs:
        ann = {m.index for m in annihilator_of_simple(cat, g)}
        for i in ann:
            for k in reach[i]:
                if cat.morphs[k].src.index == g.tgt.index:
                    assert k in ann


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_duflo_is_self_dual_unique(cat):
    right = cells(cat, "right")
    for q, ts in strongly_regular_classes(cat):
        for rc in sorted({right.class_of[i] for i in ts.classes[q]}):
            d = duflo_element(cat, rc)
            assert cat.star(d) == d
            others = [
                i for i in right.classes[rc] if cat.star_map[i] == i and i != d.index
            ]
            assert not others


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_full_lint_passes(cat):
    report = fiat_lint(cat)
    assert report.ok, str(report)


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_star_swaps_right_and_left_cells(cat):
    right = cells(cat, "right")
    left = cells(cat, "left")
    for m in cat.morphs:
        image = frozenset(cat.star_map[i] for i in right.classes[right.class_of[m.index]])
        assert image == left.classes[left.class_of[cat.star_map[m.index]]]


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_cell_subcategory_survives_on_every_strongly_regular_class(cat):
    from fiatcells import cell_subcategory

    # validate() and the persistence of the class are asserted inside the
    # op; this drives it across the corpus and re-checks the discard side
    ts = cells(cat, "two-sided")
    for q, _ in strongly_regular_classes(cat):
        sub, discards = cell_subcategory(cat, q)
        labels = {m.label for m in sub.morphs}
        for (g, f, k, mult) in discards:
            assert k not in labels
            assert mult >= 1


@pytest.mark.parametrize("cat", CATS, ids=IDS)
def test_serializer_round_trips(cat):
    from fiatcells import load_multicat, serialize_multicat

    text = serialize_multicat(cat)
    assert serialize_multicat(load_multicat(text)) == text
