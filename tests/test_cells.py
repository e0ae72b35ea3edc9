import importlib
import json
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiatcells import (
    NotComposableError,
    acts_nonzero,
    annihilator_of_simple,
    cells,
    classify_two_sided,
    comp_mult_principal,
    leq_L,
    leq_LR,
    leq_R,
    load_multicat,
    make_CA,
    make_hecke,
    multicat_to_document,
    random_cartan_data,
    validate,
    verify_order_factorization,
)
from fiatcells.cells import KINDS, preorder_closure

from conftest import corpus, stored_tables

# the module: the package exports its function ``cells`` under that name
cells_module = importlib.import_module("fiatcells.cells")


def labels(cat, part):
    return [sorted(cat.morphs[i].label for i in c) for c in part.classes]


def test_s2_cells(s2):
    part = cells(s2, "right")
    assert labels(s2, part) == [["1_i"], ["F"]]
    assert part.order_edges == ((0, 1),)
    assert labels(s2, cells(s2, "left")) == [["1_i"], ["F"]]
    assert labels(s2, cells(s2, "two-sided")) == [["1_i"], ["F"]]


def test_s2_preorder(s2):
    one, f = s2.morph("1_i"), s2.morph("F")
    assert leq_R(s2, one, f)
    assert not leq_R(s2, f, one)
    assert leq_R(s2, f, f)  # reflexive


def test_sl2_cells(sl2):
    assert labels(sl2, cells(sl2, "right")) == [
        ["1_i"],
        ["1_j", "theta_out"],
        ["theta", "theta_on"],
    ]
    assert labels(sl2, cells(sl2, "left")) == [
        ["1_i"],
        ["1_j", "theta_on"],
        ["theta", "theta_out"],
    ]
    assert labels(sl2, cells(sl2, "two-sided")) == [
        ["1_i"],
        ["1_j", "theta", "theta_on", "theta_out"],
    ]


def test_star_swaps_left_and_right_cells(sl2):
    right = cells(sl2, "right")
    left = cells(sl2, "left")
    for m in sl2.morphs:
        image = frozenset(sl2.star_map[i] for i in right.classes[right.class_of[m.index]])
        assert image == left.classes[left.class_of[sl2.star_map[m.index]]]


def test_star_fixes_two_sided_cells(sl2, hecke3):
    for cat in (sl2, hecke3):
        part = cells(cat, "two-sided")
        for m in cat.morphs:
            assert part.class_of[m.index] == part.class_of[cat.star_map[m.index]]


def test_leq_LR_star(sl2):
    for m in sl2.morphs:
        assert leq_LR(sl2, m, sl2.star(m))
        assert leq_LR(sl2, sl2.star(m), m)


def test_order_factorization(s2, sl2, hecke3):
    for cat in (s2, sl2, hecke3):
        ok, witness = verify_order_factorization(cat)
        assert ok, witness


def test_cross_object_comparability(sl2):
    # the right order only relates morphisms with equal source
    for f in sl2.morphs:
        for g in sl2.morphs:
            if leq_R(sl2, f, g) and f.index != g.index:
                assert f.src.index == g.src.index
            if leq_L(sl2, f, g) and f.index != g.index:
                assert f.tgt.index == g.tgt.index


def test_classify_two_sided(sl2, hecke3):
    ts = cells(sl2, "two-sided")
    big = ts.class_of[sl2.morph("theta").index]
    verdict = classify_two_sided(sl2, big)
    assert verdict.regular and verdict.strongly_regular
    assert not verdict.empty_intersections
    for q in range(len(cells(hecke3, "two-sided").classes)):
        v = classify_two_sided(hecke3, q)
        assert v.regular and v.strongly_regular
    with pytest.raises(IndexError):
        classify_two_sided(sl2, 99)


def test_classify_not_strongly_regular():
    # the Fibonacci table: one two-sided cell {1, F} with a single left and
    # right cell, so the intersection has two elements
    from fiatcells import load_multicat, serialize_multicat, make_s2
    import json

    doc = json.loads(serialize_multicat(make_s2()))
    doc["compose"] = [
        {"g": "F", "f": "F", "out": [{"m": "F", "mult": 1}, {"m": "1_i", "mult": 1}]}
    ]
    fib = load_multicat(doc)
    part = cells(fib, "two-sided")
    assert len(part.classes) == 1
    verdict = classify_two_sided(fib, 0)
    assert verdict.regular and not verdict.strongly_regular
    assert any(w[0] == "intersection-not-singleton" for w in verdict.witnesses)


def test_acts_nonzero(s2, sl2):
    one, f = s2.morph("1_i"), s2.morph("F")
    assert acts_nonzero(s2, f, f)
    assert not acts_nonzero(s2, f, one)
    assert acts_nonzero(sl2, sl2.morph("theta_on"), sl2.morph("theta"))
    with pytest.raises(NotComposableError):
        acts_nonzero(sl2, sl2.morph("theta_on"), sl2.morph("1_j"))


def test_annihilators(s2, sl2):
    assert [m.label for m in annihilator_of_simple(s2, s2.morph("1_i"))] == ["F"]
    assert annihilator_of_simple(s2, s2.morph("F")) == []
    # every composable morphism acts on the simple of 1_j
    assert annihilator_of_simple(sl2, sl2.morph("1_j")) == []
    # theta kills the simples below it
    ann = annihilator_of_simple(sl2, sl2.morph("1_i"))
    assert sorted(m.label for m in ann) == ["theta", "theta_on"]


def test_annihilator_coideal_on_corpus():
    from conftest import corpus

    for name, cat in corpus():
        from fiatcells.cells import preorder_closure

        reach = preorder_closure(cat, "right")
        for g in cat.morphs:
            ann = {m.index for m in annihilator_of_simple(cat, g)}
            for i in ann:
                for k in reach[i]:
                    if cat.morphs[k].src.index == g.tgt.index:
                        assert k in ann, (name, g.label)


def test_comp_mult_principal(s2, sl2):
    f = s2.morph("F")
    assert comp_mult_principal(s2, f, f, f) == 2
    one = s2.morph("1_i")
    assert comp_mult_principal(s2, one, f, f) == 1
    th_on, th = sl2.morph("theta_on"), sl2.morph("theta")
    assert comp_mult_principal(sl2, th_on, th, th_on) == 1
    with pytest.raises(NotComposableError):
        comp_mult_principal(sl2, th_on, th_on, th)


def test_cached_partition_is_read_only():
    from fiatcells import make_sl2_singular

    sl2 = make_sl2_singular()
    part = cells(sl2, "two-sided")
    before = dict(part.class_of)
    with pytest.raises(TypeError):
        part.class_of[0] = 99
    assert cells(sl2, "two-sided") is part
    assert dict(cells(sl2, "two-sided").class_of) == before


def test_cached_closure_is_read_only():
    from fiatcells import make_sl2_singular

    sl2 = make_sl2_singular()
    one, theta = sl2.morph("1_i"), sl2.morph("theta")
    assert leq_R(sl2, one, theta)
    reach = preorder_closure(sl2, "right")
    with pytest.raises(TypeError):
        reach[one.index] = frozenset([one.index])
    assert preorder_closure(sl2, "right") is reach
    assert leq_R(sl2, one, theta)


def test_bad_kind_rejected(s2):
    with pytest.raises(ValueError, match="kind"):
        cells(s2, "sideways")


def test_hecke3_cell_counts(hecke3):
    assert len(cells(hecke3, "right").classes) == 4
    assert len(cells(hecke3, "two-sided").classes) == 3
    sizes = sorted(len(c) for c in cells(hecke3, "right").classes)
    assert sizes == [1, 1, 2, 2]


def reference_cells(cat, kind):
    """(classes, class_of, closure, Hasse edges, reachability) by definition.

    F <= K when a chain of edges leads from F to K: for the right order
    an edge F -> K for each summand K of a composite H∘F, for the left
    order for each summand K of F∘H, and both for the two-sided order.
    The composites are those ``compose_idx`` gives on every composable
    pair, so a stored entry that composition never reads adds no edge.
    """
    n = len(cat.morphs)
    composites = [
        ((g, f), cat.compose_idx(g, f))
        for g in range(n)
        for f in range(n)
        if cat.composable(g, f)
    ]
    le = [[i == j for j in range(n)] for i in range(n)]
    for (g, f), out in composites:
        for k in out:
            if kind in ("right", "two-sided"):
                le[f][k] = True
            if kind in ("left", "two-sided"):
                le[g][k] = True
    for m in range(n):  # Warshall: transitive closure
        for i in range(n):
            if le[i][m]:
                for j in range(n):
                    le[i][j] = le[i][j] or le[m][j]
    classes = sorted(
        {frozenset(j for j in range(n) if le[i][j] and le[j][i]) for i in range(n)}, key=min
    )
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    below = {
        (a, b)
        for a, sa in enumerate(classes)
        for b, sb in enumerate(classes)
        if any(le[i][j] for i in sa for j in sb)
    }
    hasse = sorted(
        (a, b)
        for (a, b) in below
        if a != b
        and not any((a, c) in below and (c, b) in below for c in range(len(classes)) if c not in (a, b))
    )
    reach = {i: frozenset(j for j in range(n) if le[i][j]) for i in range(n)}
    return tuple(classes), class_of, frozenset(below), tuple(hasse), reach


def fresh(cat, validated):
    """A copy of ``cat`` with nothing cached; validated first when asked,
    so that its preorders read the generator edges if it is valid."""
    copy = pickle.loads(pickle.dumps(cat))
    if validated:
        validate(copy)
    return copy


def assert_cells_match_reference(cat, name):
    """Both edge sources against the reference, each on a fresh copy:
    one never validated, and one validated first."""
    want = {kind: reference_cells(cat, kind) for kind in KINDS}
    for validated in (False, True):
        copy = fresh(cat, validated)
        for kind in KINDS:
            classes, class_of, closure, hasse, reach = want[kind]
            part = cells(copy, kind)
            where = (name, kind, validated)
            assert part.classes == classes, where
            assert part.class_of == class_of, where
            assert part.closure == closure, where
            assert part.order_edges == hasse, where
            assert preorder_closure(copy, kind) == reach, where
        assert (copy._validation is not None) == validated, name


def unread_entry_tables():
    """Two invalid tables, each with a stored entry that composition never
    reads: 1_i∘F = G against the unit law, and G∘F stored although G and
    F do not compose."""
    unit = load_multicat({
        "objects": ["i"],
        "morphisms": [
            {"label": "1_i", "src": "i", "tgt": "i", "identity": True},
            {"label": "F", "src": "i", "tgt": "i"},
            {"label": "G", "src": "i", "tgt": "i"},
        ],
        "star": {},
        "compose": [
            {"g": "F", "f": "F", "out": [{"m": "F", "mult": 2}]},
            {"g": "G", "f": "G", "out": [{"m": "G", "mult": 2}]},
            {"g": "1_i", "f": "F", "out": [{"m": "G", "mult": 1}]},
        ],
    })
    apart = load_multicat({
        "objects": ["i", "j"],
        "morphisms": [
            {"label": "1_i", "src": "i", "tgt": "i", "identity": True},
            {"label": "1_j", "src": "j", "tgt": "j", "identity": True},
            {"label": "F", "src": "i", "tgt": "i"},
            {"label": "G", "src": "j", "tgt": "j"},
        ],
        "star": {},
        "compose": [
            {"g": "F", "f": "F", "out": [{"m": "F", "mult": 1}]},
            {"g": "G", "f": "G", "out": [{"m": "G", "mult": 1}]},
            {"g": "G", "f": "F", "out": [{"m": "G", "mult": 1}]},
        ],
    })
    return [("stored unit entry", unit), ("stored non-composable entry", apart)]


def test_cells_match_reference(hecke3, hecke4):
    tables = stored_tables() + [("hecke3", hecke3), ("hecke4", hecke4)] + unread_entry_tables()
    assert {"nonassoc.json", "cartan_12.json", "sl2.json"} <= {name for name, _ in tables}
    for name, cat in tables:
        assert_cells_match_reference(cat, name)


def edge_sources(monkeypatch):
    """The composites each graph build reads, one item per build in order:
    "generators" when it reads the generating set that validation cached,
    "every entry" when not."""
    read = []
    graphs = cells_module._graphs

    class Generators(tuple):
        def __iter__(self):
            read[-1] = "generators"
            return super().__iter__()

    def spy(cat):
        read.append("every entry")
        verdict = cat._validation
        if verdict is None:
            return graphs(cat)
        spied = verdict._replace(generating_set=Generators(verdict.generating_set))
        object.__setattr__(cat, "_validation", spied)
        try:
            return graphs(cat)
        finally:
            object.__setattr__(cat, "_validation", verdict)

    monkeypatch.setattr(cells_module, "_graphs", spy)
    return read


def test_the_cached_verdict_picks_the_edge_source(monkeypatch, hecke3):
    read = edge_sources(monkeypatch)
    tables = {name: cat for name, cat in stored_tables()}
    # unequal_m breaks lint, not the axioms: it validates
    for name, cat, source in [
        ("hecke3", hecke3, "generators"),
        ("unequal_m.json", tables["unequal_m.json"], "generators"),
        ("nonassoc.json", tables["nonassoc.json"], "every entry"),
        ("badstar.json", tables["badstar.json"], "every entry"),
    ]:
        for validated in (False, True):
            copy = fresh(cat, validated)
            read.clear()
            for kind in KINDS:
                preorder_closure(copy, kind)
                cells(copy, kind)
            # one build serves all three kinds
            assert read == [source if validated else "every entry"], (name, validated)
            assert set(copy._cells.closures) == set(KINDS), (name, validated)


def test_generator_edges_match_every_edge_on_hecke5(monkeypatch):
    # the Warshall reference is too slow at 120 morphs: on S5 and on every
    # stored table that validates, the generator path against the path
    # that reads every composite
    read = edge_sources(monkeypatch)
    tables = [(name, cat) for name, cat in stored_tables() if validate(cat).ok]
    assert len(tables) >= 5
    tables.append(("hecke5", make_hecke(5)))
    for name, cat in tables:
        every, generated = fresh(cat, False), fresh(cat, True)
        for kind in KINDS:
            assert preorder_closure(generated, kind) == preorder_closure(every, kind), (name, kind)
            assert cells(generated, kind) == cells(every, kind), (name, kind)
    assert read.count("every entry") == read.count("generators") == len(tables)
    assert len(cells(generated, "right").classes) == 26
    assert len(cells(generated, "two-sided").classes) == 7


def mutated(doc, rng):
    """``doc`` with one to three seeded changes: a multiplicity bumped, a
    summand dropped, two star images swapped, a stored entry with an
    identity in it, or a stored entry of a pair that does not compose."""
    doc = json.loads(json.dumps(doc))
    morphs, compose = doc["morphisms"], doc["compose"]
    star = {m["label"]: doc["star"].get(m["label"], m["label"]) for m in morphs}
    stored = {(e["g"], e["f"]) for e in compose}
    for _ in range(rng.randint(1, 3)):
        change = rng.randrange(5)
        entry = rng.choice(compose) if compose else {"out": []}
        if change == 0 and entry["out"]:
            rng.choice(entry["out"])["mult"] += 1
        elif change == 1 and entry["out"]:
            entry["out"].pop(rng.randrange(len(entry["out"])))
        elif change == 2 and len(star) > 1:
            a, b = rng.sample(list(star), 2)
            star[a], star[b] = star[b], star[a]
        else:
            g, f = rng.choice(morphs), rng.choice(morphs)
            if change == 3:  # an identity after f
                g = next(m for m in morphs if m.get("identity") and m["src"] == f["tgt"])
            if (g["label"], f["label"]) not in stored and (change == 3 or g["src"] != f["tgt"]):
                stored.add((g["label"], f["label"]))
                out = [{"m": rng.choice(morphs)["label"], "mult": rng.randint(1, 3)}]
                compose.append({"g": g["label"], "f": f["label"], "out": out})
    doc["star"] = star
    return doc


def test_every_summand_lies_above_both_factors():
    # what the cell analysis and comp_mult_principal rely on: every
    # summand K of a composable g∘f has f <=_R K and g <=_L K, stored
    # entry or unit law, on valid and broken tables alike
    rng = random.Random(2024)
    tables = corpus() + stored_tables()
    tables += [(f"{name}, mutated {i}", load_multicat(mutated(multicat_to_document(cat), rng)))
               for i in range(3) for name, cat in tables]
    tables += [(f"make_CA {i}, mutated", load_multicat(mutated(
        multicat_to_document(make_CA(random_cartan_data(rng))), rng))) for i in range(40)]
    broken = 0
    for name, cat in tables:
        broken += not validate(fresh(cat, False)).ok
        for validated in (False, True):
            copy = fresh(cat, validated)
            above_r, above_l = preorder_closure(copy, "right"), preorder_closure(copy, "left")
            for g in range(len(copy.morphs)):
                for f in range(len(copy.morphs)):
                    if copy.composable(g, f):
                        for k in copy.compose_idx(g, f):
                            assert k in above_r[f] and k in above_l[g], (name, validated, g, f, k)
    assert broken > len(tables) // 3, (broken, len(tables))


def test_members_of_a_cell_share_one_reach_set(hecke4):
    for validated in (False, True):
        copy = fresh(hecke4, validated)
        for kind in KINDS:
            reach = preorder_closure(copy, kind)
            for members in cells(copy, kind).classes:
                assert len({id(reach[m]) for m in members}) == 1, (kind, validated)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_cells_match_reference_on_random_cartan_tables(seed):
    cat = make_CA(random_cartan_data(random.Random(seed)))
    assert_cells_match_reference(cat, seed)
