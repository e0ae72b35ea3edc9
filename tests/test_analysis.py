import json
import random
from itertools import permutations

import pytest

from fiatcells import (
    DufloError,
    MultiCat,
    NotComposableError,
    NotStronglyRegularError,
    PurityError,
    cartan_blocks,
    cartan_matrix,
    cell_subcategory,
    cells,
    check_left_cell_constancy,
    classify_two_sided,
    duflo_element,
    fiat_lint,
    load_multicat,
    m_coeff,
    m_table,
    make_CA,
    multicat_to_document,
    random_cartan_data,
    report_analyze,
    serialize_multicat,
    validate,
)

from fiatcells.analysis import cell_analysis

from conftest import FIXTURES, stored_tables


def two_sided_class_of(cat, label):
    part = cells(cat, "two-sided")
    return part.class_of[cat.morph(label).index]


def right_class_of(cat, label):
    part = cells(cat, "right")
    return part.class_of[cat.morph(label).index]


def test_duflo_elements(s2, sl2):
    assert duflo_element(s2, right_class_of(s2, "F")).label == "F"
    assert duflo_element(sl2, right_class_of(sl2, "theta_out")).label == "1_j"
    assert duflo_element(sl2, right_class_of(sl2, "theta_on")).label == "theta"
    with pytest.raises(IndexError):
        duflo_element(s2, 5)


@pytest.mark.parametrize(
    "read, kind",
    [
        (classify_two_sided, "two-sided"),
        (m_table, "two-sided"),
        (check_left_cell_constancy, "two-sided"),
        (cartan_blocks, "two-sided"),
        (cell_subcategory, "two-sided"),
        (duflo_element, "right"),
        (lambda cat, rc: cartan_matrix(cat, rc, 0), "right"),
    ],
    ids=["classify_two_sided", "m_table", "check_left_cell_constancy", "cartan_blocks",
         "cell_subcategory", "duflo_element", "cartan_matrix"],
)
def test_class_index_out_of_range(sl2, read, kind):
    count = len(cells(sl2, kind).classes)
    for index in (-1, count):
        with pytest.raises(IndexError, match=f"{kind} class index {index} out of range"):
            read(sl2, index)


def test_duflo_error_without_unique_self_dual():
    # star_swap.json: a valid table whose star exchanges two singleton
    # cells, each a strongly regular cell without any self-dual element
    cat = load_multicat(FIXTURES / "star_swap.json")
    assert validate(cat).ok
    with pytest.raises(DufloError):
        duflo_element(cat, right_class_of(cat, "A"))


def test_m_coeff_sl2(sl2):
    cases = {
        ("theta", "theta"): ("theta", 2),
        ("theta_out", "theta_out"): ("1_j", 2),
        ("theta_on", "theta_on"): ("theta", 1),
        ("1_j", "1_j"): ("1_j", 1),
    }
    for (f, h), (target, m) in cases.items():
        got_target, got_m = m_coeff(sl2, sl2.morph(f), sl2.morph(h))
        assert (got_target.label, got_m) == (target, m)


def test_m_coeff_s2(s2):
    target, m = m_coeff(s2, s2.morph("F"), s2.morph("F"))
    assert (target.label, m) == ("F", 2)


def test_m_coeff_hecke3_middle_and_top(hecke3):
    w0 = hecke3.morph("theta_321")
    target, m = m_coeff(hecke3, w0, w0)
    assert (target.label, m) == ("theta_321", 6)
    # middle cell: star(theta_231) = theta_312
    f = hecke3.morph("theta_231")
    target, m = m_coeff(hecke3, f, f)
    assert m == 2


def test_m_coeff_requires_same_cell(sl2):
    with pytest.raises(NotStronglyRegularError):
        m_coeff(sl2, sl2.morph("1_i"), sl2.morph("theta"))


def test_m_coeff_on_a_pair_that_does_not_compose(sl2):
    # tgt(1_j) = j but tgt(theta_out) = i: star(theta_out) = theta_on
    # cannot follow 1_j, so the pair has no entry in the m table
    with pytest.raises(NotComposableError) as caught:
        m_coeff(sl2, sl2.morph("1_j"), sl2.morph("theta_out"))
    assert str(caught.value) == (
        "cannot compose theta_on after 1_j: src(theta_on)=i != tgt(1_j)=j"
    )


def test_m_coeff_on_a_pair_with_unequal_targets_when_star_keeps_ends(sl2):
    # with star the identity, star(theta_out) = theta_out does follow 1_j,
    # but tgt(1_j) = j != tgt(theta_out) = i: the pair still has no entry
    # in the m table
    doc = multicat_to_document(sl2)
    doc["star"] = {}
    cat = load_multicat(doc)
    assert validate(cat).laws() == ["star-ends"]
    with pytest.raises(NotComposableError) as caught:
        m_coeff(cat, cat.morph("1_j"), cat.morph("theta_out"))
    assert str(caught.value) == (
        "no m coefficient for 1_j, theta_out: tgt(1_j)=j != tgt(theta_out)=i"
    )


def test_m_table_sl2(sl2):
    q = two_sided_class_of(sl2, "theta")
    table = m_table(sl2, q)
    diag = {sl2.morphs[f].label: m for f, m in table.diagonal().items()}
    assert diag == {"1_j": 1, "theta_on": 1, "theta_out": 2, "theta": 2}
    assert {sl2.morphs[i].label for i in table.duflo.values()} == {"1_j", "theta"}
    # entries exist exactly for composable (equal-target) pairs
    for (f, h) in table.m:
        assert sl2.morphs[f].tgt == sl2.morphs[h].tgt
    assert len(table.m) == 8


def test_m_symmetry_within_right_cells(hecke3, hecke4):
    for cat in (hecke3, hecke4):
        right = cells(cat, "right")
        ts = cells(cat, "two-sided")
        for q in range(len(ts.classes)):
            table = m_table(cat, q)
            for (f, h), (_, m) in table.m.items():
                if right.class_of[f] == right.class_of[h]:
                    assert table.m[(h, f)][1] == m


def test_left_cell_constancy(sl2, hecke3, hecke4):
    for cat in (sl2, hecke3, hecke4):
        ts = cells(cat, "two-sided")
        for q in range(len(ts.classes)):
            ok, witness = check_left_cell_constancy(cat, q)
            assert ok and witness is None


def test_left_cell_constancy_fails_on_fixture():
    cat = load_multicat(FIXTURES / "unequal_m.json")
    q = two_sided_class_of(cat, "t")
    ok, witness = check_left_cell_constancy(cat, q)
    assert not ok
    left = cells(cat, "left")
    assert sorted(cat.morphs[i].label for i in left.classes[witness]) == ["1_j", "a"]


def test_cartan_blocks_sl2(sl2):
    rc1 = right_class_of(sl2, "theta_out")
    i, j = 0, 1
    assert cartan_matrix(sl2, rc1, i).matrix == [[2]]
    assert cartan_matrix(sl2, rc1, j).matrix == [[1]]
    rc2 = right_class_of(sl2, "theta_on")
    assert cartan_matrix(sl2, rc2, i).matrix == [[2]]
    assert cartan_matrix(sl2, rc2, j).matrix == [[1]]
    with pytest.raises(ValueError):
        cartan_matrix(sl2, right_class_of(sl2, "1_i"), j)


def test_cartan_block_s2_matches_dual_numbers(s2):
    block = cartan_matrix(s2, right_class_of(s2, "F"), 0)
    assert block.matrix == [[2]]  # the Cartan matrix of Q[x]/(x^2)


def reference_cartan_block(cat, duflo, basis):
    """The Cartan block read pair by pair through ``compose_idx``."""
    matrix = [[cat.compose_idx(cat.star_map[h], f).get(duflo, 0) for f in basis] for h in basis]
    return basis, tuple(map(tuple, matrix))


def test_cartan_block_matches_compose_idx(sl2):
    from conftest import corpus

    def outcome(cat, rc, obj, duflo, basis):
        """``cartan_matrix`` and the reference, each as (basis, matrix) or
        the message of its NotComposableError."""
        try:
            block = cartan_matrix(cat, rc, obj)
            got = tuple(m.index for m in block.basis), tuple(map(tuple, block.matrix))
        except NotComposableError as e:
            got = str(e)
        try:
            want = reference_cartan_block(cat, duflo, basis)
        except NotComposableError as e:
            want = str(e)
        return got, want

    # stars that need not follow the members of a basis: the identity
    # map, and one that fixes the least member of each right class (its
    # one Duflo element) and sends every other morph to a seeded other one
    rng = random.Random(24)
    tables = corpus() + stored_tables()
    for name, cat in list(tables):
        doc = multicat_to_document(cat)
        if name in ("sl2", "cartan_mixed.json"):
            tables.append((name + ", star kept ends", load_multicat(dict(doc, star={}))))
        labels = [m.label for m in cat.morphs]
        least = {min(c) for c in cells(cat, "right").classes}
        star = {lab: lab if i in least else rng.choice(labels[:i] + labels[i + 1:])
                for i, lab in enumerate(labels)}
        tables.append((name + ", seeded star", load_multicat(dict(doc, star=star))))
    blocks = errors = later = 0
    for name, cat in tables:
        right = cells(cat, "right")
        for record in cell_analysis(cat).records.values():
            for rc, self_dual in record.self_dual.items():
                for obj in range(len(cat.objects)):
                    basis = tuple(sorted(i for i in right.classes[rc]
                                         if cat.morphs[i].tgt.index == obj))
                    if len(self_dual) != 1 or not basis:
                        assert (rc, obj) not in record.cartan, (name, rc, obj)
                        continue
                    got, want = outcome(cat, rc, obj, self_dual[0], basis)
                    assert got == want, (name, basis)
                    blocks += 1
                    if isinstance(want, str):
                        errors += 1
                        # raised for the first H whose star does not compose,
                        # with the first member of the basis; count the
                        # blocks where that H is not the first member
                        star_first = cat.morphs[cat.star_map[basis[0]]]
                        later += star_first.src.index == obj
    assert blocks > 100 and errors and later, (blocks, errors, later)


def test_cartan_diagonal_equals_m_diagonal(hecke3, hecke4, sl2):
    for cat in (sl2, hecke3, hecke4):
        ts = cells(cat, "two-sided")
        for q in range(len(ts.classes)):
            table = m_table(cat, q)
            diag = table.diagonal()
            for rc, blocks in cartan_blocks(cat, q).items():
                for block in blocks:
                    for pos, f in enumerate(block.basis):
                        assert block.matrix[pos][pos] == diag[f.index]


def test_cartan_symmetry_and_positive_diagonal(hecke4):
    ts = cells(hecke4, "two-sided")
    for q in range(len(ts.classes)):
        for rc, blocks in cartan_blocks(hecke4, q).items():
            for block in blocks:
                assert block.is_symmetric()
                assert all(block.matrix[i][i] >= 1 for i in range(len(block.basis)))


def blocks_equal_up_to_permutation(a: list[list[int]], b: list[list[int]]) -> bool:
    """Simultaneous row/column permutation equivalence of square matrices,
    by trying every permutation: the reference for criterion 6, which
    compares the blocks of two right cells through their bijection."""
    n = len(a)
    if len(b) != n:
        return False
    if sorted(sorted(row) for row in a) != sorted(sorted(row) for row in b):
        return False
    for sigma in permutations(range(n)):
        if all(a[i][j] == b[sigma[i]][sigma[j]] for i in range(n) for j in range(n)):
            return True
    return False


def test_blocks_equal_up_to_permutation_helper():
    a = [[2, 1], [1, 3]]
    b = [[3, 1], [1, 2]]
    c = [[2, 0], [0, 3]]
    assert blocks_equal_up_to_permutation(a, b)
    assert not blocks_equal_up_to_permutation(a, c)
    assert not blocks_equal_up_to_permutation(a, [[2]])


def test_cartan_blocks_agree_through_the_bijection_as_up_to_permutation(hecke4):
    # criterion 6 reads the bijection phi off the cells; where it holds,
    # the block of each right cell at an object is a permutation of the
    # first right cell's block there
    from test_acceptance import cartan_blocks_agree

    rng = random.Random(5)
    for cat in [hecke4] + [make_CA(random_cartan_data(rng, 3, 4, 4)) for _ in range(20)]:
        assert cartan_blocks_agree(cat)
        for q in range(len(cells(cat, "two-sided").classes)):
            (_, first), *others = sorted(cartan_blocks(cat, q).items())
            for _, blocks in others:
                for mine, theirs in zip(blocks, first):
                    assert mine.target_object == theirs.target_object
                    assert blocks_equal_up_to_permutation(mine.matrix, theirs.matrix)


def test_cell_subcategory_s2(s2):
    q = two_sided_class_of(s2, "F")
    sub, discards = cell_subcategory(s2, q)
    assert [m.label for m in sub.morphs] == ["1_i", "F"]
    assert discards == []
    assert sub.compose(sub.morph("F"), sub.morph("F")) == {sub.morph("F"): 2}


def test_cell_subcategory_sl2_keeps_five_morphs(sl2):
    q = two_sided_class_of(sl2, "theta")
    sub, discards = cell_subcategory(sl2, q)
    assert len(sub.morphs) == 5
    assert discards == []
    assert validate(sub).ok


def test_cell_subcategory_hecke3_middle(hecke3):
    q = two_sided_class_of(hecke3, "theta_213")
    sub, discards = cell_subcategory(hecke3, q)
    assert len(sub.morphs) == 5  # identity + the four-element cell
    # b_ts b_st = (v+v^-1)(b_w0 + b_t): the w0 part dies in the quotient
    ts_m, st_m = sub.morph("theta_312"), sub.morph("theta_231")
    out = sub.compose(ts_m, st_m)
    assert {m.label: c for m, c in out.items()} == {"theta_132": 2}
    assert ("theta_312", "theta_231", "theta_321", 2) in discards
    # the middle cell survives as one two-sided cell (with the identity below)
    part = cells(sub, "two-sided")
    assert len(part.classes) == 2


def test_cell_subcategory_refuses_non_strongly_regular():
    import json
    from fiatcells import serialize_multicat, make_s2

    doc = json.loads(serialize_multicat(make_s2()))
    doc["compose"] = [
        {"g": "F", "f": "F", "out": [{"m": "F", "mult": 1}, {"m": "1_i", "mult": 1}]}
    ]
    fib = load_multicat(doc)
    with pytest.raises(NotStronglyRegularError):
        cell_subcategory(fib, 0)


def test_cell_subcategory_refuses_a_class_that_star_moves():
    # star swaps A and B, which lie in two different one-element cells
    doc = {
        "objects": ["o"],
        "morphisms": [
            {"label": "1", "src": "o", "tgt": "o", "identity": True},
            {"label": "A", "src": "o", "tgt": "o"},
            {"label": "B", "src": "o", "tgt": "o"},
        ],
        "star": {"A": "B", "B": "A"},
        "compose": [
            {"g": "A", "f": "A", "out": [{"m": "A", "mult": 1}]},
            {"g": "B", "f": "B", "out": [{"m": "B", "mult": 1}]},
        ],
    }
    cat = load_multicat(doc)
    assert validate(cat).ok
    with pytest.raises(ValueError, match="star does not map the class to itself"):
        cell_subcategory(cat, two_sided_class_of(cat, "A"))


def test_lint_clean_on_builtins(s2, sl2, hecke3, hecke4):
    for cat in (s2, sl2, hecke3, hecke4, make_CA([[2, 1], [1, 2]])):
        report = fiat_lint(cat)
        assert report.ok, str(report)
        assert not report.fiat_certified_impossible
        assert {c.status for c in report.checks} <= {"pass", "not-applicable"}


def test_lint_names_failures_on_fixtures():
    cat = load_multicat(FIXTURES / "unequal_m.json")
    report = fiat_lint(cat)
    assert report.fiat_certified_impossible
    failed = {c.check for c in report.checks if c.status == "fail"}
    assert failed == {"m-inequality", "m-divisibility", "left-cell-constancy"}

    nonassoc = fiat_lint(load_multicat(FIXTURES / "nonassoc.json"))
    assert nonassoc.fiat_certified_impossible
    assert nonassoc.result("validity").status == "fail"
    assert any("associativity" in w for w in nonassoc.result("validity").witnesses)

    badstar = fiat_lint(load_multicat(FIXTURES / "badstar.json"))
    assert badstar.result("validity").status == "fail"
    assert any("star-anti-automorphism" in w for w in badstar.result("validity").witnesses)


def test_lint_reads_no_composite_after_the_analysis(monkeypatch, hecke3):
    # validity reads the cached report and every other check the cell
    # analysis, so a table validated and analysed is never composed again
    tables = stored_tables() + [("hecke3", hecke3), ("ca", make_CA([[2, 1], [1, 2]]))]
    want = {}
    for name, cat in tables:
        want[name] = str(fiat_lint(load_multicat(serialize_multicat(cat))))
        validate(cat)
        cell_analysis(cat)

    def compose_idx(self, g, f):
        raise AssertionError("fiat_lint composed a pair")

    monkeypatch.setattr(MultiCat, "compose_idx", compose_idx)
    for name, cat in tables:
        assert str(fiat_lint(cat)) == want[name], name
    assert any(fiat_lint(cat).result("self-dual-purity").status == "pass" for _, cat in tables)


def test_m_table_purity_error_when_star_escapes_cell():
    # star exchanging two incomparable singleton cells voids the predicted
    # target; m_table reports it as a purity diagnostic
    cat = load_multicat(FIXTURES / "star_swap.json")
    with pytest.raises(PurityError):
        m_table(cat, two_sided_class_of(cat, "A"))


def test_lint_star_cell_compat_failure():
    # star exchanges two generators that sit in incomparable cells (their
    # cross composites vanish), so F ~LR star(F) fails while validate passes
    cat = load_multicat(FIXTURES / "star_swap.json")
    assert validate(cat).ok
    report = fiat_lint(cat)
    assert report.result("star-cell-compatibility").status == "fail"


def call_public_analysis_backwards(cat):
    """Every public analysis function, last-computed invariants first."""
    n_two_sided = len(cells(cat, "two-sided").classes)
    n_right = len(cells(cat, "right").classes)
    calls = [(cartan_blocks, q) for q in reversed(range(n_two_sided))]
    calls += [(cartan_matrix, rc, o) for rc in reversed(range(n_right)) for o in range(len(cat.objects))]
    calls += [(check_left_cell_constancy, q) for q in reversed(range(n_two_sided))]
    calls += [(m_table, q) for q in reversed(range(n_two_sided))]
    calls += [(m_coeff, f, h) for f in reversed(cat.morphs) for h in cat.morphs]
    calls += [(duflo_element, rc) for rc in reversed(range(n_right))]
    calls += [(classify_two_sided, q) for q in reversed(range(n_two_sided))]
    for fn, *args in calls:
        try:
            fn(cat, *args)
        except (ValueError, IndexError):
            pass  # hypotheses unmet on this table: the answer is the error


def test_analysis_does_not_depend_on_call_order(hecke3):
    rng = random.Random(4)
    tables = stored_tables() + [("hecke3", hecke3)]
    tables += [(f"ca{i}", make_CA(random_cartan_data(rng))) for i in range(6)]
    for name, cat in tables:
        text = serialize_multicat(cat)
        fresh = load_multicat(text)
        want = (json.dumps(report_analyze(fresh)), str(fiat_lint(load_multicat(text))))
        warmed = load_multicat(text)
        call_public_analysis_backwards(warmed)
        got = (json.dumps(report_analyze(warmed)), str(fiat_lint(warmed)))
        assert got == want, name
