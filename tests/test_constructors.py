import json
import os
import pathlib
import subprocess
import sys

import pytest

from fiatcells import (
    CartanData,
    are_isomorphic,
    cell_subcategory,
    cells,
    classify_two_sided,
    fiat_lint,
    find_isomorphism,
    m_coeff,
    make_CA,
    make_hecke,
    make_s2,
    make_sl2_singular,
    multicat_from_document,
    multicat_to_document,
    parse_multicat,
    random_cartan_data,
    rs_cell_check,
    serialize_multicat,
    validate,
)

from conftest import ALGEBRA_FIXTURES, GOLDEN, corpus, realized


def test_all_constructor_outputs_validate_and_lint():
    for name, cat in corpus():
        assert validate(cat).ok, name
        report = fiat_lint(cat)
        assert report.ok, (name, str(report))


def test_cartan_data_validation():
    with pytest.raises(ValueError, match="asymmetric"):
        CartanData([[[1, 2], [0, 1]]])
    with pytest.raises(ValueError, match="diagonal"):
        CartanData([[[0]]])
    with pytest.raises(ValueError, match="disconnected"):
        CartanData([[[1, 0], [0, 1]]])
    with pytest.raises(ValueError, match="square"):
        CartanData([[[1, 1]]])
    with pytest.raises(ValueError, match="negative"):
        CartanData([[[1, -1], [-1, 1]]])


@pytest.mark.parametrize("entry", [2.7, "2", True])
def test_cartan_data_rejects_non_integer_entries(entry):
    with pytest.raises(TypeError, match=r"component 0: entry \[0\]\[1\] must be an integer"):
        CartanData([[[2, entry], [1, 2]]])
    with pytest.raises(TypeError, match=r"component 0: entry \[0\]\[0\]"):
        make_CA([[entry]])


def test_cartan_data_takes_numpy_integers():
    import numpy as np

    data = CartanData([np.array([[2, 1], [1, 2]], dtype=np.int64)])
    assert data.components == (((2, 1), (1, 2)),)
    assert all(type(x) is int for row in data.components[0] for x in row)
    assert make_CA(data) == make_CA([[2, 1], [1, 2]])


def test_make_ca_merges_one_dimensional_components():
    cat = make_CA([[1]], [[2]])
    assert len(cat.morphs) == 5
    identities = [m.label for m in cat.morphs if m.is_identity]
    assert identities == ["1_t2", "1_t1"]  # t1 merged into its projective


def test_make_ca_isomorphisms():
    iso = find_isomorphism(make_CA([[1]], [[2]]), make_sl2_singular())
    assert iso is not None
    as_labels = {k.label: v.label for k, v in iso.items()}
    assert as_labels["P[v1,v1]"] == "theta"
    assert are_isomorphic(make_CA([[2]]), make_s2())
    assert not are_isomorphic(make_CA([[2]]), make_sl2_singular())


def test_stored_unit_law_entries_do_not_change_isomorphism():
    cat = make_sl2_singular()
    doc = multicat_to_document(cat)
    for g in cat.morphs:
        for f in cat.morphs:
            if cat.composable(g.index, f.index) and (g.is_identity or f.is_identity):
                out = cat.compose(g, f)
                doc["compose"].append({"g": g.label, "f": f.label,
                                       "out": [{"m": k.label, "mult": c} for k, c in out.items()]})
    stored = multicat_from_document(doc)
    assert validate(stored).ok and stored == cat and len(stored.table) > len(cat.table)
    assert are_isomorphic(stored, cat) and are_isomorphic(cat, stored)


def test_make_ca_cell_structure():
    cat = make_CA([[1, 1], [1, 2]], [[3]])
    ts = cells(cat, "two-sided")
    # no component here is the 1x1 matrix [1], so no identity is merged:
    # both identities sit in singleton cells below the cell of all projectives
    projectives = {m.index for m in cat.morphs if not m.is_identity}
    by_len = sorted(ts.classes, key=len)
    assert len(by_len[-1]) == 9
    maximal = by_len[-1]
    assert maximal == frozenset(projectives)
    verdict = classify_two_sided(cat, ts.classes.index(maximal))
    assert verdict.strongly_regular

    right = cells(cat, "right")
    left = cells(cat, "left")
    for m in cat.morphs:
        if m.index not in maximal:
            continue
        # right cells fix the right vertex index, left cells the left index
        _, fe = m.label.split("[") if "[" in m.label else (None, None)
        for other in cat.morphs:
            if other.index in maximal and "[" in m.label and "[" in other.label:
                f1, e1 = m.label[2:-1].split(",")
                f2, e2 = other.label[2:-1].split(",")
                same_right = right.class_of[m.index] == right.class_of[other.index]
                same_left = left.class_of[m.index] == left.class_of[other.index]
                assert same_right == (e1 == e2)
                assert same_left == (f1 == f2)


def test_make_ca_m_values_are_left_index_pairings():
    # the coefficient of a projective against itself is the self-pairing of
    # its left (target-side) vertex; forced by the sl2 table and by the
    # constancy of the diagonal on left cells.  The target is the Duflo
    # element of its right cell, the square at the right vertex.
    data = CartanData([[[2, 1], [1, 3]]])
    cat = make_CA(data)
    for m in cat.morphs:
        if m.is_identity:
            continue
        f, e = m.label[2:-1].split(",")
        fi = int(f[1:])
        target, value = m_coeff(cat, m, m)
        assert value == data.components[0][fi][fi]
        assert target.label == f"P[{e},{e}]"


def test_make_hecke_guard():
    with pytest.raises(ValueError):
        make_hecke(1)
    with pytest.raises(ValueError):
        make_hecke(6)
    make_hecke(4, max_n=4)


# mu(s2, s1 s2) = 1 enters b_s2 b_{s1 s2} = b_{s2 s1 s2} + b_s2; setting it
# to -1 makes that product negative, which only an arithmetic bug could do
_MU_PAIR = ((1, 3, 2), (2, 3, 1))


def _package_env() -> dict:
    import fiatcells

    return dict(os.environ, PYTHONPATH=str(pathlib.Path(fiatcells.__file__).parents[1]))


def test_make_hecke_raises_on_a_negative_constant(monkeypatch):
    from fiatcells import constructors, klbasis

    klbasis.kl_structure_constants_at_one(3)  # the KL memo keeps true values
    true_column = klbasis._column
    z, y = _MU_PAIR

    def column(w):  # mu(z, y) read from the column of y
        col, mu = true_column(w)
        return (col, {**mu, z: -1}) if w == y else (col, mu)

    monkeypatch.setattr(klbasis, "_column", column)
    monkeypatch.setattr(constructors, "_hecke_cache", {})
    with pytest.raises(ArithmeticError, match="negative structure constant"):
        make_hecke(3)


def test_make_hecke_raises_on_a_negative_constant_under_python_O():
    code = (
        "from fiatcells import klbasis, make_hecke\n"
        f"z, y = {_MU_PAIR!r}\n"
        "klbasis.kl_structure_constants_at_one(3)\n"
        "true_column = klbasis._column\n"
        "def column(w):\n"
        "    col, mu = true_column(w)\n"
        "    return (col, {**mu, z: -1}) if w == y else (col, mu)\n"
        "klbasis._column = column\n"
        "try:\n"
        "    make_hecke(3)\n"
        "except ArithmeticError as e:\n"
        "    print('ArithmeticError:', e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ArithmeticError: negative structure constant"), proc.stdout


def test_make_hecke_leaves_numpy_unloaded():
    # nor do the cells of a table never validated (rs_cell_check's path)
    code = (
        "import sys\n"
        "from fiatcells import cells, make_hecke\n"
        "cat = make_hecke(4)\n"
        "for kind in ('left', 'right', 'two-sided'): cells(cat, kind)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_make_hecke2_is_s2():
    assert are_isomorphic(make_hecke(2), make_s2())


def test_make_hecke3_table_entries(hecke3):
    # b_t b_st = b_tst + b_t with t = s2, st = s1 after s2
    t = hecke3.morph("theta_132")
    st = hecke3.morph("theta_231")
    out = {m.label: c for m, c in hecke3.compose(t, st).items()}
    assert out == {"theta_321": 1, "theta_132": 1}
    s = hecke3.morph("theta_213")
    out = {m.label: c for m, c in hecke3.compose(s, s).items()}
    assert out == {"theta_213": 2}


def test_make_hecke_star_is_inverse(hecke3, hecke4):
    for cat in (hecke3, hecke4):
        for m in cat.morphs:
            w = tuple(int(c) for c in m.label.split("_")[1])
            inv = cat.star(m)
            w_inv = tuple(int(c) for c in inv.label.split("_")[1])
            perm = {i + 1: v for i, v in enumerate(w)}
            assert all(perm[w_inv[i]] == i + 1 for i in range(len(w)))


def test_hecke_two_sided_cells_are_shapes(hecke4):
    from fiatcells import Permutation, robinson_schensted

    ts = cells(hecke4, "two-sided")
    shapes = {}
    for m in hecke4.morphs:
        w = Permutation(tuple(int(c) for c in m.label.split("_")[1]))
        shapes.setdefault(robinson_schensted(w).shape, set()).add(m.index)
    assert {frozenset(v) for v in shapes.values()} == {frozenset(c) for c in ts.classes}


def test_rs_cell_check_matches_golden():
    convention = json.loads((GOLDEN / "rs_convention.json").read_text())
    for n in (2, 3, 4):
        report = rs_cell_check(n)
        assert report.consistent
        assert (convention["right_cells"], convention["left_cells"]) in report.assignments
        assert report.n_right_cells == report.n_standard_tableaux


def test_random_cartan_data_is_reproducible():
    import random

    a = random_cartan_data(random.Random(7))
    b = random_cartan_data(random.Random(7))
    assert a == b


def _generated_tables():
    for name, cat in corpus():
        yield name, cat
        for q in range(len(cells(cat, "two-sided").classes)):
            if classify_two_sided(cat, q).strongly_regular:
                yield f"{name} cell {q}", cell_subcategory(cat, q)[0]
    for fixture in ALGEBRA_FIXTURES:
        yield f"realize_CA {fixture}", realized(fixture)


def test_generated_tables_store_only_positive_multiplicities():
    # the generator edges of the cell preorders rest on it: a summand of
    # H∘F stays a summand of a product of generators applied to F
    tables = list(_generated_tables()) + [("hecke5", make_hecke(5))]
    for name, cat in tables:
        for out in cat.table.values():
            assert all(type(c) is int and c > 0 for c in out.values()), name


def test_rs_cell_check_raises_when_no_tableau_classifies_the_cells(monkeypatch):
    # every permutation given the tableaux of the identity: one class
    # each, which matches no cell partition of S3
    from fiatcells import Permutation, constructors, robinson_schensted

    pair = robinson_schensted(Permutation((1, 2, 3)))
    monkeypatch.setattr(constructors, "robinson_schensted", lambda w: pair)
    with pytest.raises(RuntimeError, match="no consistent tableau assignment"):
        rs_cell_check(3)


def test_generated_tables_equal_their_parsed_serialization():
    # fields, not text: the serializer leaves out unit-law entries, so a
    # text round trip would not see a constructor that stores one
    for name, cat in _generated_tables():
        back = parse_multicat(serialize_multicat(cat))
        assert back.objects == cat.objects, name
        assert back.morphs == cat.morphs, name
        assert back.star_map == cat.star_map, name
        assert dict(back.table) == dict(cat.table), name
