import dataclasses
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcells import (
    DecompositionError,
    TableFormatError,
    cartan_of,
    decompose_against,
    dual_numbers,
    hom_space,
    identity_bimodule,
    load_algebras,
    make_CA,
    make_s2,
    make_sl2_singular,
    projective_bimodule,
    rationals,
    realize_CA,
    tensor_over,
    verify_dual_numbers_quiver,
)
from fiatcells.bimodule import (
    Algebra,
    DimensionCapError,
    _parse_coeff,
    algebra_from_document,
    corner_dim,
    direct_sum,
    end_is_local,
    hom_dim,
)
from fiatcells.linalg import mat_mul

from conftest import FIXTURES, realized


@pytest.fixture(scope="module")
def D():
    d = dual_numbers()
    d.check()
    return d


@pytest.fixture(scope="module")
def Q():
    q = rationals()
    q.check()
    return q


@pytest.fixture(scope="module")
def F(D):
    f = projective_bimodule(D, 0, D, 0)
    f.check()
    return f


@pytest.mark.parametrize(
    "break_actions, message",
    [
        (lambda left: left[0].__setitem__(0, ((0, Fraction(2)),)), "left action not unital"),
        (lambda left: left.__setitem__(1, left[0]), "left action not multiplicative"),
        (lambda left: left[1].__setitem__(0, ()), "do not commute"),
    ],
    ids=["unital", "multiplicative", "commuting"],
)
def test_bimodule_check_rejects_broken_actions(D, break_actions, message):
    f = projective_bimodule(D, 0, D, 0)
    left = [list(cols) for cols in f.left_action]
    break_actions(left)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(f, left_action=left).check()


def test_algebra_validation_catches_bad_idempotent(D):
    import copy

    broken = copy.deepcopy(D)
    broken.idempotents = [[Fraction(0), Fraction(1)]]  # x is not idempotent
    with pytest.raises(ValueError, match="not idempotent"):
        broken.check()


def test_identity_bimodule_is_unit_for_tensor(D):
    idd = identity_bimodule(D)
    f = projective_bimodule(D, 0, D, 0)
    left = tensor_over(idd, f)
    right = tensor_over(f, idd)
    assert left.dim == f.dim == right.dim == 4
    assert decompose_against(left, [f]) == {0: 1}
    assert decompose_against(right, [f]) == {0: 1}


def test_tensor_dimensions(D, Q, F):
    t = tensor_over(F, F)
    assert t.dim == 8
    t.check()
    # cross-component: balancing over the one-dimensional algebra is plain
    # tensor, so dimensions multiply
    de = projective_bimodule(D, 0, Q, 0)
    ed = projective_bimodule(Q, 0, D, 0)
    x = tensor_over(de, ed)
    assert x.dim == 4
    assert de.dim == ed.dim == 2


def test_tensor_cap(F):
    with pytest.raises(DimensionCapError):
        tensor_over(F, F, max_dim=8 - 1)


def test_tensor_associative_up_to_isomorphism(D, Q, F):
    left = tensor_over(tensor_over(F, F), F)
    right = tensor_over(F, tensor_over(F, F))
    assert left.dim == right.dim == 16
    # invertible intertwiner between the two bracketings, checked on the
    # cross-component product where the hom system stays small
    de = projective_bimodule(D, 0, Q, 0)
    ed = projective_bimodule(Q, 0, D, 0)
    a = tensor_over(tensor_over(de, ed), de)
    b = tensor_over(de, tensor_over(ed, de))
    assert a.dim == b.dim == 4
    maps = hom_space(a, b)
    from fiatcells.linalg import rank

    found = any(rank([list(r) for r in m.matrix]) == a.dim for m in maps)
    if not found and maps:
        mixed = [
            [
                sum(((k + 1) * m.matrix[r][c] for k, m in enumerate(maps)), Fraction(0))
                for c in range(a.dim)
            ]
            for r in range(b.dim)
        ]
        found = rank(mixed) == a.dim
    assert found


def test_hom_dimensions_quadruple(D, F):
    idd = identity_bimodule(D)
    assert hom_dim(F, F) == 4
    assert hom_dim(F, idd) == 2
    assert hom_dim(idd, F) == 2
    assert hom_dim(idd, idd) == 2


def test_hom_space_contents(D, F):
    idd = identity_bimodule(D)
    # basis of Hom(1, F) consists of maps sending 1 into the centralizer:
    # span{1⊗x + x⊗1, x⊗x}
    maps = hom_space(idd, F)
    images = {tuple(m.matrix[r][0] for r in range(4)) for m in maps}
    span = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            span.add((Fraction(0), Fraction(a), Fraction(a), Fraction(b)))
    assert images <= span


def test_end_local(D, Q, F):
    assert end_is_local(F)
    assert end_is_local(identity_bimodule(D))
    assert end_is_local(identity_bimodule(Q))
    double = tensor_over(F, F)
    assert not end_is_local(double)  # F ⊕ F has a 2x2 matrix quotient


def test_decompose_examples(D, F):
    idd = identity_bimodule(D)
    t = tensor_over(F, F)
    assert decompose_against(t, [F, idd]) == {0: 2, 1: 0}
    assert decompose_against(idd, [idd]) == {0: 1}
    with pytest.raises(DecompositionError, match="incomplete"):
        decompose_against(t, [idd])


def test_decompose_mixed_direct_sum(D, F):
    # constructed dim-6 module with one copy of each candidate
    from fiatcells.bimodule import direct_sum

    idd = identity_bimodule(D)
    mixed = direct_sum(F, idd)
    mixed.check()
    assert mixed.dim == 6
    assert decompose_against(mixed, [F, idd]) == {0: 1, 1: 1}


def _unnamed_truncated_polynomial(k):
    """Q[x]/(x^k) from a document with no name: every such algebra is "A"."""
    basis = [f"x{i}" for i in range(k)]
    mult = [{"a": basis[i], "b": basis[j], "out": {basis[i + j]: 1}}
            for i in range(k) for j in range(k - i)]
    return algebra_from_document({"basis": basis, "unit": "x0", "mult": mult,
                                  "idempotents": ["x0"]})


def test_bimodules_over_different_algebras_sharing_a_name_do_not_mix():
    a2, a3 = _unnamed_truncated_polynomial(2), _unnamed_truncated_polynomial(3)
    assert a2.name == a3.name == "A"
    m2, m3 = identity_bimodule(a2), identity_bimodule(a3)
    for m, n in ((m2, m3), (m3, m2)):
        for op in (hom_space, hom_dim):
            with pytest.raises(ValueError, match="^hom between bimodules over different algebra pairs$"):
                op(m, n)
        with pytest.raises(ValueError, match="^direct sum of bimodules over different algebra pairs$"):
            direct_sum(m, n)
        with pytest.raises(ValueError, match="^tensor over mismatched middle algebras A vs A$"):
            tensor_over(m, n)
    # an equal algebra built apart is the same algebra
    again = identity_bimodule(_unnamed_truncated_polynomial(2))
    assert hom_dim(m2, again) == len(hom_space(again, m2)) == 2
    assert tensor_over(m2, again).dim == direct_sum(m2, again).dim // 2 == 2


def test_tensor_with_unit_bimodule_is_identity(D):
    idd = identity_bimodule(D)
    square = tensor_over(idd, idd)
    assert square.dim == 2
    assert decompose_against(square, [idd]) == {0: 1}


def test_decompose_rejects_nonlocal_candidate(D, F):
    t = tensor_over(F, F)
    with pytest.raises(DecompositionError, match="local"):
        decompose_against(F, [t])


def test_corner_dims_give_cartan(D, Q):
    assert corner_dim(identity_bimodule(D), D.idempotents[0], D.idempotents[0]) == 2
    assert cartan_of([Q, D]).components == (((1,),), ((2,),))


def test_adjunction_dimension_identity(D, Q):
    # dim Hom(Af⊗eA, M) = dim f·M·e on a spread of modules M
    candidates = {
        "idd": identity_bimodule(D),
        "F": projective_bimodule(D, 0, D, 0),
    }
    p = projective_bimodule(D, 0, D, 0)
    for name, m in candidates.items():
        assert hom_dim(p, m) == corner_dim(m, D.idempotents[0], D.idempotents[0]), name
    # and across components with A = Q ⊕ D
    de = projective_bimodule(D, 0, Q, 0)
    assert hom_dim(de, de) == corner_dim(de, D.idempotents[0], Q.idempotents[0])


def test_verify_dual_numbers_quiver():
    report = verify_dual_numbers_quiver()
    assert report.ok
    assert report.checks["gamma² = -(beta∘alpha)²"]
    assert report.checks["(alpha∘beta)² = 0"]
    assert report.checks["alpha∘beta != 0"]
    assert report.hom_dims == (4, 2, 2, 2)


def test_realize_ca_equals_formula_path(D, Q):
    assert realize_CA([Q, D]) == make_CA(cartan_of([Q, D]))
    assert realize_CA([Q, D]) == make_CA([[1]], [[2]])
    assert realize_CA([D]) == make_CA([[2]])
    assert realize_CA([Q]) == make_CA([[1]])
    from fiatcells import are_isomorphic

    assert are_isomorphic(realize_CA([Q, D]), make_sl2_singular())
    assert are_isomorphic(realize_CA([D]), make_s2())


def test_realize_ca_rejects_non_weakly_symmetric():
    # path algebra of the A2 quiver: dim e1Ae2 = 1 but e2Ae1 = 0
    f = Fraction
    e1 = [f(1), f(0), f(0)]
    e2 = [f(0), f(1), f(0)]
    arrow = [f(0), f(0), f(1)]
    zero = [f(0), f(0), f(0)]
    mult = [
        [e1, zero, zero],
        [zero, e2, arrow],
        [arrow, zero, zero],
    ]
    a2 = Algebra("A2path", ["e1", "e2", "a"], mult, [f(1), f(1), f(0)], [e1, e2])
    a2.check()
    with pytest.raises(ValueError, match="weakly symmetric"):
        realize_CA([a2])


def test_load_algebras_fixture():
    algebras = load_algebras(FIXTURES / "algebras_qd.json")
    assert [a.name for a in algebras] == ["Q", "D"]
    assert realize_CA(algebras) == make_CA([[1]], [[2]])


def test_load_algebras_reads_json_text_like_load_multicat():
    text = (FIXTURES / "algebras_qd.json").read_text(encoding="utf-8")
    assert [a.name for a in load_algebras("\n " + text)] == ["Q", "D"]
    # an array is JSON text too, not a path
    with pytest.raises(TableFormatError, match="document root must be a JSON object"):
        load_algebras("[]")
    with pytest.raises(TableFormatError, match="parse error at line 1"):
        load_algebras("{")


def test_coefficients_are_integers_or_fractions():
    assert _parse_coeff("-3/4", "c") == Fraction(-3, 4)
    assert _parse_coeff("7", "c") == _parse_coeff(7, "c") == Fraction(7)
    assert _parse_coeff("+2/6", "c") == Fraction(1, 3)
    doc = json.loads((FIXTURES / "algebras_qd.json").read_text(encoding="utf-8"))
    # Fraction reads all of these, and 1e10000000 as a 33-million-bit integer
    for bad in ("1e10000000", "1e3", "1.5", "1_000", " 7", "3/-4", "--3", "1/0", "", True, 1.0):
        doc["algebras"][1]["mult"][0]["out"]["1"] = bad
        start = time.perf_counter()
        with pytest.raises(TableFormatError) as raised:
            load_algebras(json.dumps(doc))
        assert time.perf_counter() - start < 1, bad
        assert str(raised.value) == (f"algebras[1].mult[0].out['1']: bad coefficient {bad!r}; "
                                     "use integers or 'p/q' strings")


# ---------------------------------------------------------------------------
# larger algebras, and hom by generator against the intertwining kernel

LARGER_ALGEBRAS = {
    "algebra_x3.json": (((3,),),),
    "algebra_x4.json": (((4,),),),
    "algebra_x5.json": (((5,),),),
    "algebra_zigzag2.json": (((2, 1), (1, 2)),),
    "algebra_zigzag3.json": (((2, 1, 0), (1, 2, 1), (0, 1, 2)),),
}


@pytest.mark.parametrize("fixture, cartan", LARGER_ALGEBRAS.items())
def test_realize_ca_on_larger_algebras(fixture, cartan):
    algebras = load_algebras(FIXTURES / fixture)
    assert cartan_of(algebras).components == cartan
    assert realized(fixture) == make_CA(cartan_of(algebras))


def _dense(columns):
    """The square matrix whose column c holds the (row, value) pairs columns[c]."""
    mat = [[Fraction(0)] * len(columns) for _ in columns]
    for c, col in enumerate(columns):
        for r, x in col:
            mat[r][c] = x
    return mat


def _intertwines(bm) -> bool:
    x = [list(r) for r in bm.matrix]
    return all(
        mat_mul(x, _dense(am)) == mat_mul(_dense(an), x)
        for am, an in zip(bm.source.left_action + bm.source.right_action,
                          bm.target.left_action + bm.target.right_action)
    )


def _in_column_form(m) -> bool:
    """Every action column lists non-zero Fraction entries by ascending row."""
    return all(
        len(cols) == m.dim
        and all(
            [r for r, _ in col] == sorted({r for r, _ in col})
            and all(0 <= r < m.dim and type(x) is Fraction and x for r, x in col)
            for col in cols
        )
        for cols in m.left_action + m.right_action
    )


def _hom_by_kernel(m, n):
    """The reference: the kernel of the full intertwining system."""
    return hom_space(dataclasses.replace(m, generator=None), n)


def _generator_case(name):
    """Projective and identity sources; targets adding some tensor products."""
    d = dual_numbers()
    if name == "quiver":  # F = D⊗D, the identity D, and F⊗F
        f = projective_bimodule(d, 0, d, 0, name="D⊗D")
        return [f, identity_bimodule(d)], [f, identity_bimodule(d), tensor_over(f, f)]
    a = d if name == "D" else load_algebras(FIXTURES / name)[0]
    k = len(a.idempotents)
    proj = [projective_bimodule(a, f, a, e) for f in range(k) for e in range(k)]
    sources = proj + [identity_bimodule(a)]
    return sources, sources + [tensor_over(p, q) for p in proj[:2] for q in proj[-2:]]


@pytest.mark.parametrize("name", ["D", "algebra_x3.json", "algebra_zigzag2.json", "quiver"])
def test_hom_by_generator_matches_intertwining_kernel(name):
    sources, targets = _generator_case(name)
    for m in sources:
        assert m.generator is not None
        for n in targets:
            fast, slow = hom_space(m, n), _hom_by_kernel(m, n)
            # the same basis, hence the same dimension and the same span
            assert [b.matrix for b in fast] == [b.matrix for b in slow], (m.name, n.name)
            assert hom_dim(m, n) == len(slow)
            assert all(b.source is m and b.target is n for b in fast)
            assert all(_intertwines(b) for b in fast), (m.name, n.name)
    assert all(_in_column_form(m) for m in targets)


def test_hom_from_projective_is_corner():
    z2 = load_algebras(FIXTURES / "algebra_zigzag2.json")[0]
    idem = z2.idempotents
    proj = {(f, e): projective_bimodule(z2, f, z2, e) for f in range(2) for e in range(2)}
    targets = list(proj.values()) + [identity_bimodule(z2), tensor_over(proj[0, 1], proj[1, 0])]
    for (f, e), p in proj.items():
        for n in targets:
            assert hom_dim(p, n) == corner_dim(n, idem[f], idem[e])


def test_generator_takes_no_part_in_equality(D):
    f = projective_bimodule(D, 0, D, 0)
    plain = dataclasses.replace(f, generator=None)
    assert plain == f
    assert repr(plain) == repr(f)
    assert "generator" not in repr(f)


# ---------------------------------------------------------------------------
# the oracle on algebras with rational structure constants


def _truncated_polynomial(k):
    """Q[x]/(x^k) on the basis x^0 = 1, ..., x^(k-1): labels, products, idempotents.

    ``products`` maps (i, j) to k when b_i·b_j = b_k; other products are 0.
    """
    labels = [f"x{i}" for i in range(k)]
    return labels, {(i, j): i + j for i in range(k) for j in range(k - i)}, [0]


def _zigzag(n):
    """The zigzag algebra of a path on n vertices (Huerfano–Khovanov).

    Basis: the paths e_v, the arrows v→w between neighbours and one loop
    c_v per vertex, each as (source, target, length); x·y is x after y,
    every path v→w→v equals c_v, and every other path of length ≥ 2 is 0.
    """
    paths = ([(v, v, 0) for v in range(n)]
             + [(v, w, 1) for v in range(n) for w in (v - 1, v + 1) if 0 <= w < n]
             + [(v, v, 2) for v in range(n)])
    index = {p: i for i, p in enumerate(paths)}
    products = {
        (i, j): index[(s2, t1, l1 + l2)]
        for i, (s1, t1, l1) in enumerate(paths)
        for j, (s2, t2, l2) in enumerate(paths)
        if s1 == t2 and (s2, t1, l1 + l2) in index
    }
    labels = [f"p{s}{t}_{length}" for s, t, length in paths]
    return labels, products, list(range(n))


_RATIONAL_CASES = {
    **{f"x^{k}": (_truncated_polynomial(k), ((k,),)) for k in range(2, 6)},
    "zigzag2": (_zigzag(2), ((2, 1), (1, 2))),
    "zigzag3": (_zigzag(3), ((2, 1, 0), (1, 2, 1), (0, 1, 2))),
}


def _rescaled(name, labels, products, idempotents, order, scale):
    """The algebra on the basis scale[i]·b_i, listed in the order ``order``."""
    dim = len(labels)
    pos = {i: p for p, i in enumerate(order)}
    mult = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), k in products.items():
        mult[pos[i]][pos[j]][pos[k]] = scale[i] * scale[j] / scale[k]
    idem = [[Fraction(int(pos[i] == p)) for p in range(dim)] for i in idempotents]
    unit = [sum(col, Fraction(0)) for col in zip(*idem)]
    return Algebra(name, [labels[i] for i in order], mult, unit, idem)


_nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_realize_ca_with_rational_structure_constants(data):
    name = data.draw(st.sampled_from(sorted(_RATIONAL_CASES)))
    (labels, products, idempotents), cartan = _RATIONAL_CASES[name]
    order = data.draw(st.permutations(range(len(labels))))
    scale = [Fraction(1) if i in idempotents else data.draw(_nonzero) for i in range(len(labels))]
    alg = _rescaled(name, labels, products, idempotents, order, scale)
    assert cartan_of([alg]).components == (cartan,)
    assert realize_CA([alg]) == make_CA(cartan_of([alg]))
    p = projective_bimodule(alg, 0, alg, len(idempotents) - 1)
    assert all(_in_column_form(m) for m in (identity_bimodule(alg), p, tensor_over(p, p)))
