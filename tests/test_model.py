import gc
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiatcells import (
    NotComposableError,
    TableFormatError,
    fiat_lint,
    load_multicat,
    make_CA,
    make_s2,
    make_sl2_singular,
    multicat_from_document,
    multicat_to_document,
    parse_multicat,
    random_cartan_data,
    report_analyze,
    serialize_multicat,
    validate,
)

from conftest import FIXTURES, GOLDEN, stored_tables, three_morph_doc


def s2_doc():
    return json.loads(serialize_multicat(make_s2()))


def test_load_s2_roundtrip():
    text = serialize_multicat(make_s2())
    cat = load_multicat(text)
    assert len(cat.morphs) == 2
    assert serialize_multicat(cat) == text


def test_golden_documents_roundtrip_bit_exactly():
    for name in ("s2.json", "sl2.json"):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert serialize_multicat(load_multicat(text)) == text


def test_compose_stored_and_unit():
    cat = make_s2()
    one, f = cat.morph("1_i"), cat.morph("F")
    assert cat.compose(f, f) == {f: 2}
    assert cat.compose(one, f) == {f: 1}
    assert cat.compose(f, one) == {f: 1}


def test_compose_unit_ignores_stored_garbage():
    doc = s2_doc()
    doc["compose"].append({"g": "1_i", "f": "F", "out": [{"m": "F", "mult": 2}]})
    cat = load_multicat(doc)
    # unit law resolves without a table lookup; validate flags the entry
    assert cat.compose(cat.morph("1_i"), cat.morph("F")) == {cat.morph("F"): 1}
    report = validate(cat)
    assert "unit-law" in report.laws()


def test_compose_not_composable():
    cat = make_sl2_singular()
    with pytest.raises(NotComposableError):
        cat.compose(cat.morph("theta_on"), cat.morph("theta_on"))


def test_zero_composite_is_legal():
    doc = s2_doc()
    doc["morphisms"].append({"label": "G", "src": "i", "tgt": "i"})
    doc["star"]["G"] = "G"
    # G composes to zero with everything; F∘F stays 2F
    cat = load_multicat(doc)
    g = cat.morph("G")
    assert cat.compose(g, g) == {}
    assert validate(cat).ok


def test_load_errors():
    with pytest.raises(TableFormatError, match="no objects"):
        load_multicat({"objects": [], "morphisms": [], "star": {}, "compose": []})
    doc = s2_doc()
    doc["compose"][0]["g"] = "G"
    with pytest.raises(TableFormatError, match="dangling"):
        load_multicat(doc)
    doc = s2_doc()
    doc["morphisms"].append({"label": "1_bis", "src": "i", "tgt": "i", "identity": True})
    with pytest.raises(TableFormatError, match="duplicate identity"):
        load_multicat(doc)
    doc = s2_doc()
    doc["morphisms"][0] = {"label": "1_i", "src": "i", "tgt": "i"}
    with pytest.raises(TableFormatError, match="no identity"):
        load_multicat(doc)
    with pytest.raises(TableFormatError, match="parse error"):
        load_multicat("{not json")
    for text in ("[1]", "  [1]\n"):
        with pytest.raises(TableFormatError, match="document root must be a JSON object"):
            load_multicat(text)
    with pytest.raises(TableFormatError, match="document root must be a JSON object"):
        parse_multicat("1")


def test_summand_without_m_is_a_missing_field():
    # with a morph labelled "" or without one, a summand with no "m" never
    # resolves: it is a missing field, not a reference to ""
    for extra in ([], [{"label": "", "src": "i", "tgt": "i"}]):
        doc = s2_doc()
        doc["morphisms"] += extra
        doc["compose"][0]["out"] = [{"mult": 2}]
        with pytest.raises(TableFormatError) as raised:
            multicat_from_document(doc)
        assert str(raised.value) == "compose[0].out[0]: missing field 'm'", extra
    doc["compose"][0]["out"] = [{"m": "", "mult": 2}]
    assert multicat_from_document(doc).compose_idx(1, 1) == {2: 2}
    doc["compose"][0]["out"] = [{"m": None}]
    with pytest.raises(TableFormatError,
                       match=r"^compose\[0\]\.out\[0\]\.m must be a JSON string, got null$"):
        multicat_from_document(doc)


def test_deeply_nested_json_is_a_format_error():
    with pytest.raises(TableFormatError, match="^parse error: nested too deeply$"):
        parse_multicat("[" * 100_000 + "]" * 100_000)


# the longest integer literal the interpreter converts, 0 when unlimited
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this interpreter converts integers of any length")
def test_overlong_integer_is_a_format_error(tmp_path):
    from fiatcells import load_algebras

    digits = "1" * (_INT_DIGITS + 1)
    text = serialize_multicat(make_s2()).replace('"mult": 2', f'"mult": {digits}')
    assert text.count(digits) == 1
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    algebras = (FIXTURES / "algebras_qd.json").read_text(encoding="utf-8")
    for call in (parse_multicat, load_multicat, lambda t: load_multicat(str(path)),
                 lambda t: load_multicat(io.StringIO(t)),
                 lambda t: load_algebras(algebras.replace('"1": 1', f'"1": {digits}', 1))):
        with pytest.raises(TableFormatError, match="^parse error: ") as raised:
            call(text)
        assert "set_int_max_str_digits" not in str(raised.value)


def _loader_calls(tmp_path):
    """(name, call) for each public loader on each source kind, each call
    returning a table, raising TableFormatError, or failing to parse."""
    good = serialize_multicat(make_s2())
    bad = s2_doc()
    bad["compose"][0]["g"] = "G"
    path = tmp_path / "s2.json"
    path.write_text(good, encoding="utf-8")
    return [
        ("document", lambda: load_multicat(s2_doc())),
        ("text", lambda: load_multicat(good)),
        ("path", lambda: load_multicat(path)),
        ("file", lambda: load_multicat(io.StringIO(good))),
        ("parse", lambda: parse_multicat(good)),
        ("resolve", lambda: multicat_from_document(s2_doc())),
        ("dangling", lambda: load_multicat(bad)),
        ("resolve-dangling", lambda: multicat_from_document(bad)),
        ("not-an-object", lambda: parse_multicat("1")),
        ("json-error", lambda: load_multicat("{not json")),
        ("parse-json-error", lambda: parse_multicat("{not json")),
        ("too-deep", lambda: parse_multicat("[" * 100_000)),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_loaders_restore_the_collector_state(tmp_path, enabled):
    # the loaders pause the garbage collector and give the caller's state
    # back, enabled or disabled, on return and on error alike
    was = gc.isenabled()
    try:
        for name, call in _loader_calls(tmp_path):
            gc.enable() if enabled else gc.disable()
            try:
                call()
            except TableFormatError:
                pass
            assert gc.isenabled() is enabled, name
    finally:
        gc.enable() if was else gc.disable()


def test_loaded_table_does_not_share_the_document():
    doc = s2_doc()
    cat = load_multicat(doc)
    text = serialize_multicat(cat)
    doc["compose"][0]["out"][0]["mult"] = 7
    doc["compose"].append({"g": "F", "f": "1_i", "out": []})
    doc["morphisms"][1]["label"] = "G"
    doc["star"]["F"] = "1_i"
    doc["objects"].append("j")
    assert serialize_multicat(cat) == text


def test_validate_builtin_clean():
    assert validate(make_s2()).ok
    assert validate(make_sl2_singular()).ok


def test_validate_fibonacci_mutation_is_associative():
    # replacing F∘F by F + 1 gives the Fibonacci based ring: with a single
    # non-identity generator every one-object table is associative, so the
    # mutated table must validate clean
    doc = s2_doc()
    doc["compose"] = [
        {"g": "F", "f": "F", "out": [{"m": "F", "mult": 1}, {"m": "1_i", "mult": 1}]}
    ]
    report = validate(load_multicat(doc))
    assert report.ok


def test_validate_flags_nonassociative_three_morph_table():
    from conftest import FIXTURES

    report = validate(load_multicat(FIXTURES / "nonassoc.json"))
    assert report.laws() == ["associativity"]
    witness_triples = [v.witness for v in report.violations]
    assert ("A", "A", "B") in witness_triples or ("B", "A", "A") in witness_triples


def test_validate_flags_bad_star():
    from conftest import FIXTURES

    report = validate(load_multicat(FIXTURES / "badstar.json"))
    assert report.laws() == ["star-anti-automorphism"]


def test_validate_flags_star_to_identity():
    doc = s2_doc()
    doc["star"]["F"] = "1_i"
    report = validate(load_multicat(doc))
    assert "star-involution" in report.laws()


def test_validate_flags_end_mismatch():
    cat = make_sl2_singular()
    doc = multicat_to_document(cat)
    entry = next(
        e for e in doc["compose"] if (e["g"], e["f"]) == ("theta_out", "theta_on")
    )
    entry["out"] = [{"m": "1_j", "mult": 1}]  # theta_out∘theta_on goes i->i
    report = validate(load_multicat(doc))
    assert "structure" in report.laws()


def brute_force_sides(cat):
    """(h, g, f, (h∘g)∘f, h∘(g∘f)) for every composable triple that
    fails, identities included, by a plain triple loop."""
    n = len(cat.morphs)
    for h in range(n):
        for g in range(n):
            if not cat.composable(h, g):
                continue
            for f in range(n):
                if not cat.composable(g, f):
                    continue
                lhs, rhs = {}, {}
                for k, c in cat.compose_idx(h, g).items():
                    for m, d in cat.compose_idx(k, f).items():
                        lhs[m] = lhs.get(m, 0) + c * d
                for k, c in cat.compose_idx(g, f).items():
                    for m, d in cat.compose_idx(h, k).items():
                        rhs[m] = rhs.get(m, 0) + c * d
                if lhs != rhs:
                    yield h, g, f, lhs, rhs


def brute_force_associativity(cat):
    """Every (h, g, f) with (h∘g)∘f != h∘(g∘f), by a plain triple loop."""
    return [(h, g, f) for h, g, f, _, _ in brute_force_sides(cat)]


def brute_force_violations(cat):
    """The (witness, detail) validate should report for each failing triple."""
    def fmt(ms):
        return " + ".join(f"{c}·{cat.morphs[k].label}" for k, c in sorted(ms.items())) or "0"

    return [
        (
            tuple(cat.morphs[x].label for x in (h, g, f)),
            f"(H∘G)∘F = {fmt(lhs)} but H∘(G∘F) = {fmt(rhs)}",
        )
        for h, g, f, lhs, rhs in brute_force_sides(cat)
    ]


def kernel_associativity(cat, certificate=False):
    """The kernel's violations: the listing, or with ``certificate`` only
    those whose middle g is a generator."""
    from fiatcells import _kernel

    return _kernel._associativity_violations(_kernel._compile(cat), certificate)


def assert_kernel_matches(cat, want, name=""):
    """The listing is ``want``, the brute-force list, and the certificate
    is part of it, empty exactly when ``want`` is."""
    assert kernel_associativity(cat) == want, name
    certificate = kernel_associativity(cat, certificate=True)
    assert set(certificate) <= set(want), name
    assert bool(certificate) == bool(want), name


def test_associativity_kernel_matches_brute_force(hecke3, hecke4):
    tables = stored_tables() + [("hecke3", hecke3), ("hecke4", hecke4)]
    assert {"nonassoc.json", "cartan_12.json", "sl2.json"} <= {name for name, _ in tables}
    found = 0
    for name, cat in tables:
        want = brute_force_associativity(cat)
        assert_kernel_matches(cat, want, name)
        found += len(want)
    assert found  # nonassoc.json has bad triples


def simple_reflections(n):
    """The labels of b_s, s a simple reflection of S_n, in make_hecke's notation."""
    labels = []
    for i in range(1, n):
        word = list(range(1, n + 1))
        word[i - 1], word[i] = word[i], word[i - 1]
        labels.append("theta_" + "".join(map(str, word)))
    return labels


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generators_of_hecke_tables_are_the_simple_reflections(n):
    from fiatcells import make_hecke
    from fiatcells._kernel import _compile

    cat = make_hecke(n)
    t = _compile(cat)
    got = [cat.morphs[g].label for g in t.generating_set]
    assert sorted(got) == sorted(simple_reflections(n))
    # validate caches the same set with its report
    assert validate(cat).ok and cat._validation.generating_set == tuple(t.generating_set)
    # they lead the one target group, and only they are read as g
    assert t.generators == [n - 1]
    assert sorted(cat.morphs[g].label for g in t.into[0][: n - 1].tolist()) == sorted(got)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    bumps=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
)
def test_associativity_kernel_on_perturbed_cartan_tables(seed, bumps):
    doc = multicat_to_document(make_CA(random_cartan_data(random.Random(seed), 2, 2, 3)))
    for entry, term, by in bumps if doc["compose"] else ():
        e = doc["compose"][entry % len(doc["compose"])]
        e["out"][term % len(e["out"])]["mult"] += by
    cat = load_multicat(doc)
    assert_kernel_matches(cat, brute_force_associativity(cat))


def star_bumped(cat, bumps):
    """``cat`` with, for each (entry, term, by) of ``bumps``, summand k of
    a stored g∘f raised by ``by`` together with summand star(k) of
    star(f)∘star(g), so that the star laws keep holding."""
    doc = multicat_to_document(cat)
    at = {(e["g"], e["f"]): e for e in doc["compose"]}
    star = doc["star"]
    for entry, term, by in bumps if doc["compose"] else ():
        e = doc["compose"][entry % len(doc["compose"])]
        k = e["out"][term % len(e["out"])]["m"]
        pairs = {((e["g"], e["f"]), k), ((star[e["f"]], star[e["g"]]), star[k])}
        for gf, m in pairs:
            next(t for t in at[gf]["out"] if t["m"] == m)["mult"] += by
    return load_multicat(doc)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    table=st.sampled_from(["cartan", "hecke3", "hecke4"]),
    seed=st.integers(0, 2**32 - 1),
    bumps=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
)
def test_associativity_on_star_consistent_bumps(hecke3, hecke4, table, seed, bumps):
    if table == "cartan":
        base = make_CA(random_cartan_data(random.Random(seed), 2, 2, 3))
    else:
        base = {"hecke3": hecke3, "hecke4": hecke4}[table]
    cat = star_bumped(base, bumps)
    report = validate(cat)
    assert not any(law.startswith("star-") for law in report.laws())
    got = [(v.witness, v.detail) for v in report.violations if v.law == "associativity"]
    assert got == brute_force_violations(cat)
    assert_kernel_matches(cat, brute_force_associativity(cat))


def test_associativity_with_broken_star_reads_every_triple(hecke3):
    # one bump without its mirror breaks star and associativity at once;
    # the full list must come back
    cat = bumped(hecke3)
    report = validate(cat)
    assert report.laws() == ["associativity", "star-anti-automorphism"]
    got = [(v.witness, v.detail) for v in report.violations if v.law == "associativity"]
    want = brute_force_violations(cat)
    assert got == want
    # the mirror of a failing triple need not fail once star is broken
    star = cat.star_map
    bad = brute_force_associativity(cat)
    assert any((star[f], star[g], star[h]) not in bad for h, g, f in bad)


def test_associativity_bump_away_from_the_generators(hecke4):
    # raise one summand of b_x∘b_y, neither x nor y a generator: the
    # certificate still finds a violation, and validate lists them all
    validate(hecke4)
    generators = {hecke4.morphs[g].label for g in hecke4._validation.generating_set}
    doc = multicat_to_document(hecke4)
    entry = next(
        e for e in doc["compose"]
        if e["g"] not in generators and e["f"] not in generators and len(e["out"]) > 1
    )
    entry["out"][0]["mult"] += 1
    cat = load_multicat(doc)
    want = brute_force_associativity(cat)
    assert want and any(cat.morphs[g].label not in generators for _, g, _ in want)
    assert kernel_associativity(cat, certificate=True)
    report = validate(cat)
    got = [(v.witness, v.detail) for v in report.violations if v.law == "associativity"]
    assert got == brute_force_violations(cat)


def bumped(cat, by=1, scale=1):
    """``cat`` with every stored multiplicity times ``scale``, then one
    summand of the composite with the most summands raised by ``by``."""
    doc = multicat_to_document(cat)
    for entry in doc["compose"]:
        for term in entry["out"]:
            term["mult"] *= scale
    widest = max(doc["compose"], key=lambda e: len(e["out"]))
    widest["out"][len(widest["out"]) // 2]["mult"] += by
    return load_multicat(doc)


def huge_tables():
    """A Cartan table with every multiplicity times 2^31, which keeps it
    associative (both sides of a triple are products of two of them) but
    makes the kernel sum in Python ints, and the same with one bump,
    which breaks a few triples."""
    cartan = make_CA([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[3]])
    return [("cartan*2^31", bumped(cartan, by=0, scale=2**31)),
            ("cartan*2^31+1", bumped(cartan, scale=2**31))]


def kernel_chunks(t, certificate):
    """(g rows of a block, h of a chunk, h per chunk) for every chunk the
    kernel reads: the non-identity h of a block in runs of
    ``max(1, _SLOT_BUDGET // used)``."""
    from fiatcells import _kernel

    for gs, hs in _kernel._rows(t, certificate):
        for a, b, used in _kernel._blocks(t, gs):
            per = max(1, _kernel._SLOT_BUDGET // used)
            for i in range(0, len(hs), per):
                yield gs[a:b].tolist(), hs[i:i + per], per


def test_associativity_kernel_at_every_block_size(monkeypatch, hecke3, hecke4):
    from fiatcells import _kernel

    huge = huge_tables()
    assert all(_kernel._compile(cat).c.dtype == object for _, cat in huge)
    mixed = dict(stored_tables())["cartan_mixed.json"]
    tables = stored_tables() + huge + [
        ("hecke3", hecke3),
        ("hecke4", hecke4),
        ("hecke3+1", bumped(hecke3)),
        ("hecke4+1", bumped(hecke4)),
        ("hecke4+star", star_bumped(hecke4, [(7, 1, 1), (40, 0, 2)])),
        ("cartan*2^31+star", star_bumped(huge[0][1], [(3, 0, 1)])),
        ("cartan_mixed+1", bumped(mixed)),
    ]
    want = {name: brute_force_associativity(cat) for name, cat in tables}
    assert want["cartan*2^31"] == [] and want["cartan*2^31+1"] and want["hecke4+1"]
    assert want["hecke4+star"] and want["cartan*2^31+star"] and want["cartan_mixed+1"]
    # h per chunk that left a partial last chunk, and the tables on which
    # one violating (g, f) failed under two h of one chunk of several
    partial, shared = set(), set()
    # 1: every g its own block, over budget, one h per chunk; 2 and 10
    # rows of hecke4 (24 morphs): a g row of hecke4 alone in its block
    # reads 2 h per chunk, and a last block of 3 rows 3 h; 2^30: every
    # target group one block, all its h one chunk
    for budget in (1, 2 * 24**2, 10 * 24**2, 2**30):
        monkeypatch.setattr(_kernel, "_SLOT_BUDGET", budget)
        for name, cat in tables:
            t = _kernel._compile(cat)
            generators = set(t.generating_set)
            for certificate in (False, True):
                read = set()
                for gs, hs in _kernel._rows(t, certificate):
                    # g rows: a prefix of their target group, which the
                    # identity closes; neither g nor h is an identity
                    into = t.into[cat.morphs[int(gs[0])].tgt.index].tolist()
                    assert gs.tolist() == into[:len(gs)]
                    assert cat.morphs[into[-1]].is_identity
                    assert not any(cat.morphs[x].is_identity for x in gs.tolist() + hs)
                    read |= set(gs.tolist())
                    # blocks: consecutive runs covering gs, each with the
                    # slots of its pairs, within budget unless one g row
                    runs = _kernel._blocks(t, gs)
                    assert [a for a, _, _ in runs] == [0] + [b for _, b, _ in runs[:-1]]
                    assert runs[-1][1] == len(gs)
                    for a, b, used in runs:
                        assert used == int(t.pair_count[gs[a:b]].sum()) * t.n
                        assert used <= budget or b - a == 1
                    if budget == 1:
                        assert len(runs) == len(gs)
                    if budget == 2**30:
                        assert len(runs) == 1
                # every non-identity g that a non-identity h can follow, or
                # for the certificate every such generator
                assert read == {
                    g.index for g in cat.morphs
                    if not g.is_identity and (not certificate or g.index in generators)
                    and any(not h.is_identity and h.src == g.tgt for h in cat.morphs)
                }, (name, certificate)
            for rows, chunk, per in kernel_chunks(t, False):
                if len(chunk) < per:
                    partial.add(per)
                pairs = [(g, f) for h, g, f in want[name] if h in chunk and g in rows]
                if len(pairs) > len(set(pairs)):
                    shared.add(name)
            assert_kernel_matches(cat, want[name], (name, budget))
    assert {2, 3} <= partial
    assert "cartan_mixed+1" in shared


def test_associativity_kernel_scatters_twice_per_block(monkeypatch):
    # at the default budget every h of a block of cartan_12 is one chunk,
    # read with one scatter per side
    import numpy as np

    from fiatcells import _kernel

    cat = dict(stored_tables())["cartan_12.json"]
    t = _kernel._compile(cat)
    calls = []

    def scatter(*args):
        calls.append(args[0])
        return real(*args)

    real = _kernel._scatter
    monkeypatch.setattr(_kernel, "_scatter", scatter)
    for certificate in (False, True):
        calls.clear()
        assert kernel_associativity(cat, certificate) == []
        blocks = sum(len(_kernel._blocks(t, gs)) for gs, _ in _kernel._rows(t, certificate))
        assert blocks and calls == [np.add, np.subtract] * blocks
        chunks = list(kernel_chunks(t, certificate))
        assert len(chunks) == blocks and any(len(hs) > 1 for _, hs, _ in chunks)


def reference_compile(cat):
    """The compiled form built pair by pair through ``compose_idx``: the
    reference that ``_kernel._compile``, which reads the stored table in
    one pass, must reproduce field for field."""
    import numpy as np

    from fiatcells._kernel import _Compiled, _generators

    n = len(cat.morphs)
    star = cat.star_map
    # the row weights read pair by pair from the stored table
    weight = [0] * n
    for (g, f), out in cat.table.items():
        if cat.composable(g, f) and not (cat.morphs[g].is_identity or cat.morphs[f].is_identity):
            weight[g] += sum(out.values())
    generating_set = _generators(cat, weight)
    generators = set(generating_set)
    runs = [([], [], []) for _ in cat.objects]
    out_of = [[] for _ in cat.objects]
    for m in cat.morphs:
        gens, others, identity = runs[m.tgt.index]
        if m.is_identity:
            identity.append(m.index)
        else:
            (gens if m.index in generators else others).append(m.index)
            out_of[m.src.index].append(m.index)
    into = [a + b + c for a, b, c in runs]
    rank = [0] * n
    for members in into:
        for r, m in enumerate(members):
            rank[m] = r
    pair_first = [0] * n
    pair_g, pair_f, outs = [], [], []
    for gs in into:
        for g in gs:
            pair_first[g] = len(outs)
            for f in into[cat.morphs[g].src.index]:
                pair_g.append(g)
                pair_f.append(f)
                outs.append(cat.compose_idx(g, f))
    terms = [term for out in outs for term in sorted(out.items())]
    index = np.int32 if len(outs) * n < 2**31 else np.int64
    biggest = max((c for _, c in terms), default=1)
    exact = np.int64 if 2 * n * biggest * biggest < 2**63 else object
    sizes = np.fromiter(map(len, outs), dtype=index, count=len(outs))
    entries = np.concatenate(([0], np.cumsum(sizes))).astype(index)
    rank_arr = np.array(rank, dtype=index)
    pair_first = np.array(pair_first, dtype=index)
    pair_f_arr = np.array(pair_f, dtype=index)
    pair_count = np.array([len(into[m.src.index]) for m in cat.morphs], dtype=index)
    first = entries[pair_first]
    p = np.repeat(np.arange(len(outs), dtype=index), sizes)
    k = np.fromiter((k for k, _ in terms), dtype=index, count=len(terms))
    return _Compiled(
        n=n,
        into=[np.array(members, dtype=index) for members in into],
        generating_set=generating_set,
        generators=[len(gens) for gens, _, _ in runs],
        out_of=out_of,
        star=np.array(star, dtype=index),
        rank=rank_arr,
        pair_first=pair_first,
        pair_g=np.array(pair_g, dtype=index),
        pair_f=pair_f_arr,
        entry_first=entries,
        first=first,
        row_len=entries[pair_first + pair_count - 1] - first,
        pair_count=pair_count,
        p=p,
        k=k,
        fm=rank_arr[pair_f_arr[p]] * n + k,
        lead=pair_first[pair_f_arr[p]] * n,
        c=np.fromiter((c for _, c in terms), dtype=exact, count=len(terms)),
    )


def assert_same_compiled(got, want, name):
    """Every field of two compiled forms equal, arrays in dtype too."""
    import dataclasses

    import numpy as np

    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "into":  # a list of arrays
            assert len(a) == len(b), (name, field.name)
            pairs = list(zip(a, b))
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            if isinstance(y, np.ndarray):
                assert isinstance(x, np.ndarray), (name, field.name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape), (name, field.name)
                assert x.tolist() == y.tolist(), (name, field.name)
            else:
                assert x == y, (name, field.name)


def test_compile_matches_the_per_pair_reference(hecke3, hecke4):
    from fiatcells import make_hecke
    from fiatcells._kernel import _compile

    # stored entries compose_idx never reads: a non-composable one, and
    # unit-law ones that break the unit law or keep it
    doc = multicat_to_document(make_CA([[2, 1], [1, 2]], [[3]]))
    morphs = doc["morphisms"]
    one = {m["src"]: m["label"] for m in morphs if m.get("identity")}
    f = next(m for m in morphs if m["tgt"] == "t1" and not m.get("identity"))
    g = next(m for m in morphs if m["src"] == "t2" and not m.get("identity"))
    doc["compose"] += [
        {"g": g["label"], "f": f["label"], "out": [{"m": g["label"], "mult": 5}]},
        {"g": one["t1"], "f": f["label"], "out": [{"m": f["label"], "mult": 3}]},
        {"g": f["label"], "f": one[f["src"]], "out": [{"m": f["label"], "mult": 1}]},
    ]
    odd = load_multicat(doc)
    assert {"structure", "unit-law"} <= set(validate(odd).laws())
    # nothing stored: only identities, or only zero composites
    bare = {
        "objects": ["i", "j"],
        "morphisms": [
            {"label": "1_i", "src": "i", "tgt": "i", "identity": True},
            {"label": "1_j", "src": "j", "tgt": "j", "identity": True},
        ],
        "star": {},
        "compose": [],
    }
    zero = json.loads(json.dumps(bare))
    zero["morphisms"] += [{"label": "F", "src": "i", "tgt": "j"}, {"label": "G", "src": "j", "tgt": "i"}]
    zero["star"] = {"F": "G", "G": "F"}
    tables = stored_tables() + huge_tables() + [
        ("hecke3", hecke3), ("hecke4", hecke4), ("hecke5", make_hecke(5)), ("odd", odd),
        ("bare", load_multicat(bare)), ("zero", load_multicat(zero)),
    ]
    names = {name for name, _ in tables}
    assert {"badstar.json", "nonassoc.json", "unequal_m.json"} <= names
    dtypes = set()
    for name, cat in tables:
        want = reference_compile(cat)
        assert_same_compiled(_compile(cat), want, name)
        dtypes.add(want.c.dtype)
    assert len(dtypes) == 2  # int64 and object


def reference_validate(cat):
    """``validate`` as one sorted pass over every stored entry, then the
    star and associativity checks: the reference for the scan that
    sorts only the suspect entries."""
    from fiatcells import model

    violations = []
    morphs = cat.morphs
    for (g, f), out in sorted(cat.table.items()):
        gm, fm = morphs[g], morphs[f]
        if gm.src.index != fm.tgt.index:
            violations.append(model.Violation(
                "structure", (gm.label, fm.label), "stored composite of a non-composable pair",
            ))
            continue
        for k in sorted(out):
            km = morphs[k]
            if km.src.index != fm.src.index or km.tgt.index != gm.tgt.index:
                violations.append(model.Violation(
                    "structure",
                    (gm.label, fm.label, km.label),
                    f"summand {km.label} has ends {km.src.label}->{km.tgt.label}, "
                    f"expected {fm.src.label}->{gm.tgt.label}",
                ))
        if gm.is_identity and out != {f: 1}:
            violations.append(model.Violation(
                "unit-law", (gm.label, fm.label), "left unit composite differs from the unit law",
            ))
        if fm.is_identity and not gm.is_identity and out != {g: 1}:
            violations.append(model.Violation(
                "unit-law", (gm.label, fm.label), "right unit composite differs from the unit law",
            ))
    model._check_star(cat, violations)
    model._check_kernels(cat, violations)
    return model.ValidationReport(tuple(violations))


MUTATIONS = ("wrong-ends", "non-composable", "unit-law", "empty", "star")


def mutated(doc, rng, mutation):
    """``doc`` changed in place by one ``mutation``, its choices drawn from ``rng``."""
    morphs = doc["morphisms"]
    ends = {m["label"]: (m["src"], m["tgt"]) for m in morphs}
    stored = {(e["g"], e["f"]) for e in doc["compose"]}
    if mutation == "wrong-ends" and doc["compose"]:
        # a summand relabelled, to one with wrong ends where there is one
        e = rng.choice(doc["compose"])
        want = (ends[e["f"]][0], ends[e["g"]][1])
        free = [lab for lab in ends if lab not in {t["m"] for t in e["out"]}]
        wrong = [lab for lab in free if ends[lab] != want]
        if free:
            if not e["out"]:
                e["out"].append({"mult": 1})
            rng.choice(e["out"])["m"] = rng.choice(wrong or free)
    elif mutation == "non-composable":
        pairs = [(g, f) for g in ends for f in ends
                 if ends[g][0] != ends[f][1] and (g, f) not in stored]
        if pairs:
            g, f = rng.choice(pairs)
            doc["compose"].append(
                {"g": g, "f": f, "out": [{"m": rng.choice(list(ends)), "mult": rng.randint(1, 3)}]}
            )
    elif mutation == "unit-law":
        # (1, f) or (g, 1), stored as the unit law or as something else
        one = {m["src"]: m["label"] for m in morphs if m.get("identity")}
        pairs = [(one[ends[f][1]], f) for f in ends] + [(g, one[ends[g][0]]) for g in ends]
        pairs = [(g, f) for g, f in pairs if (g, f) not in stored]
        if pairs:
            g, f = rng.choice(pairs)
            law = f if g in one.values() else g
            out = rng.choice([
                [{"m": law, "mult": 1}],
                [{"m": law, "mult": 2}],
                [],
                [{"m": rng.choice(list(ends)), "mult": 1}],
            ])
            doc["compose"].append({"g": g, "f": f, "out": out})
    elif mutation == "empty" and doc["compose"]:
        rng.choice(doc["compose"])["out"] = []
    elif mutation == "star":
        doc["star"][rng.choice(list(ends))] = rng.choice(list(ends))
    return doc


def test_validate_matches_the_full_sorted_scan(hecke3):
    # each mutation alone, then two or three at once, on each table: the
    # report is the reference's, and every law the scan checks is hit
    rng = random.Random(20261019)
    seen = set()
    bases = [make_s2(), make_sl2_singular(), hecke3,
             make_CA(random_cartan_data(random.Random(3), 3, 2, 3))]
    for base in bases:
        batches = [[mutation] for mutation in MUTATIONS for _ in range(8)]
        batches += [rng.sample(MUTATIONS, rng.randint(2, 3)) for _ in range(20)]
        for batch in batches:
            doc = multicat_to_document(base)
            for mutation in batch:
                mutated(doc, rng, mutation)
            report = validate(load_multicat(doc))
            assert str(report) == str(reference_validate(load_multicat(doc))), batch
            seen |= set(report.laws())
    assert {"structure", "unit-law", "star-involution", "associativity"} <= seen


def test_associativity_is_exact_beyond_int64():
    # (F∘F)∘G = 2^65·G but F∘(F∘G) = 2^66·G, which int64 cannot tell apart
    report = validate(load_multicat(three_morph_doc(2**32, 2**33)))
    assert report.laws() == ["associativity"]
    assert [v.witness for v in report.violations] == [("F", "F", "G"), ("G", "F", "F")]
    assert f"{2**65}·G" in str(report) and f"{2**66}·G" in str(report)


def test_exactness_holds_without_asserts(tmp_path):
    import fiatcells

    path = tmp_path / "big.json"
    path.write_text(json.dumps(three_morph_doc(2**32, 2**33)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fiatcells.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "fiatcells.cli", "validate", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "associativity" in proc.stdout


def test_multiplicity_beyond_int64_gets_a_verdict():
    doc = s2_doc()
    doc["compose"][0]["out"][0]["mult"] = 2**70
    cat = load_multicat(doc)
    assert validate(cat).ok
    assert fiat_lint(cat).ok
    assert report_analyze(cat)["m_diagonal"]["F"] == 2**70


def test_multicat_is_read_only():
    cat = load_multicat(three_morph_doc(2, 2))
    f = cat.morph("F")
    with pytest.raises(TypeError):
        cat.table[(f.index, f.index)][f.index] = 3
    with pytest.raises(TypeError):
        cat.morphs[0] = f
    with pytest.raises(TypeError):
        cat.star_map[0] = 1
    assert isinstance(cat.objects, tuple)


def test_multicat_pickles_and_deep_copies(sl2):
    import copy
    import pickle

    validate(sl2)  # a copy must not depend on the caches filled here
    for twin in (pickle.loads(pickle.dumps(sl2)), copy.deepcopy(sl2)):
        assert twin == sl2
        assert serialize_multicat(twin) == serialize_multicat(sl2)
        assert validate(twin).ok


def test_cached_verdict_cannot_go_stale():
    # validate caches the compiled table; changing F∘F from 2·F to 3·F
    # afterwards must not leave a "valid" verdict for a non-associative table
    cat = load_multicat(three_morph_doc(2, 2))
    assert validate(cat).ok
    f = cat.morph("F").index
    with pytest.raises(TypeError):
        cat.table[(f, f)] = {f: 3}
    assert cat.compose_idx(f, f) == {f: 2}
    assert validate(cat).ok
    assert not validate(load_multicat(three_morph_doc(3, 2))).ok


def test_validate_caches_one_read_only_report():
    import dataclasses

    for cat in (load_multicat(three_morph_doc(2, 2)), load_multicat(three_morph_doc(3, 2))):
        report = validate(cat)
        assert validate(cat) is report
        assert isinstance(report.violations, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.violations = ()
    assert report.laws() == ["associativity"]


def numpy_arrays(value, seen=None):
    """The numpy arrays reachable from ``value`` through containers,
    dataclasses and named tuples."""
    import dataclasses

    import numpy as np

    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (str, bytes, int, float)):
        return []
    if isinstance(value, Mapping):
        parts = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        parts = list(value)
    elif dataclasses.is_dataclass(value):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return []
    return [a for part in parts for a in numpy_arrays(part, seen)]


def test_validated_tables_keep_no_index_arrays():
    # the kernel's arrays are freed when validate returns: neither the
    # table nor its caches hold one, make_hecke's module cache included
    from fiatcells import make_hecke

    for cat in (make_hecke(4), make_CA(random_cartan_data(random.Random(7), 3, 2, 3))):
        report = validate(cat)
        assert report.ok and validate(cat) is report
        report_analyze(cat)
        assert cat._validation.report is report and cat._validation.generating_set
        assert all(type(s) is int for s in cat._validation.generating_set)
        caches = {name: getattr(cat, name) for name in ("_cells", "_validation", "_analysis")}
        assert all(value is not None for value in caches.values())
        assert not numpy_arrays([vars(cat), *caches.values()])


@pytest.mark.parametrize("table", ["hecke3", "nonassoc.json", "badstar.json"])
def test_validated_tables_are_not_validated_again(monkeypatch, hecke3, table):
    # report_analyze and fiat_lint read the report validate cached: no
    # second run of the associativity kernel, nor of its compilation
    import pickle

    from fiatcells import _kernel

    cat = hecke3 if table == "hecke3" else load_multicat(FIXTURES / table)
    cat = pickle.loads(pickle.dumps(cat))  # nothing cached
    calls = []
    for name in ("_associativity_violations", "_compile"):
        def spy(*args, _name=name, _real=getattr(_kernel, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(_kernel, name, spy)
    report = validate(cat)
    ran = list(calls)
    assert "_compile" in ran and "_associativity_violations" in ran
    assert report_analyze(cat)["validation"]["ok"] == report.ok
    assert fiat_lint(cat).ok == report.ok
    assert validate(cat) is report
    assert calls == ran


def test_multicat_attributes_cannot_be_rebound():
    # rebinding table to a non-associative one must not leave a "valid"
    # verdict read off the private entries the kernel uses
    cat = load_multicat(three_morph_doc(2, 2))
    bad = load_multicat(three_morph_doc(3, 2))
    assert validate(cat).ok
    for name in ("table", "morphs", "objects", "star_map", "_entries", "_validation",
                 "_analysis", "_cells", "new_attribute"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(cat, name, getattr(bad, name, None))
    with pytest.raises(AttributeError, match="read-only"):
        del cat.table
    assert cat.table is not bad.table
    assert validate(cat).ok
    assert not validate(bad).ok


def test_cli_import_skips_numpy_and_networkx():
    import fiatcells

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fiatcells.__file__).parents[1]))
    code = (
        "import sys, fiatcells.cli; "
        "print(sorted(m for m in ('numpy', 'networkx', 'fiatcells.bimodule', 'fiatcells.linalg',"
        " 'hashlib') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bimodule_names_resolve_lazily():
    import fiatcells

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fiatcells.__file__).parents[1]))
    code = (
        "import sys, fiatcells\n"
        "print('fiatcells.bimodule' in sys.modules, 'realize_CA' in dir(fiatcells))\n"
        "from fiatcells import realize_CA, Bimodule\n"
        "from fiatcells import bimodule\n"
        "print(realize_CA is bimodule.realize_CA, Bimodule is bimodule.Bimodule,\n"
        "      fiatcells.hom_space is bimodule.hom_space)\n"
        "names = {}\n"
        "exec('from fiatcells import *', names)\n"
        "print(names['realize_CA'] is realize_CA, names['validate'] is fiatcells.validate)\n"
        "try:\n"
        "    fiatcells.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False True",
        "True True True",
        "True True",
        "module 'fiatcells' has no attribute 'no_such_name'",
    ]


def test_public_surface_is_pinned():
    # a name added to or dropped from the package is a visible change here
    import fiatcells

    assert fiatcells.__all__ == [
        "Algebra", "Bimodule", "BimoduleMap", "CartanBlock", "CartanData",
        "CellPartition", "CheckResult", "DecompositionError", "DufloError",
        "LaurentPoly", "LintReport", "MTable", "MorphId", "MultiCat",
        "NotComposableError", "NotStronglyRegularError", "ObjectId", "Permutation",
        "PurityError", "RSCellReport", "RegularityVerdict", "TableFormatError",
        "TableauPair", "ValidationReport", "Violation", "acts_nonzero",
        "all_permutations", "analysis", "annihilator_of_simple", "are_isomorphic",
        "blocks_equal_up_to_permutation", "bruhat_leq", "canonical_basis",
        "canonical_basis_by_bar_invariance", "cartan_blocks", "cartan_matrix",
        "cartan_of", "cell_subcategory", "cells", "check_left_cell_constancy",
        "classify_two_sided", "comp_mult_principal", "compose", "constructors",
        "decompose_against", "dual_numbers", "duflo_element", "fiat_lint",
        "find_isomorphism", "hom_space", "identity_bimodule",
        "inverse_robinson_schensted", "isomorph", "kl_polynomial",
        "kl_structure_constants", "klbasis", "laurent", "leq_L", "leq_LR", "leq_R",
        "load_algebras", "load_multicat", "m_coeff", "m_table", "make_CA", "make_hecke",
        "make_s2", "make_sl2_singular", "model", "multicat_from_document",
        "multicat_to_document", "parse_multicat", "permutations", "projective_bimodule",
        "random_cartan_data", "rationals", "realize_CA", "render_analyze_text",
        "report", "report_analyze", "robinson_schensted", "rs_cell_check",
        "serialize_multicat", "tableaux", "tensor_over", "validate",
        "verify_dual_numbers_quiver", "verify_order_factorization"
    ]
    missing = [name for name in fiatcells.__all__ if not hasattr(fiatcells, name)]
    assert not missing


def test_cells_module_does_not_import_analysis():
    # analysis builds on cells; an import the other way, even one inside
    # a function, would bring the cycle back
    import ast

    import fiatcells

    tree = ast.parse(pathlib.Path(fiatcells.__file__).with_name("cells.py").read_text("utf-8"))
    imported = []  # each dotted name an import statement mentions
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
    assert "model" in imported, "the check reads the wrong file"
    assert not [name for name in imported if "analysis" in name.split(".")], imported


def test_serializer_is_canonical_utf8_lf():
    text = serialize_multicat(make_sl2_singular())
    assert "\r" not in text
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["objects", "morphisms", "star", "compose"]


def test_serializer_writes_what_the_indenting_encoder_writes(hecke3):
    def indented(cat):
        return json.dumps(multicat_to_document(cat), indent=2, ensure_ascii=False) + "\n"

    # labels that need escaping, an object with only its identity, a zero
    # composite, an empty compose list and a multiplicity beyond int64
    odd = {
        "objects": ['é"\\\n', "☃"],
        "morphisms": [
            {"label": "1\t", "src": 'é"\\\n', "tgt": 'é"\\\n', "identity": True},
            {"label": "☃1", "src": "☃", "tgt": "☃", "identity": True},
            {"label": "\ud800Z", "src": "☃", "tgt": "☃"},
        ],
        "star": {},
        "compose": [{"g": "\ud800Z", "f": "\ud800Z", "out": []}],
    }
    bare = {"objects": ["i"], "morphisms": [{"label": "1", "src": "i", "tgt": "i", "identity": True}],
            "star": {}, "compose": []}
    big = s2_doc()
    big["compose"][0]["out"][0]["mult"] = 2**200
    cats = [load_multicat(doc) for doc in (odd, bare, big)]
    cats += [hecke3, make_sl2_singular(), make_CA(random_cartan_data(random.Random(7)))]
    for cat in cats:
        assert serialize_multicat(cat) == indented(cat)
