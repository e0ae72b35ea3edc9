import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiatcells import load_multicat, validate
from fiatcells.cli import run

from conftest import FIXTURES, GOLDEN, three_morph_doc


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_matches_golden(capsys):
    for what, golden in (("s2", "s2.json"), ("sl2", "sl2.json")):
        code, out, err = invoke(capsys, "gen", what)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_gen_is_byte_stable(capsys):
    code1, out1, _ = invoke(capsys, "gen", "hecke", "--n", "3")
    code2, out2, _ = invoke(capsys, "gen", "hecke", "--n", "3")
    assert code1 == code2 == 0 and out1 == out2


# sha256 of `fiatcells gen hecke --n N`; the n = 5 text is the stored
# benchmark table bench/data/hecke5.json.gz, uncompressed
HECKE_TABLE_SHA256 = {
    2: "47e934ae9d2c70d1fbbe8413ebb8e4e538caacfd87afb1478a57dc6b4a6e6969",
    3: "ff5314c71850e517bf214291190e7bf318ccde101999b504ed3d62dd056f52cd",
    4: "ee7d707ea73eff3e60706f33cbfadde6eef4a8e25e73b280313b5627ddcc952c",
    5: "22ff2d38993097d6f6d385de94f3d8b02eba3ff344afb4051a60e8a9b97a8c3e",
}


@pytest.mark.parametrize("n", sorted(HECKE_TABLE_SHA256))
def test_gen_hecke_bytes_are_pinned(capsys, n):
    code, out, err = invoke(capsys, "gen", "hecke", "--n", str(n))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HECKE_TABLE_SHA256[n]


def test_lint_text_golden(capsys):
    code, out, _ = invoke(capsys, "lint", str(GOLDEN / "sl2.json"))
    assert code == 0
    assert out == (GOLDEN / "lint_sl2.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["validate", "lint"])
@pytest.mark.parametrize("fixture", ["badstar", "nonassoc"])
def test_invalid_table_text_golden(capsys, command, fixture):
    # badstar breaks only the star laws, so the certificate reads clean;
    # nonassoc breaks associativity, so the kernel then lists every triple
    code, out, _ = invoke(capsys, command, str(FIXTURES / f"{fixture}.json"))
    assert code == 2
    assert out == (GOLDEN / f"{command}_{fixture}.txt").read_text(encoding="utf-8")


def test_analyze_text_golden(capsys):
    code, out, _ = invoke(capsys, "analyze", str(GOLDEN / "sl2.json"))
    assert code == 0
    assert out == (GOLDEN / "analyze_sl2.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture", ["star_swap", "unequal_m"])
def test_analyze_lint_failures_text_golden(capsys, fixture):
    # star_swap: an "analysis error" line on each cell that star moves;
    # unequal_m: every Duflo element exists, the m diagonal is not constant
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / f"{fixture}.json"))
    assert code == 2
    assert out == (GOLDEN / f"analyze_{fixture}.txt").read_text(encoding="utf-8")


def test_cells_text_golden(capsys):
    code, out, _ = invoke(capsys, "cells", "--kind", "right", str(GOLDEN / "s2.json"))
    assert code == 0
    assert out == (GOLDEN / "cells_s2_right.txt").read_text(encoding="utf-8")


def test_cells_json_envelope(capsys):
    code, out, _ = invoke(capsys, "cells", "--json", "--kind", "left", str(GOLDEN / "sl2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "fiatcells"
    assert doc["kind"] == "left"
    assert len(doc["input_sha256"]) == 64
    assert doc["seed"] == 0
    assert ["1_j", "theta_on"] in doc["classes"]


def test_order_command(capsys):
    code, out, _ = invoke(capsys, "order", "--kind", "two-sided", str(GOLDEN / "sl2.json"))
    assert code == 0
    assert out.strip() == "0 < 1"


def test_annihilator_command(capsys):
    code, out, _ = invoke(capsys, "annihilator", "--morph", "1_i", str(GOLDEN / "s2.json"))
    assert code == 0
    assert "F" in out
    code, out, _ = invoke(capsys, "annihilator", "--morph", "F", str(GOLDEN / "s2.json"))
    assert code == 0
    assert "(empty)" in out


@pytest.mark.parametrize("morph, other", [("A", "B"), ("B", "A")])
def test_annihilator_on_a_table_breaking_star_exits_1(capsys, morph, other):
    # on badstar the annihilator of L(A) is not a right coideal
    code, out, err = invoke(capsys, "annihilator", "--morph", morph, str(FIXTURES / "badstar.json"))
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"error: annihilator of {morph} is not a right coideal: {morph} <=_R {other}" in err


def test_exit_codes_on_fixtures(capsys):
    code, out, _ = invoke(capsys, "lint", str(FIXTURES / "nonassoc.json"))
    assert code == 2
    assert "associativity" in out and "FAIL" in out
    code, out, _ = invoke(capsys, "lint", str(FIXTURES / "badstar.json"))
    assert code == 2
    assert "star-anti-automorphism" in out
    code, out, _ = invoke(capsys, "lint", str(FIXTURES / "unequal_m.json"))
    assert code == 2
    assert "m-divisibility: FAIL" in out
    assert "left-cell-constancy: FAIL" in out


def test_validate_exit_codes(capsys):
    code, _, _ = invoke(capsys, "validate", str(GOLDEN / "sl2.json"))
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(FIXTURES / "nonassoc.json"))
    assert code == 2
    assert "associativity" in out


def test_analyze_invalid_input_exits_1(capsys):
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "nonassoc.json"))
    assert code == 1
    assert "violation" in out


def test_analyze_lint_violations_exit_2(capsys):
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "unequal_m.json"))
    assert code == 2
    assert "fiat-certified-impossible" in out


def test_usage_and_input_errors_exit_1(capsys):
    assert run(["cells", "/nonexistent/path.json"]) == 1
    assert run(["gen", "ca"]) == 1  # missing --cartan
    assert run(["nonsense"]) == 1
    assert run(["klpoly", "--n", "3", "--x", "1 2 3", "--w", "2 1"]) == 1


def test_gen_ca_and_aliases(capsys):
    code, out1, _ = invoke(capsys, "gen", "ca", "--cartan", str(FIXTURES / "cartan_12.json"))
    assert code == 0
    code, out2, _ = invoke(capsys, "ca", "--cartan", str(FIXTURES / "cartan_12.json"))
    assert code == 0 and out1 == out2
    code, out3, _ = invoke(capsys, "hecke", "--n", "2")
    assert code == 0
    doc = json.loads(out3)
    assert len(doc["morphisms"]) == 2


def test_gen_ca_multi_component_round_trips(capsys):
    code, out, _ = invoke(capsys, "gen", "ca", "--cartan", str(FIXTURES / "cartan_mixed.json"))
    assert code == 0
    from fiatcells import load_multicat, make_CA, serialize_multicat

    cat = load_multicat(out)
    assert serialize_multicat(cat) == out
    assert cat == make_CA([[2, 1], [1, 2]], [[1]], [[3]])
    # 2 + 1 + 1 vertices: 16 projectives, merged identity for [[1]],
    # separate identities for the other two components
    assert len(cat.morphs) == 18


def test_hecke_guard_exit(capsys):
    code, _, err = invoke(capsys, "gen", "hecke", "--n", "9")
    assert code == 1
    assert "guarded range" in err


def test_klpoly_output(capsys):
    code, out, _ = invoke(capsys, "klpoly", "--n", "4", "--x", "1 3 2 4", "--w", "3 4 1 2")
    assert code == 0
    assert out.strip().endswith("= 1 + q")
    # the same pair padded into S_9 reads only its own Bruhat interval
    code, out, _ = invoke(capsys, "klpoly", "--n", "9", "--x", "1 3 2 4 5 6 7 8 9",
                          "--w", "3 4 1 2 5 6 7 8 9")
    assert code == 0
    assert out == "P[1 3 2 4 5 6 7 8 9 ; 3 4 1 2 5 6 7 8 9] = 1 + q\n"


def test_rs_output(capsys):
    code, out, _ = invoke(capsys, "rs", "--perm", "2 1")
    assert code == 0
    assert out == "P:\n  1\n  2\nQ:\n  1\n  2\n"
    code, out, _ = invoke(capsys, "rs", "--perm", "3 1 2")
    assert code == 0
    assert "1 2" in out and "1 3" in out


def test_unknown_morph_error_has_no_stray_quotes(capsys):
    code, out, err = invoke(capsys, "annihilator", "--morph", "nope", str(GOLDEN / "sl2.json"))
    assert code == 1 and out == ""
    assert err == "fiatcells: error: no morphism labelled 'nope'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rs", "--perm", "a b"], "--perm: invalid literal for int() with base 10: 'a'"),
        (["rs", "--perm", "1 1"], "--perm: not a permutation of 1..2: (1, 1)"),
        (["klpoly", "--n", "3", "--x", "1 2 x", "--w", "1 2 3"],
         "--x: invalid literal for int() with base 10: 'x'"),
        (["klpoly", "--n", "3", "--x", "1 2 3", "--w", "1 3 3"],
         "--w: not a permutation of 1..3: (1, 3, 3)"),
    ],
)
def test_bad_permutation_names_its_option(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"fiatcells: error: {message}\n"


def test_bimod_verify_quiver(capsys):
    code, out, _ = invoke(capsys, "bimod", "verify-quiver")
    assert code == 0
    assert "4, 2, 2, 2" in out
    assert "FAIL" not in out


def test_bimod_realize_ca_matches_gen(capsys):
    code, out1, _ = invoke(capsys, "bimod", "realize-ca", "--algebras",
                           str(FIXTURES / "algebras_qd.json"))
    assert code == 0
    code, out2, _ = invoke(capsys, "gen", "ca", "--cartan", str(FIXTURES / "cartan_12.json"))
    assert code == 0 and out1 == out2


def test_bimod_realize_ca_reads_algebras_from_stdin(capsys, monkeypatch):
    path = FIXTURES / "algebras_qd.json"
    code, want, _ = invoke(capsys, *_REALIZE, str(path))
    assert code == 0
    text = path.read_text(encoding="utf-8")
    code, out, err = invoke_stdin(capsys, monkeypatch, text, *_REALIZE, "-")
    assert (code, out, err) == (0, want, "")


def test_bimod_realize_ca_array_on_stdin_is_not_a_path(capsys, monkeypatch):
    code, out, err = invoke_stdin(capsys, monkeypatch, "[]\n", *_REALIZE, "-")
    assert code == 1 and out == ""
    assert "error: document root must be a JSON object, got array" in err
    assert "No such file" not in err


def test_bimod_hom(capsys):
    code, out, _ = invoke(capsys, "bimod", "hom",
                          "--m", str(FIXTURES / "bimod_f.json"),
                          "--n", str(FIXTURES / "bimod_f.json"))
    assert code == 0
    assert out.startswith("dim hom = 4")
    code, out, _ = invoke(capsys, "bimod", "hom",
                          "--m", str(FIXTURES / "bimod_f.json"),
                          "--n", str(FIXTURES / "bimod_id.json"))
    assert code == 0
    assert out.startswith("dim hom = 2")


def test_validate_and_lint_json(capsys):
    code, out, _ = invoke(capsys, "validate", "--json", str(FIXTURES / "nonassoc.json"))
    assert code == 2
    doc = json.loads(out)
    assert not doc["validation"]["ok"]
    assert doc["validation"]["violations"][0]["law"] == "associativity"
    code, out, _ = invoke(capsys, "lint", "--json", str(FIXTURES / "unequal_m.json"))
    assert code == 2
    doc = json.loads(out)
    assert doc["lint"]["fiat_certified_impossible"]
    failed = {c["check"] for c in doc["lint"]["checks"] if c["status"] == "fail"}
    assert "left-cell-constancy" in failed


def test_stdin_pipeline():
    gen = subprocess.run(
        [sys.executable, "-m", "fiatcells.cli", "gen", "sl2"],
        capture_output=True, text=True, check=True,
    )
    lint = subprocess.run(
        [sys.executable, "-m", "fiatcells.cli", "lint", "-"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert lint.returncode == 0
    assert "all checks pass" in lint.stdout


def test_analyze_json_m_diagonal(capsys):
    code, out, _ = invoke(capsys, "analyze", "--json", str(GOLDEN / "sl2.json"))
    assert code == 0
    doc = json.loads(out)
    assert list(doc["m_diagonal"].values()) == [1, 1, 1, 2, 2]
    assert doc["version"] == "0.1.0"


def test_analyze_hecke3_via_pipeline(capsys):
    code, table, _ = invoke(capsys, "gen", "hecke", "--n", "3")
    assert code == 0
    import io
    import sys as _sys

    stdin = _sys.stdin
    _sys.stdin = io.StringIO(table)
    try:
        code, out, _ = invoke(capsys, "analyze", "--json", "-")
    finally:
        _sys.stdin = stdin
    assert code == 0
    doc = json.loads(out)
    sections = doc["two_sided_analysis"]
    assert len(sections) == 3
    assert all(s["strongly_regular"] for s in sections)
    assert all(s["left_cell_constant"] for s in sections)


def invoke_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return invoke(capsys, *argv)


def test_array_root_on_stdin_is_not_a_path(capsys, monkeypatch):
    code, out, err = invoke_stdin(capsys, monkeypatch, "[1]\n", "validate", "-")
    assert code == 1 and out == ""
    assert "document root must be a JSON object" in err
    assert "No such file" not in err


def _sl2_doc():
    return json.loads((GOLDEN / "sl2.json").read_text(encoding="utf-8"))


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        return doc
    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set(["star"], ["theta", "theta"]), "star"),
        (_set(["compose", 0, "out"], 3), "compose[0].out"),
        (_set(["morphisms", 2], 7), "morphisms[2]"),
        (_set(["morphisms", 1, "label"], ["1_j"]), "morphisms[1].label"),
        (_set(["compose", 0, "out", 0], ["theta", 1]), "compose[0].out[0]"),
        (_set(["compose", 0, "out", 0, "m"], ["theta"]), "compose[0].out[0].m"),
        (_set(["compose", 0, "g"], 1), "compose[0].g"),
        (_set(["objects"], {"i": 0}), "objects"),
        (_set(["objects", 0], 0), "objects[0]"),
        (_set(["morphisms", 0, "identity"], "yes"), "morphisms[0].identity"),
        (_set(["star", "theta"], None), "star['theta']"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "lint", "analyze"])
def test_wrongly_typed_fields_exit_1_naming_the_field(capsys, monkeypatch, command, mutate, field):
    text = json.dumps(mutate(_sl2_doc()))
    code, out, err = invoke_stdin(capsys, monkeypatch, text, command, "-")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert f"error: {field}" in err


def _bimod_f_with(**fields):
    doc = json.loads((FIXTURES / "bimod_f.json").read_text(encoding="utf-8"))
    doc.update(fields)
    return doc


def _algebras_qd_with_mult_a(value):
    doc = json.loads((FIXTURES / "algebras_qd.json").read_text(encoding="utf-8"))
    doc["algebras"][1]["mult"][2]["a"] = value
    return doc


_GEN_CA = ["gen", "ca", "--cartan"]
_REALIZE = ["bimod", "realize-ca", "--algebras"]
_HOM = ["bimod", "hom", "--n", str(FIXTURES / "bimod_f.json"), "--m"]


@pytest.mark.parametrize(
    "command, doc, field",
    [
        (_GEN_CA, {"components": 5}, "components"),
        (_GEN_CA, [[[2.7]]], "components[0][0][0]"),
        (_GEN_CA, [[["2"]]], "components[0][0][0]"),
        (_GEN_CA, [[[True]]], "components[0][0][0]"),
        (_REALIZE, [], "document root"),
        (_REALIZE, {"algebras": [5]}, "algebras[0]"),
        (_REALIZE, _algebras_qd_with_mult_a(2), "algebras[1].mult[2].a"),
        (_REALIZE, _algebras_qd_with_mult_a("y"), "algebras[1].mult[2].a"),
        (_HOM, _bimod_f_with(f=[0]), "f"),
        (_HOM, _bimod_f_with(f=3), "f"),
        (_HOM, _bimod_f_with(left={"basis": ["1"], "unit": {"1": 0.5}, "idempotents": ["1"]}),
         "left.unit['1']"),
    ],
    ids=["cartan-object", "cartan-float", "cartan-string", "cartan-bool", "algebras-array",
         "algebras-integer", "mult-a-integer", "mult-a-unknown", "hom-f-array", "hom-f-range",
         "unit-float"],
)
def test_malformed_non_table_documents_exit_1_naming_the_field(capsys, tmp_path, command, doc,
                                                               field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert f"error: {field}" in err


@pytest.mark.parametrize("command", [["validate"], _GEN_CA, _REALIZE, _HOM],
                         ids=["table", "cartan", "algebras", "bimodule"])
def test_malformed_json_text_exits_1_with_its_position(capsys, tmp_path, command):
    path = tmp_path / "doc.json"
    path.write_text("{", encoding="utf-8")
    code, out, err = invoke(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert "error: parse error at line 1 col 2" in err


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, document",
    [
        (["validate"], '{"objects": ' + _DEEP + "}"),
        (["lint", "-"], '{"compose": ' + _DEEP + "}"),
        (_GEN_CA, _DEEP),
        (_REALIZE, '{"algebras": ' + _DEEP + "}"),
    ],
    ids=["table", "table-stdin", "cartan", "algebras"],
)
def test_deeply_nested_json_exits_1(capsys, monkeypatch, tmp_path, command, document):
    # the JSON decoder recurses once per level: 100,000 levels overflow it
    if command[-1] == "-":
        code, out, err = invoke_stdin(capsys, monkeypatch, document, *command)
    else:
        path = tmp_path / "doc.json"
        path.write_text(document, encoding="utf-8")
        code, out, err = invoke(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err == "fiatcells: error: parse error: nested too deeply\n"


def test_int64_overflowing_table_is_not_associative(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(three_morph_doc(2**32, 2**33)), encoding="utf-8")
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 2
    assert out.startswith("2 violation(s):")
    assert "associativity [F, F, G]" in out and "associativity [G, F, F]" in out
    code, out, _ = invoke(capsys, "analyze", str(path))
    assert code == 1 and "2 violation(s)" in out


@pytest.mark.parametrize("command", ["validate", "lint", "analyze"])
def test_huge_multiplicity_gets_a_verdict(capsys, tmp_path, command):
    # F∘F = 2^70·F, F∘G = G∘F = 2^70·G, G∘G = G: associative, sums up to 2^140
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(three_morph_doc(2**70, 2**70)), encoding="utf-8")
    code, out, err = invoke(capsys, command, str(path))
    assert code in (0, 2) and "Traceback" not in err
    if command == "validate":
        assert (code, out) == (0, "valid (0 violations)\n")


def test_lint_reports_the_violation_total(capsys, tmp_path):
    doc = _sl2_doc()
    # a star that fixes a morph between different objects breaks star-ends
    doc["morphisms"] += [{"label": f"X{i}", "src": "i", "tgt": "j"} for i in range(24)]
    doc["star"].update({f"X{i}": f"X{i}" for i in range(24)})
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    total = len(validate(load_multicat(path)).violations)
    assert total > 20
    code, out, _ = invoke(capsys, "lint", "--json", str(path))
    assert code == 2
    validity = json.loads(out)["lint"]["checks"][0]
    assert validity["check"] == "validity" and len(validity["witnesses"]) == 21
    assert validity["witnesses"][-1] == f"… {total} violations in total (showing 20)"
    code, out, _ = invoke(capsys, "lint", "--json", str(FIXTURES / "nonassoc.json"))
    witnesses = json.loads(out)["lint"]["checks"][0]["witnesses"]
    assert witnesses and not any("in total" in w for w in witnesses)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


# the document each command reads, and its arguments before the path; the
# table commands read it from stdin ("-"), the others from a file
_FUZZED = {
    "validate": (GOLDEN / "sl2.json", ["validate"]),
    "lint": (GOLDEN / "sl2.json", ["lint"]),
    "analyze": (GOLDEN / "sl2.json", ["analyze"]),
    "cells": (GOLDEN / "sl2.json", ["cells"]),
    "order": (GOLDEN / "sl2.json", ["order"]),
    "annihilator": (GOLDEN / "sl2.json", ["annihilator", "--morph", "1_i"]),
    "gen ca": (FIXTURES / "cartan_12.json", ["gen", "ca", "--cartan"]),
    "bimod realize-ca": (FIXTURES / "algebras_qd.json", ["bimod", "realize-ca", "--algebras"]),
    "bimod hom": (FIXTURES / "bimod_f.json",
                  ["bimod", "hom", "--n", str(FIXTURES / "bimod_f.json"), "--m"]),
}
_STDIN_COMMANDS = {"validate", "lint", "analyze", "cells", "order", "annihilator"}


# capsys, monkeypatch and tmp_path are shared by the examples; each invoke
# re-reads capsys, and each example re-sets stdin or rewrites the one file.
# 340 examples over 9 commands keep about 150 on validate, lint, analyze and cells.
@settings(max_examples=340, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(_FUZZED)))
def test_fuzzed_documents_never_crash(capsys, monkeypatch, tmp_path, data, command):
    source, argv = _FUZZED[command]
    doc = json.loads(source.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(_json_values)
        if path:
            _set(list(path), value)(doc)
        else:
            doc = value
    if command in _STDIN_COMMANDS:
        code, _, err = invoke_stdin(capsys, monkeypatch, json.dumps(doc), *argv, "-")
    else:
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke(capsys, *argv, str(target))
    assert code in (0, 1, 2) and "Traceback" not in err
