"""
Differential pins: what every reader returns on a fixed, seeded corpus
of tables, hashed and compared with ``tests/golden/differential_pins.json``.

A refactor that keeps behaviour keeps every pin.  A change that moves a
pin on purpose regenerates the file with

    PYTHONPATH=src python tests/test_differential.py --regenerate

and states in CHANGES.md which readers changed, on which tables, and why.

The corpus is every fixture and golden table, the Hecke tables of S2 to
S4, and seeded ``make_CA`` tables, most of them mutated.  Each table is
read twice, each time on a fresh copy: never validated (its cells read
every composite) and validated first (a valid table's cells read only
the composites with a generator).  A reader that raises is hashed by
its error's type and message.  The file keeps one sha256 per reader
over the whole corpus, and a short digest per table and reader, so a
failure names the first table and reader that differ.
"""

import functools
import hashlib
import json
import pathlib
import pickle
import random
import sys

from fiatcells import (
    MultiCat,
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
    make_hecke,
    multicat_to_document,
    random_cartan_data,
    render_analyze_text,
    serialize_multicat,
    validate,
    verify_order_factorization,
)
from fiatcells.cells import KINDS, preorder_closure
from fiatcells.report import report_analyze

from conftest import GOLDEN, stored_tables

PINS = GOLDEN / "differential_pins.json"
MODES = ("never validated", "validated first")


# ---------------------------------------------------------------------------
# the corpus: fixed once, with its seeds


def mutated(doc: dict, rng: random.Random) -> dict:
    """``doc`` with one to three seeded changes, each one of: a
    multiplicity bumped, a summand dropped, a star image moved to any
    morph, a stored entry with an identity in it (against the unit law),
    a stored entry of a pair that does not compose, an extra summand."""
    doc = json.loads(json.dumps(doc))
    morphs, compose = doc["morphisms"], doc["compose"]
    labels = [m["label"] for m in morphs]
    stored = {(e["g"], e["f"]) for e in compose}
    for _ in range(rng.randint(1, 3)):
        change = rng.randrange(6)
        entry = rng.choice(compose) if compose else {"out": []}
        if change == 0 and entry["out"]:
            rng.choice(entry["out"])["mult"] += 1
        elif change == 1 and entry["out"]:
            entry["out"].pop(rng.randrange(len(entry["out"])))
        elif change == 2:
            doc["star"][rng.choice(labels)] = rng.choice(labels)
        elif change == 5 and compose:
            present = {t["m"] for t in entry["out"]}
            fresh = [lab for lab in labels if lab not in present]
            if fresh:
                entry["out"].append({"m": rng.choice(fresh), "mult": rng.randint(1, 3)})
        else:
            g, f = rng.choice(morphs), rng.choice(morphs)
            if change == 3:  # an identity after f
                g = next(m for m in morphs if m.get("identity") and m["src"] == f["tgt"])
            if (g["label"], f["label"]) not in stored and (change == 3 or g["src"] != f["tgt"]):
                stored.add((g["label"], f["label"]))
                out = [{"m": rng.choice(labels), "mult": rng.randint(1, 3)}]
                compose.append({"g": g["label"], "f": f["label"], "out": out})
    return doc


@functools.lru_cache(maxsize=None)
def corpus() -> list[tuple[str, MultiCat]]:
    """(name, table) pairs, built once: every reading is on a fresh copy."""
    tables = stored_tables() + [(f"hecke{n}", make_hecke(n)) for n in (2, 3, 4)]
    rng = random.Random(27)
    for i in range(300):
        sizes = rng.choice([(2, 2, 2), (3, 3, 3), (2, 3, 2), (1, 4, 3)])
        doc = multicat_to_document(make_CA(random_cartan_data(rng, *sizes)))
        if i % 5 == 0:
            tables.append((f"make_CA {i}", load_multicat(doc)))
            continue
        tables.append((f"make_CA {i}, mutated", load_multicat(mutated(doc, rng))))
    return tables


# ---------------------------------------------------------------------------
# the readers, each returning text


def _call(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, IndexError, KeyError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def _partition(cat, kind):
    part = cells(cat, kind)
    return ([sorted(c) for c in part.classes], sorted(part.class_of.items()),
            part.order_edges, sorted(part.closure))


def _reach(cat, kind):
    reach = preorder_closure(cat, kind)
    return [sorted(reach[v]) for v in range(len(cat.morphs))]


def _factorization(cat):
    ok, witness = verify_order_factorization(cat)
    return ok, witness and [m.label for m in witness]


def _classes(cat):
    """Two-sided class indices, one past the end included."""
    return range(len(cells(cat, "two-sided").classes) + 1)


def _right_classes(cat):
    return range(len(cells(cat, "right").classes) + 1)


def _m_table(cat, q):
    table = m_table(cat, q)
    return table.cell, sorted(table.m.items()), sorted(table.duflo.items())


def _blocks(blocks):
    return [(b.right_cell, b.target_object, [m.label for m in b.basis], b.matrix) for b in blocks]


def _cartan_blocks(cat, q):
    return sorted((rc, _blocks(blocks)) for rc, blocks in cartan_blocks(cat, q).items())


def _subcategory(cat, q):
    sub, discarded = cell_subcategory(cat, q)
    return serialize_multicat(sub), discarded


def _m_coeffs(cat):
    """m_coeff on the first six members of each class, squared, and on
    one pair across two classes."""
    classes = cells(cat, "two-sided").classes
    pairs = [(f, h) for c in classes for f in sorted(c)[:6] for h in sorted(c)[:6]]
    if len(classes) > 1:
        pairs.append((min(classes[0]), min(classes[-1])))
    out = []
    for f, h in pairs:
        got = _call(m_coeff, cat, cat.morphs[f], cat.morphs[h])
        out.append(got if isinstance(got, str) else (got[0] and got[0].label, got[1]))
    return out


def _report(cat):
    doc = _call(report_analyze, cat)
    return doc if isinstance(doc, str) else json.dumps(doc)


def _rendered(cat):
    doc = _call(report_analyze, cat)
    return doc if isinstance(doc, str) else render_analyze_text(doc)


# in reading order: the cells before anything that validates the table
READERS = [
    ("table", serialize_multicat),
    *((f"partition {kind}", lambda cat, kind=kind: _partition(cat, kind)) for kind in KINDS),
    *((f"preorder_closure {kind}", lambda cat, kind=kind: _reach(cat, kind)) for kind in KINDS),
    ("verify_order_factorization", _factorization),
    ("classify_two_sided", lambda cat: [_call(classify_two_sided, cat, q) for q in _classes(cat)]),
    ("m_table", lambda cat: [_call(_m_table, cat, q) for q in _classes(cat)]),
    ("check_left_cell_constancy",
     lambda cat: [_call(check_left_cell_constancy, cat, q) for q in _classes(cat)]),
    ("cartan_blocks", lambda cat: [_call(_cartan_blocks, cat, q) for q in _classes(cat)]),
    ("cell_subcategory", lambda cat: [_call(_subcategory, cat, q) for q in _classes(cat)]),
    ("duflo_element",
     lambda cat: [_call(lambda rc: duflo_element(cat, rc).label, rc) for rc in _right_classes(cat)]),
    ("cartan_matrix", lambda cat: [
        _call(lambda rc, obj: _blocks([cartan_matrix(cat, rc, obj)]), rc, obj)
        for rc in _right_classes(cat) for obj in range(len(cat.objects) + 1)]),
    ("m_coeff", _m_coeffs),
    ("report_analyze json", _report),
    ("report_analyze text", _rendered),
    ("fiat_lint", lambda cat: str(fiat_lint(cat))),
    ("validate", lambda cat: str(validate(cat))),
]
NAMES = [name for name, _ in READERS]


def readings(table, validated: bool) -> list[str]:
    """Every reader's text on a fresh copy of ``table``, in READERS order."""
    copy = pickle.loads(pickle.dumps(table))
    if validated:
        validate(copy)
    out = []
    for _, reader in READERS:
        got = _call(reader, copy)
        out.append(got if isinstance(got, str) else repr(got))
    return out


def digests() -> tuple[dict[str, str], dict[str, str]]:
    """The pin of each reader, and each table's short digests per mode."""
    pins = [hashlib.sha256() for _ in READERS]
    per_table = {}
    for name, table in corpus():
        for mode, validated in zip(MODES, (False, True)):
            short = []
            for pin, text in zip(pins, readings(table, validated)):
                digest = hashlib.sha256(text.encode()).hexdigest()
                pin.update(digest.encode())
                short.append(digest[:8])
            per_table[f"{name} | {mode}"] = " ".join(short)
    return {name: pin.hexdigest() for name, pin in zip(NAMES, pins)}, per_table


def test_every_reader_keeps_its_pin():
    want = json.loads(PINS.read_text(encoding="utf-8"))
    assert want["readers"] == NAMES, "the reader list changed: regenerate the pins"
    pins, per_table = digests()
    assert list(per_table) == list(want["tables"]), "the corpus changed: regenerate the pins"
    for table, short in per_table.items():
        for name, got, expected in zip(NAMES, short.split(), want["tables"][table].split()):
            assert got == expected, f"{name} differs first on {table}"
    assert pins == want["pins"]


def test_the_corpus_mixes_valid_and_broken_tables():
    tables = [table for _, table in corpus()]
    broken = sum(not validate(pickle.loads(pickle.dumps(t))).ok for t in tables)
    assert len(tables) > 300 and len(tables) // 3 < broken < len(tables) - 40, broken


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    pins, per_table = digests()
    text = json.dumps({"readers": NAMES, "pins": pins, "tables": per_table}, indent=1)
    PINS.write_text(text + "\n", encoding="utf-8")
