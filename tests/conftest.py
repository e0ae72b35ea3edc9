import functools
import gc
import json
import pathlib
import random

import pytest

from fiatcells import (
    CartanData,
    load_multicat,
    make_CA,
    make_hecke,
    make_s2,
    make_sl2_singular,
    random_cartan_data,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the garbage collector disabled: the table
    loaders pause it and must give it back."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the garbage collector disabled")


@pytest.fixture(scope="session")
def s2():
    return make_s2()


@pytest.fixture(scope="session")
def sl2():
    return make_sl2_singular()


@pytest.fixture(scope="session")
def hecke3():
    return make_hecke(3)


@pytest.fixture(scope="session")
def hecke4():
    return make_hecke(4)


@functools.lru_cache(maxsize=None)
def realized(fixture: str):
    """``realize_CA`` of an algebra fixture, computed once per session."""
    from fiatcells import load_algebras, realize_CA

    return realize_CA(load_algebras(FIXTURES / fixture))


ALGEBRA_FIXTURES = sorted(p.name for p in FIXTURES.glob("algebra*.json"))


def corpus_cats():
    """The table corpus for the universally quantified property suite."""
    cats = [
        ("s2", make_s2()),
        ("sl2", make_sl2_singular()),
        ("ca_1_2", make_CA([[1]], [[2]])),
        ("ca_2", make_CA([[2]])),
        ("ca_2x2", make_CA([[2, 1], [1, 2]])),
        ("ca_mixed", make_CA([[1, 1], [1, 2]], [[3]])),
        ("hecke2", make_hecke(2)),
        ("hecke3", make_hecke(3)),
        ("hecke4", make_hecke(4)),
    ]
    rng = random.Random(20250810)
    for i in range(6):
        cats.append((f"ca_random_{i}", make_CA(random_cartan_data(rng))))
    return cats


_CORPUS = None


def stored_tables():
    """Every table among the fixtures and goldens; Cartan data via make_CA."""
    tables = []
    for path in sorted(FIXTURES.glob("*.json")) + sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "compose" in doc:
            tables.append((path.name, load_multicat(doc)))
        elif "components" in doc:
            tables.append((path.name, make_CA(CartanData(doc["components"]))))
    return tables


def three_morph_doc(mult_ff: int, mult_fg: int) -> dict:
    """F∘F = mult_ff·F, F∘G = G∘F = mult_fg·G, G∘G = G on one object.

    Associative iff mult_ff == mult_fg; otherwise exactly (F,F,G) and
    (G,F,F) fail, since (F∘F)∘G = mult_ff·mult_fg·G but F∘(F∘G) =
    mult_fg²·G.
    """
    return {
        "objects": ["i"],
        "morphisms": [
            {"label": "1_i", "src": "i", "tgt": "i", "identity": True},
            {"label": "F", "src": "i", "tgt": "i"},
            {"label": "G", "src": "i", "tgt": "i"},
        ],
        "star": {},
        "compose": [
            {"g": "F", "f": "F", "out": [{"m": "F", "mult": mult_ff}]},
            {"g": "F", "f": "G", "out": [{"m": "G", "mult": mult_fg}]},
            {"g": "G", "f": "F", "out": [{"m": "G", "mult": mult_fg}]},
            {"g": "G", "f": "G", "out": [{"m": "G", "mult": 1}]},
        ],
    }


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = corpus_cats()
    return _CORPUS
