"""Seeded workload inputs.

Everything here is benchmark code: it never imports fiatcells, so the
program under test sees only the finished inputs.  ``BUILDERS`` maps each
workload to the function that makes one pass of its inputs from a seed.
The same seed gives byte-identical inputs; another seed gives different
ones that ask for the same work: renumbered vertices, shuffled declaration
and basis orders, another command order (and other Cartan data for the one
`gen ca` command).
"""

from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the uncompressed `fiatcells gen hecke --n 5` / `--n 3` output
HECKE5_SHA256 = "22ff2d38993097d6f6d385de94f3d8b02eba3ff344afb4051a60e8a9b97a8c3e"
HECKE3_SHA256 = "ff5314c71850e517bf214291190e7bf318ccde101999b504ed3d62dd056f52cd"


class DigestMismatch(RuntimeError):
    """A stored input no longer has the digest the benchmark pins."""


def read_pinned(name: str, sha256: str) -> str:
    path = DATA / name
    raw = path.read_bytes()
    if name.endswith(".gz"):
        raw = gzip.decompress(raw)
    digest = hashlib.sha256(raw).hexdigest()
    if digest != sha256:
        raise DigestMismatch(
            f"{path}: sha256 {digest} does not match the pinned {sha256}; "
            "the stored input was changed or corrupted"
        )
    return raw.decode("utf-8")


def shuffled_table_text(doc: dict, rng: random.Random) -> str:
    """An isomorphic copy of a table document: same labels, new orders."""
    morphisms = list(doc["morphisms"])
    rng.shuffle(morphisms)
    star_keys = list(doc["star"])
    rng.shuffle(star_keys)
    compose = []
    for entry in doc["compose"]:
        out = list(entry["out"])
        rng.shuffle(out)
        compose.append({"g": entry["g"], "f": entry["f"], "out": out})
    rng.shuffle(compose)
    shuffled = {
        "objects": list(doc["objects"]),
        "morphisms": morphisms,
        "star": {k: doc["star"][k] for k in star_keys},
        "compose": compose,
    }
    return json.dumps(shuffled, ensure_ascii=False)


# ---------------------------------------------------------------------------
# cartan-sweep

# Acceptance criterion 3 draws 1-3 components of 1-3 vertices each with
# entries up to 3.  The sweep holds every ordered shape in proportion to its
# probability (weight 9, 3, 1 for one, two, three components: 81 tables),
# with entries drawn once from a fixed corpus seed.  The run seed renumbers
# vertices and components and reorders tables and declarations, which gives
# isomorphic tables: runs of different seeds do the same work, so their
# spread is the host's and the program's, not the draw's.
CARTAN_SHAPES = [
    shape
    for c, weight in ((1, 9), (2, 3), (3, 1))
    for shape in itertools.product((1, 2, 3), repeat=c)
    for _ in range(weight)
]
MAX_ENTRY = 3


def random_component(rng: random.Random, k: int) -> list[list[int]]:
    """Symmetric, positive diagonal, connected along a random spanning path."""
    mat = [[0] * k for _ in range(k)]
    for a in range(k):
        mat[a][a] = rng.randint(1, MAX_ENTRY)
        for b in range(a + 1, k):
            mat[a][b] = mat[b][a] = rng.randint(0, MAX_ENTRY)
    order = list(range(k))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        if mat[a][b] == 0:
            mat[a][b] = mat[b][a] = rng.randint(1, MAX_ENTRY)
    return mat


def ca_document(components: list[list[list[int]]]) -> dict:
    """The projective-functor table of Cartan data, by the closed formula.

    Morph P[f,e] runs from the component of e to the component of f, star
    swaps the indices, P[f,e]∘P[f',e'] = c(e,f')·P[f,e'], and a 1x1
    component [[1]] has its identity merged with its only projective.
    """
    comp_of, local = [], []
    for t, comp in enumerate(components):
        comp_of += [t] * len(comp)
        local += list(range(len(comp)))
    nv = len(comp_of)
    objects = [f"t{t + 1}" for t in range(len(components))]
    merged = {t for t, comp in enumerate(components) if comp == [[1]]}

    def label(f: int, e: int) -> str:
        if f == e and comp_of[f] in merged:
            return f"1_{objects[comp_of[f]]}"
        return f"P[v{f},v{e}]"

    def is_unit(f: int, e: int) -> bool:
        return f == e and comp_of[f] in merged

    morphisms = [
        {"label": f"1_{objects[t]}", "src": objects[t], "tgt": objects[t], "identity": True}
        for t in range(len(components))
        if t not in merged
    ]
    star = {m["label"]: m["label"] for m in morphisms}
    compose = []
    for f, e in itertools.product(range(nv), repeat=2):
        spec = {"label": label(f, e), "src": objects[comp_of[e]], "tgt": objects[comp_of[f]]}
        if is_unit(f, e):
            spec["identity"] = True
        morphisms.append(spec)
        star[label(f, e)] = label(e, f)
        if is_unit(f, e):
            continue
        for f2 in range(nv):
            if comp_of[f2] != comp_of[e]:
                continue
            c = components[comp_of[e]][local[e]][local[f2]]
            for e2 in range(nv):
                if c and not is_unit(f2, e2):
                    compose.append(
                        {"g": label(f, e), "f": label(f2, e2), "out": [{"m": label(f, e2), "mult": c}]}
                    )
    return {"objects": objects, "morphisms": morphisms, "star": star, "compose": compose}


def expected_m_diagonal(components: list[list[list[int]]]) -> dict[str, int]:
    """Criterion 3's rule: m[P[f,e], P[f,e]] is the Cartan diagonal c(f,f);
    every identity has m = 1."""
    diagonal = [comp[a][a] for comp in components for a in range(len(comp))]
    doc = ca_document(components)
    out = {}
    for m in doc["morphisms"]:
        lab = m["label"]
        out[lab] = 1 if lab.startswith("1_") else diagonal[int(lab[3:].split(",")[0])]
    return out


def renumbered(components: list, rng: random.Random) -> list:
    """The same Cartan data with vertices and components in a new order."""
    out = []
    for comp in components:
        perm = list(range(len(comp)))
        rng.shuffle(perm)
        out.append([[comp[a][b] for b in perm] for a in perm])
    rng.shuffle(out)
    return out


def cartan_sweep(seed: int) -> list[dict]:
    """One pass: 81 tables, each {"components", "text"}, in seeded order."""
    corpus_rng = random.Random("cartan-sweep/corpus")
    corpus = [[random_component(corpus_rng, k) for k in shape] for shape in CARTAN_SHAPES]
    rng = random.Random(f"cartan-sweep/{seed}")
    rng.shuffle(corpus)
    tables = []
    for components in corpus:
        components = renumbered(components, rng)
        text = shuffled_table_text(ca_document(components), rng)
        tables.append({"components": components, "text": text})
    return tables


# ---------------------------------------------------------------------------
# hecke5-analyze


def hecke5_analyze(seed: int) -> list[dict]:
    """One input: the S5 table as {"text"}, in seeded declaration order."""
    doc = json.loads(read_pinned("hecke5.json.gz", HECKE5_SHA256))
    return [{"text": shuffled_table_text(doc, random.Random(f"hecke5-analyze/{seed}"))}]


# ---------------------------------------------------------------------------
# oracles

ALGEBRAS = {
    # name: (basis labels, products of non-unit basis elements, Cartan pairing)
    "Q": (["1"], {}, [[1]]),
    "D": (["1", "x"], {}, [[2]]),
    "T3": (["1", "x", "x2"], {("x", "x"): "x2"}, [[3]]),
}


def algebra_document(name: str, rng: random.Random) -> dict:
    """A truncated polynomial algebra with its basis labels in seeded order."""
    basis, products, _ = ALGEBRAS[name]
    basis = list(basis)
    rng.shuffle(basis)
    mult = []
    for a, b in itertools.product(basis, repeat=2):
        if a == "1" or b == "1":
            out = {b if a == "1" else a: 1}
        else:
            out = {products[(a, b)]: 1} if (a, b) in products else {}
        mult.append({"a": a, "b": b, "out": out})
    return {"name": name, "basis": basis, "unit": "1", "mult": mult, "idempotents": ["1"]}


def realize_step(names: tuple[str, ...], rng: random.Random) -> dict:
    return {
        "op": "realize_ca",
        "name": "+".join(names),
        "algebras": [algebra_document(n, rng) for n in names],
        "cartan": [ALGEBRAS[n][2] for n in names],
    }


def oracles(seed: int) -> list[dict]:
    """One pass: three ops, each a list of steps run in one fresh worker.

    The Hecke op is a cold make_hecke(4) followed by the certificate and
    the RS check on it; the small bimodule steps share an op so that no
    op's time is a few milliseconds of process start-up noise.
    """
    rng = random.Random(f"oracles/{seed}")
    ops = [
        {"op": "hecke4", "steps": [{"op": "gen_hecke", "n": 4}, {"op": "bar_invariance", "n": 4},
                                   {"op": "rs_cell_check", "n": 4}]},
        {"op": "bimodule", "steps": [realize_step(("Q", "D"), rng), realize_step(("D",), rng),
                                     {"op": "verify_quiver"}]},
        {"op": "bimodule-x3", "steps": [realize_step(("T3",), rng)]},
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli


def cli(seed: int) -> list[dict]:
    """About twenty small commands; each has argv, optional stdin and a check.

    ``check`` names a rule in checks.CLI_CHECKS; goldens are read from
    tests/golden of the checkout at check time.
    """
    rng = random.Random(f"cli/{seed}")
    sl2, s2 = "tests/golden/sl2.json", "tests/golden/s2.json"
    fx = "tests/fixtures/"
    hecke3 = shuffled_table_text(json.loads(read_pinned("hecke3.json", HECKE3_SHA256)), rng)
    shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    cartan = [random_component(rng, k) for k in shape]
    commands = [
        (["gen", "s2"], None, 0, ("golden", "s2.json")),
        (["gen", "sl2"], None, 0, ("golden", "sl2.json")),
        (["gen", "ca", "--cartan", "-"], json.dumps({"components": cartan}), 0,
         ("ca_table", cartan)),
        (["gen", "hecke", "--n", "3"], None, 0, ("hecke3_table", None)),
        (["validate", sl2], None, 0, ("equals", "valid (0 violations)\n")),
        (["cells", "--kind", "right", s2], None, 0, ("golden", "cells_s2_right.txt")),
        (["order", "--kind", "two-sided", sl2], None, 0, ("equals", "0 < 1\n")),
        (["annihilator", "--morph", "1_i", s2], None, 0,
         ("equals", "annihilator of L(1_i): F\n")),
        (["analyze", sl2], None, 0, ("golden", "analyze_sl2.txt")),
        (["lint", sl2], None, 0, ("golden", "lint_sl2.txt")),
        (["validate", "-"], hecke3, 0, ("equals", "valid (0 violations)\n")),
        (["cells", "--kind", "left", "-"], hecke3, 0, ("class_lines", 4)),
        (["analyze", "-"], hecke3, 0, ("contains", ["verdict: all checks pass"])),
        (["lint", "-"], hecke3, 0, ("contains", ["verdict: all checks pass"])),
        (["validate", fx + "nonassoc.json"], None, 2, ("contains", ["associativity"])),
        (["lint", fx + "nonassoc.json"], None, 2, ("contains", ["validity: FAIL", "associativity ["])),
        (["lint", fx + "badstar.json"], None, 2, ("contains", ["validity: FAIL", "star-anti-automorphism ["])),
        (["lint", fx + "unequal_m.json"], None, 2,
         ("contains", ["m-divisibility: FAIL", "left-cell-constancy: FAIL"])),
        (["analyze", fx + "unequal_m.json"], None, 2,
         ("contains", ["verdict: fiat-certified-impossible"])),
        (["klpoly", "--n", "4", "--x", "1 3 2 4", "--w", "3 4 1 2"], None, 0,
         ("equals", "P[1 3 2 4 ; 3 4 1 2] = 1 + q\n")),
        (["rs", "--perm", "3 1 2"], None, 0, ("equals", "P:\n  1 2\n  3\nQ:\n  1 3\n  2\n")),
        (["bimod", "verify-quiver"], None, 0, ("quiver", None)),
    ]
    ops = [
        {"argv": argv, "stdin": stdin, "exit": code, "check": list(check)}
        for argv, stdin, code, check in commands
    ]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "cartan-sweep": cartan_sweep,
    "hecke5-analyze": hecke5_analyze,
    "oracles": oracles,
    "cli": cli,
}
