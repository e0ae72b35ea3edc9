"""
Finite based categories with involution, given by multiplicity tables.

A :class:`MultiCat` records the split data of such a category: a finite
set of objects, a finite set of indecomposable 1-morphisms with sources
and targets (one identity per object), the multiset of indecomposable
summands of every composite, and an involution ``star`` that reverses
composition.  Multiplicities are plain Python integers (arbitrary
precision); nothing in this module ever touches floating point.

The composite of two morphisms is a *multiset* of morphisms, stored as a
``dict`` from morph index to positive multiplicity.  An absent key means
multiplicity zero, and the empty dict is the zero composite (legal: cell
quotients produce it).

Tables are interchanged as JSON documents::

    {
      "objects": ["i", ...],
      "morphisms": [{"label": "F", "src": "i", "tgt": "i", "identity": false}, ...],
      "star": {"F": "F", ...},
      "compose": [{"g": "F", "f": "F", "out": [{"m": "F", "mult": 2}]}, ...]
    }

Unit-law entries may be omitted; ``compose`` resolves identities by the
unit law without a table lookup.  The serializer emits keys in
declaration order with two-space indentation, UTF-8 and LF line endings,
so canonical documents round-trip bit-exactly.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .analysis import CellAnalysis
    from .cells import _CellStructure

__all__ = [
    "ObjectId",
    "MorphId",
    "MultiCat",
    "NotComposableError",
    "TableFormatError",
    "Violation",
    "ValidationReport",
    "load_multicat",
    "parse_multicat",
    "multicat_from_document",
    "multicat_to_document",
    "serialize_multicat",
    "compose",
    "validate",
]

class TableFormatError(ValueError):
    """Raised when an interchange document cannot be resolved to a table."""


class NotComposableError(ValueError):
    """Raised when a composite of morphisms with mismatched ends is requested."""


@dataclass(frozen=True)
class ObjectId:
    index: int
    label: str


@dataclass(frozen=True)
class MorphId:
    index: int
    label: str
    src: ObjectId
    tgt: ObjectId
    is_identity: bool = False

    def __repr__(self) -> str:
        return f"MorphId({self.label!r}: {self.src.label}->{self.tgt.label})"


@dataclass(frozen=True)
class Violation:
    """One broken law, with the witnessing morphisms."""

    law: str
    witness: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        w = ", ".join(self.witness)
        return f"{self.law} [{w}]: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """The violations :func:`validate` found, in its order; read-only, as
    it is cached on its table."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def laws(self) -> list[str]:
        return sorted({v.law for v in self.violations})

    def __str__(self) -> str:
        if self.ok:
            return "valid (0 violations)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


class _Validation(NamedTuple):
    """What :func:`validate` caches on a table: its report, and the
    generating set S with which the associativity kernel certified the
    table (``fiatcells._kernel``), as a tuple of morph indices.  The cell
    preorders read S when the report is ``ok``; S is empty when neither
    kernel ran."""

    report: ValidationReport
    generating_set: tuple[int, ...]


class MultiCat:
    """Immutable multiplicity table; all operations on it are pure.

    ``table`` holds the stored compose entries keyed by morph index
    pairs ``(g, f)`` meaning the composite g∘f (g applied after f);
    identities are resolved by the unit law and never consulted in the
    table.  ``table`` and its composites are read-only mappings, and
    ``objects``, ``morphs`` and ``star_map`` are tuples, so the derived
    data cached on the table can never go stale.  The table owns the
    composite dicts passed in: they are wrapped, not copied, so the
    caller passes fresh dicts and never changes them afterwards.
    """

    def __init__(
        self,
        objects: list[ObjectId],
        morphs: list[MorphId],
        star: list[int],
        table: dict[tuple[int, int], dict[int, int]],
    ):
        self.objects = tuple(objects)
        self.morphs = tuple(morphs)
        self.star_map = tuple(star)
        self._entries = {gf: MappingProxyType(out) for gf, out in table.items()}
        self.table = MappingProxyType(self._entries)
        self._by_label = {m.label: m for m in morphs}
        self._identity_of = {}
        for m in morphs:
            if m.is_identity:
                self._identity_of[m.src.index] = m
        # each morph's ends and identity flag by index, read by every pass
        # over the composites
        self._src = tuple(m.src.index for m in morphs)
        self._tgt = tuple(m.tgt.index for m in morphs)
        self._is_identity = tuple(m.is_identity for m in morphs)
        # derived data, each computed on first use by _derived: the cell
        # structure, the validation report with its generating set, and
        # the cell analysis; _analysis is bound last (see __setattr__)
        self._cells: _CellStructure | None = None
        self._validation: _Validation | None = None
        self._analysis: CellAnalysis | None = None

    def __setattr__(self, name: str, value) -> None:
        # every attribute is bound in __init__; the caches are filled by _derived
        if hasattr(self, "_analysis"):
            raise AttributeError(f"MultiCat is read-only; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"MultiCat is read-only; cannot delete {name!r}")

    # -- lookups ---------------------------------------------------------

    def morph(self, label: str) -> MorphId:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"no morphism labelled {label!r}") from None

    def identity(self, obj: ObjectId | int) -> MorphId:
        idx = obj.index if isinstance(obj, ObjectId) else obj
        return self._identity_of[idx]

    def star(self, m: MorphId) -> MorphId:
        return self.morphs[self.star_map[m.index]]

    def composable(self, g: int, f: int) -> bool:
        return self._src[g] == self._tgt[f]

    # -- composition -----------------------------------------------------

    def compose_idx(self, g: int, f: int) -> dict[int, int]:
        """Summands of g∘f by morph index; unit law applied without lookup."""
        if self._src[g] != self._tgt[f]:
            raise self._not_composable(g, f)
        if self._is_identity[g]:
            return {f: 1}
        if self._is_identity[f]:
            return {g: 1}
        return self._entries.get((g, f), {})

    def _not_composable(self, g: int, f: int) -> NotComposableError:
        """The error for g∘f when src(g) != tgt(f)."""
        gm, fm = self.morphs[g], self.morphs[f]
        return NotComposableError(
            f"cannot compose {gm.label} after {fm.label}: "
            f"src({gm.label})={gm.src.label} != tgt({fm.label})={fm.tgt.label}"
        )

    def compose(self, g: MorphId, f: MorphId) -> dict[MorphId, int]:
        return {self.morphs[k]: c for k, c in self.compose_idx(g.index, f.index).items()}

    def _derived(self, name: str, build):
        """The cache ``name``, filled with ``build(self)`` on first use."""
        value = getattr(self, name)
        if value is None:
            value = build(self)
            object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        # read-only mappings do not pickle; a copy rebuilds them and its caches
        table = {gf: dict(out) for gf, out in self._entries.items()}
        return MultiCat, (self.objects, self.morphs, self.star_map, table)

    # -- equality (structural, label-sensitive) ---------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiCat):
            return NotImplemented
        return multicat_to_document(self) == multicat_to_document(other)

    def __repr__(self) -> str:
        return (
            f"MultiCat({len(self.objects)} objects, {len(self.morphs)} morphs, "
            f"{len(self.table)} stored composites)"
        )


def compose(cat: MultiCat, g: MorphId, f: MorphId) -> dict[MorphId, int]:
    """Multiset of indecomposable summands of ``g∘f``."""
    return cat.compose(g, f)


# ---------------------------------------------------------------------------
# construction helpers


def _multicat(
    object_labels: list[str],
    morph_specs: list[tuple[str, int, int, bool]],
    star: list[int],
    table: dict[tuple[int, int], dict[int, int]],
) -> MultiCat:
    """A MultiCat from index-level data: the one builder of tables.

    ``morph_specs`` rows are ``(label, src, tgt, is_identity)`` with
    object indices; ``star`` and ``table`` are by morph index, as in
    :class:`MultiCat`, which takes ownership of the composite dicts of
    ``table``.  Nothing is resolved or checked here.  The
    constructors call it with data they built themselves, and it is the
    last step of :func:`multicat_from_document`, which checks a
    document from outside and resolves its labels to indices first.
    """
    objects = [ObjectId(i, lab) for i, lab in enumerate(object_labels)]
    morphs = [
        MorphId(i, lab, objects[s], objects[t], ident)
        for i, (lab, s, t, ident) in enumerate(morph_specs)
    ]
    return MultiCat(objects, morphs, star, table)


_JSON_TYPES = {
    dict: "object", list: "array", str: "string", bool: "boolean",
    int: "integer", float: "number", type(None): "null",
}


def _expect(value, kind: type, where: str):
    """``value`` itself if it has the JSON type ``kind``; else a format error at ``where``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise TableFormatError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {got}")
    return value


def _field(doc: dict, key: str, where: str = ""):
    """``doc[key]``; else a format error naming the object at ``where`` ('' for the root)."""
    if key not in doc:
        raise TableFormatError(f"{where + ': ' if where else ''}missing field {key!r}")
    return doc[key]


def _dangling(label, where: str) -> TableFormatError:
    """The format error for a morph reference at ``where`` that names no morph."""
    _expect(label, str, where)
    return TableFormatError(f"{where}: dangling morphism reference {label!r}")


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector; the caller's state, enabled or
    disabled, is restored on return and on error.

    Parsing and resolving a document allocate tens of thousands of
    containers (~72 k for the S5 Hecke table) and no reference cycle,
    so each collection those allocations set off walks them and finds
    nothing: reference counting frees them all.  Used as a decorator on
    the public loaders, as Mercurial's ``util.nogc`` is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def multicat_from_document(doc: dict) -> MultiCat:
    """Resolve an interchange document into a MultiCat.

    Axioms are NOT checked here (see :func:`validate`); only the JSON
    types of the fields and referential integrity: every label must
    resolve, each object carries exactly one identity, and
    multiplicities must be positive integers.  Each failure is a
    :class:`TableFormatError` naming the field path.  The checked table
    is built by :func:`_multicat` from its labels and indices.  The
    garbage collector is paused meanwhile, as in every public loader
    (see :func:`_gc_paused`).
    """
    _expect(doc, dict, "document root")
    for key in ("objects", "morphisms", "star", "compose"):
        _field(doc, key)
    object_labels = _expect(doc["objects"], list, "objects")
    if not object_labels:
        raise TableFormatError("no objects")
    for i, lab in enumerate(object_labels):
        _expect(lab, str, f"objects[{i}]")
    object_index = {lab: o for o, lab in enumerate(object_labels)}
    if len(object_index) != len(object_labels):
        raise TableFormatError("duplicate object label")

    specs: list[tuple[str, int, int, bool]] = []
    index: dict[str, int] = {}  # morph label -> index
    for i, spec in enumerate(_expect(doc["morphisms"], list, "morphisms")):
        _expect(spec, dict, f"morphisms[{i}]")
        for key in ("label", "src", "tgt"):
            _expect(_field(spec, key, f"morphisms[{i}]"), str, f"morphisms[{i}].{key}")
        lab = spec["label"]
        if index.setdefault(lab, i) != i:
            raise TableFormatError(f"morphisms[{i}]: duplicate morphism label {lab!r}")
        try:
            src, tgt = object_index[spec["src"]], object_index[spec["tgt"]]
        except KeyError as e:
            raise TableFormatError(
                f"morphisms[{i}] ({lab!r}): dangling object reference {e.args[0]!r}"
            ) from None
        is_identity = _expect(spec.get("identity", False), bool, f"morphisms[{i}].identity")
        specs.append((lab, src, tgt, is_identity))

    identities: list[list[str]] = [[] for _ in object_labels]
    for lab, src, tgt, is_identity in specs:
        if is_identity:
            identities[src].append(lab)
            if src != tgt:
                raise TableFormatError(f"identity morphism {lab!r} has src != tgt")
    for obj, got in zip(object_labels, identities):
        if not got:
            raise TableFormatError(f"object {obj!r} has no identity morphism")
        if len(got) > 1:
            raise TableFormatError(f"duplicate identity for object {obj!r}: {got}")

    # every morph reference below is one lookup in index; only a miss
    # builds its field path, in _dangling
    star_doc = _expect(doc["star"], dict, "star")
    star = []
    for lab in index:
        image = star_doc.get(lab, lab)
        try:
            star.append(index[image])
        except (KeyError, TypeError):
            raise _dangling(image, f"star[{lab!r}]") from None
    for lab in star_doc:
        if lab not in index:
            raise _dangling(lab, "star (key)")

    table: dict[tuple[int, int], dict[int, int]] = {}
    for i, entry in enumerate(_expect(doc["compose"], list, "compose")):
        if not (isinstance(entry, dict) and "g" in entry and "f" in entry and "out" in entry):
            for key in ("g", "f", "out"):
                _field(_expect(entry, dict, f"compose[{i}]"), key, f"compose[{i}]")
        g, f, terms = entry["g"], entry["f"], entry["out"]
        try:
            g = index[g]
        except (KeyError, TypeError):
            raise _dangling(g, f"compose[{i}].g") from None
        try:
            f = index[f]
        except (KeyError, TypeError):
            raise _dangling(f, f"compose[{i}].f") from None
        if (g, f) in table:
            raise TableFormatError(
                f"compose[{i}]: duplicate entry for ({specs[g][0]!r}, {specs[f][0]!r})"
            )
        if not isinstance(terms, list):
            _expect(terms, list, f"compose[{i}].out")
        out: dict[int, int] = {}
        for j, term in enumerate(terms):
            if not isinstance(term, dict):
                _expect(term, dict, f"compose[{i}].out[{j}]")
            # a missing "m" reads as None, which no label is
            m, mult = term.get("m"), term.get("mult", 1)
            try:
                k = index[m]
            except (KeyError, TypeError):
                _field(term, "m", f"compose[{i}].out[{j}]")
                raise _dangling(m, f"compose[{i}].out[{j}].m") from None
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise TableFormatError(f"compose[{i}].out[{j}]: multiplicity must be "
                                       f"a positive integer, got {mult!r}")
            if k in out:
                raise TableFormatError(f"compose[{i}].out[{j}]: repeated summand {m!r}")
            out[k] = mult
        table[(g, f)] = out
    return _multicat(object_labels, specs, star, table)


def _parse_json(text: str):
    """The JSON value of ``text``; malformed text is a TableFormatError with its position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise TableFormatError(f"parse error at line {e.lineno} col {e.colno}: {e.msg}") from None
    except ValueError as e:
        # an integer literal longer than the interpreter converts; the
        # advice after ";" is to raise that limit, which is not the user's fix
        raise TableFormatError(f"parse error: {str(e).partition(';')[0]}") from None
    except RecursionError:
        # the C decoder recurses once per level of nesting
        raise TableFormatError("parse error: nested too deeply") from None


def _load_json(source):
    """The JSON value read from a file object, from JSON text, or from a path.

    A string is JSON text when its first non-blank character opens a
    JSON object or array, and a path otherwise.
    """
    if hasattr(source, "read"):
        return _parse_json(source.read())
    if isinstance(source, str) and source.lstrip()[:1] in ("{", "["):
        return _parse_json(source)
    with open(source, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


@_gc_paused()
def parse_multicat(text: str) -> MultiCat:
    """Parse the JSON text of an interchange document into a MultiCat."""
    return multicat_from_document(_parse_json(text))


@_gc_paused()
def load_multicat(source) -> MultiCat:
    """Load a table from a parsed dict, a file object, a path, or JSON text.

    A string is read as JSON text when its first non-blank character
    opens a JSON object or array, and as a path otherwise; use
    :func:`parse_multicat` for text whatever it starts with.
    """
    return multicat_from_document(source if isinstance(source, dict) else _load_json(source))


def multicat_to_document(cat: MultiCat) -> dict:
    """Canonical interchange document: declaration order, unit entries omitted."""
    morphisms = []
    for m in cat.morphs:
        spec = {"label": m.label, "src": m.src.label, "tgt": m.tgt.label}
        if m.is_identity:
            spec["identity"] = True
        morphisms.append(spec)
    entries = [
        {
            "g": cat.morphs[g].label,
            "f": cat.morphs[f].label,
            "out": [{"m": cat.morphs[k].label, "mult": out[k]} for k in sorted(out)],
        }
        for g, f, out in _canonical_entries(cat)
    ]
    return {
        "objects": [o.label for o in cat.objects],
        "morphisms": morphisms,
        "star": {m.label: cat.morphs[cat.star_map[m.index]].label for m in cat.morphs},
        "compose": entries,
    }


def _canonical_entries(cat: MultiCat):
    """(g, f, g∘f) for each stored composite, sorted, unit-law entries left out."""
    for (g, f) in sorted(cat.table):
        out = cat.table[(g, f)]
        if cat.morphs[g].is_identity and out == {f: 1}:
            continue
        if cat.morphs[f].is_identity and out == {g: 1}:
            continue
        yield g, f, out


def _layout(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` lays it
    out at indent ``pad``, from its members' rendered text."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def serialize_multicat(cat: MultiCat) -> str:
    """Serialize to the canonical byte-stable JSON text (trailing newline).

    The text is ``json.dumps(multicat_to_document(cat), indent=2,
    ensure_ascii=False)`` plus the newline, written from the document's
    fixed layout with the C encoder for each label: with an indent,
    ``json.dumps`` runs its pure-Python encoder.
    """
    text = [json.dumps(m.label, ensure_ascii=False) for m in cat.morphs]
    objects = [json.dumps(o.label, ensure_ascii=False) for o in cat.objects]
    morphisms = [
        _layout(
            [f'"label": {text[m.index]}', f'"src": {objects[m.src.index]}',
             f'"tgt": {objects[m.tgt.index]}', *(['"identity": true'] if m.is_identity else [])],
            "    ", "{}",
        )
        for m in cat.morphs
    ]
    star = [f"{text[m]}: {text[s]}" for m, s in enumerate(cat.star_map)]
    compose = [
        _layout(
            [f'"g": {text[g]}', f'"f": {text[f]}', '"out": ' + _layout(
                # each summand's object written out: the hot loop of large tables
                [f'{{\n          "m": {text[k]},\n          "mult": {out[k]}\n        }}'
                 for k in sorted(out)],
                "      ",
            )],
            "    ", "{}",
        )
        for g, f, out in _canonical_entries(cat)
    ]
    document = [
        f'"objects": {_layout(objects, "  ")}',
        f'"morphisms": {_layout(morphisms, "  ")}',
        f'"star": {_layout(star, "  ", "{}")}',
        f'"compose": {_layout(compose, "  ")}',
    ]
    return _layout(document, "", "{}") + "\n"


# ---------------------------------------------------------------------------
# validation


def validate(cat: MultiCat) -> ValidationReport:
    """Exhaustively check every table axiom; violations are data, not errors.

    Laws checked, with these names in the report:

    * ``structure``: stored entries composable, summand ends match
      (src(K)=src(F), tgt(K)=tgt(G)).
    * ``unit-law``: stored entries involving an identity equal the unit law.
    * ``associativity``: the multiset identity over all composable triples.
    * ``star-involution``: star∘star = id, star fixes identities.
    * ``star-ends``: star swaps src and tgt.
    * ``star-anti-automorphism``: star(G∘F) = star(F)∘star(G) elementwise.

    ``structure`` and ``unit-law`` are read in one unsorted pass over the
    stored entries, each tested against the morphs of its hom-space and,
    when it has an identity, against the unit law; only the entries that
    fail a test are sorted and described, so violations come in sorted
    (G, F) order.  This pass is pure Python: numpy loads only with the
    star and associativity kernels.

    Associativity is settled for every composable triple, but only a
    few are expanded.  A triple with an identity in it holds by the unit
    law, which composition applies whatever is stored.  The others are
    read first only with G in a set S of generators: over Q the table is
    an algebra with basis the morphs (non-composable products 0, which
    is where the ``structure`` check is needed), and its middle nucleus
    {Y : (X∘Y)∘Z = X∘(Y∘Z) for all X, Z} is closed under linear
    combinations and under composition (the Teichmüller identity; R. D.
    Schafer, *An Introduction to Nonassociative Algebras*, 1966, §II.2)
    and holds every identity (the unit law).  So once every (H, S, F)
    holds, every triple does.  S is picked from the table: candidates by
    ascending row weight, each one not yet reached joins S, and a
    product of a generator and a reached morph whose summands are all
    reached but one reaches that one, as its multiplicity is non-zero.
    On the Hecke tables S is the simple reflections.  Only when a
    (H, S, F) fails is every non-identity G read, to list every
    violation.  The triples are checked by one sparse scatter-add kernel
    over the table compiled into index arrays from one pass over the
    stored entries (see ``fiatcells._kernel``).  It is
    exact: the multiplicity of a summand on either side is a sum of at
    most n products of two multiplicities, so sums are int64 when
    2·n·max(mult)² < 2^63 proves that none can overflow (n morphisms),
    and Python ints otherwise.  It
    runs only when no ``structure`` violation was found, and lists
    violations in sorted (H, G, F) order.  ``star-anti-automorphism`` is
    checked on the same arrays once star is an involution that swaps
    ends.

    The report is computed once per table and cached on it together with
    the generating set S, which the cell preorders of a valid table read;
    the index arrays are freed once the kernels return.  The table is
    read-only, so the report cannot go stale, and every later call
    (``report_analyze``, ``fiat_lint``, the cell preorders) returns the
    same read-only :class:`ValidationReport`.
    """
    return cat._derived("_validation", _validate).report


def _validate(cat: MultiCat) -> _Validation:
    """The report :func:`validate` caches, with its generating set, computed."""
    violations: list[Violation] = []
    morphs = cat.morphs

    for g, f in _suspect_entries(cat):
        out = cat.table[(g, f)]
        gm, fm = morphs[g], morphs[f]
        if gm.src.index != fm.tgt.index:
            violations.append(
                Violation(
                    "structure",
                    (gm.label, fm.label),
                    "stored composite of a non-composable pair",
                )
            )
            continue
        for k in sorted(out):
            km = morphs[k]
            if km.src.index != fm.src.index or km.tgt.index != gm.tgt.index:
                violations.append(
                    Violation(
                        "structure",
                        (gm.label, fm.label, km.label),
                        f"summand {km.label} has ends "
                        f"{km.src.label}->{km.tgt.label}, expected "
                        f"{fm.src.label}->{gm.tgt.label}",
                    )
                )
        if gm.is_identity and out != {f: 1}:
            violations.append(
                Violation(
                    "unit-law",
                    (gm.label, fm.label),
                    "left unit composite differs from the unit law",
                )
            )
        if fm.is_identity and not gm.is_identity and out != {g: 1}:
            violations.append(
                Violation(
                    "unit-law",
                    (gm.label, fm.label),
                    "right unit composite differs from the unit law",
                )
            )

    _check_star(cat, violations)
    generating_set = _check_kernels(cat, violations)
    return _Validation(ValidationReport(tuple(violations)), generating_set)


def _suspect_entries(cat: MultiCat) -> list[tuple[int, int]]:
    """The stored (g, f) that may break ``structure`` or ``unit-law``, sorted.

    One pass over the stored table: an entry is suspect when g, f do not
    compose, when a summand lies outside the hom-space of src(f) to
    tgt(g), or when g or f is an identity and the entry is not the unit
    law.  The others break neither law, so only the suspects are sorted
    and read again.
    """
    src, tgt, identity = cat._src, cat._tgt, cat._is_identity
    hom: dict[tuple[int, int], set[int]] = {}  # (src, tgt) -> the morphs between them
    for m in range(len(src)):
        hom.setdefault((src[m], tgt[m]), set()).add(m)
    empty: set[int] = set()
    suspects = []
    for (g, f), out in cat.table.items():
        if src[g] != tgt[f] or not out.keys() <= hom.get((src[f], tgt[g]), empty):
            suspects.append((g, f))
        elif (identity[g] or identity[f]) and out != {(f if identity[g] else g): 1}:
            suspects.append((g, f))
    suspects.sort()
    return suspects


def _check_star(cat: MultiCat, violations: list[Violation]) -> None:
    morphs = cat.morphs
    for m in morphs:
        sm = morphs[cat.star_map[m.index]]
        if cat.star_map[sm.index] != m.index:
            violations.append(
                Violation("star-involution", (m.label,), f"star(star({m.label})) = "
                          f"{morphs[cat.star_map[sm.index]].label}")
            )
        if m.is_identity and sm.index != m.index:
            violations.append(
                Violation("star-involution", (m.label,), "star moves an identity")
            )
        if sm.src.index != m.tgt.index or sm.tgt.index != m.src.index:
            violations.append(
                Violation(
                    "star-ends",
                    (m.label,),
                    f"star({m.label}) = {sm.label} does not swap source and target",
                )
            )


def _check_kernels(cat: MultiCat, violations: list[Violation]) -> tuple[int, ...]:
    """Append what the kernels find, and return the generating set S.

    The star kernel runs once star is an involution that swaps ends, and
    the associativity kernel once no ``structure`` violation was found;
    neither runs otherwise, and numpy is not loaded.
    """
    star = not any(v.law in ("star-involution", "star-ends") for v in violations)
    associativity = not any(v.law == "structure" for v in violations)
    if not (star or associativity):
        return ()
    from ._kernel import check  # numpy loads with the first validation

    pairs, triples, generating_set = check(cat, star, associativity)
    morphs = cat.morphs
    for g, f in pairs:
        violations.append(
            Violation(
                "star-anti-automorphism",
                (morphs[g].label, morphs[f].label),
                f"star({morphs[g].label}∘{morphs[f].label}) != "
                f"star({morphs[f].label})∘star({morphs[g].label})",
            )
        )
    for h, g, f in triples:
        lhs, rhs = _triple_sides(cat, h, g, f)
        violations.append(
            Violation(
                "associativity",
                (morphs[h].label, morphs[g].label, morphs[f].label),
                f"(H∘G)∘F = {_fmt_multiset(cat, lhs)} but "
                f"H∘(G∘F) = {_fmt_multiset(cat, rhs)}",
            )
        )
    return tuple(generating_set)


def _triple_sides(cat: MultiCat, h: int, g: int, f: int) -> tuple[dict, dict]:
    lhs: dict[int, int] = {}
    for k, c in cat.compose_idx(h, g).items():
        for m, d in cat.compose_idx(k, f).items():
            lhs[m] = lhs.get(m, 0) + c * d
    rhs: dict[int, int] = {}
    for k, c in cat.compose_idx(g, f).items():
        for m, d in cat.compose_idx(h, k).items():
            rhs[m] = rhs.get(m, 0) + c * d
    return lhs, rhs




def _fmt_multiset(cat: MultiCat, ms: dict[int, int]) -> str:
    if not ms:
        return "0"
    return " + ".join(f"{c}·{cat.morphs[k].label}" for k, c in sorted(ms.items()))
