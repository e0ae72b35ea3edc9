"""
Command-line surface.

    fiatcells {validate|cells|order|annihilator|analyze|lint|gen|ca|hecke|
               klpoly|rs|bimod} [flags]

Table arguments accept a path or ``-`` for stdin, and all commands are
pipeline-composable: generators emit the interchange JSON that the
analysis commands consume.  Exit codes: 0 success / all checks pass,
1 usage or input error, 2 violations found.  JSON reports embed the
tool version, the seed, and a hash of the input for provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import __version__
from .analysis import fiat_lint
from .cells import KINDS, annihilator_of_simple, cells
from .constructors import (
    HECKE_DEFAULT_MAX_N,
    CartanData,
    make_CA,
    make_hecke,
    make_s2,
    make_sl2_singular,
)
from .klbasis import kl_polynomial
from .model import (
    MultiCat,
    NotComposableError,
    TableFormatError,
    _expect,
    _field,
    _parse_json,
    parse_multicat,
    serialize_multicat,
    validate,
)
from .permutations import Permutation
from .report import _lint_block, _validation_block, render_analyze_text, report_analyze
from .tableaux import robinson_schensted

if TYPE_CHECKING:
    from .bimodule import Bimodule

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATIONS = 2


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 under this tool's contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str) -> int:
    print(f"fiatcells: error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_table(path: str) -> tuple[MultiCat, str]:
    text = _read_text(path)
    return parse_multicat(text), text


def _envelope(args, text: str | None) -> dict:
    doc = {"tool": "fiatcells", "version": __version__, "seed": getattr(args, "seed", 0)}
    if text is not None:
        import hashlib  # only --json needs it: loading it at start-up costs ~4 ms

        doc["input_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return doc


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _parse_perm(raw: str, option: str) -> Permutation:
    """The permutation given in one-line notation to ``option``; a bad one
    is a TableFormatError that names the option."""
    try:
        return Permutation(tuple(int(tok) for tok in raw.replace(",", " ").split()))
    except ValueError as e:
        raise TableFormatError(f"{option}: {e}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiatcells", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fiatcells {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_cmd(name: str, help_: str):
        p = sub.add_parser(name, help=help_)
        p.add_argument("table", help="table JSON path, or - for stdin")
        p.add_argument("--json", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        return p

    add_table_cmd("validate", "check the table axioms")
    p = add_table_cmd("cells", "print cells of one kind")
    p.add_argument("--kind", choices=KINDS, default="right")
    p = add_table_cmd("order", "print the Hasse diagram of the cell order")
    p.add_argument("--kind", choices=KINDS, default="right")
    p = add_table_cmd("annihilator", "annihilator of the simple indexed by a morphism")
    p.add_argument("--morph", required=True)
    add_table_cmd("analyze", "full report: cells, m tables, Cartan blocks, lint")
    add_table_cmd("lint", "run the fiat lint battery")

    p = sub.add_parser("gen", help="emit a builtin table")
    p.add_argument("what", choices=("s2", "sl2", "ca", "hecke"))
    p.add_argument("--cartan", help="Cartan data JSON file (for ca)")
    p.add_argument("--n", type=int, help="symmetric group size (for hecke)")
    p.add_argument("--max-n", type=int, default=HECKE_DEFAULT_MAX_N)

    p = sub.add_parser("ca", help="alias for gen ca")
    p.add_argument("--cartan", required=True)
    p = sub.add_parser("hecke", help="alias for gen hecke")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=HECKE_DEFAULT_MAX_N)

    p = sub.add_parser("klpoly", help="one Kazhdan-Lusztig polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help="one-line permutation, e.g. '2 1 3'")
    p.add_argument("--w", required=True)

    p = sub.add_parser("rs", help="Robinson-Schensted tableaux of a permutation")
    p.add_argument("--perm", required=True, help="one-line permutation, e.g. '3 1 2'")

    p = sub.add_parser("bimod", help="exact bimodule oracle commands")
    bsub = p.add_subparsers(dest="bimod_command", required=True)
    bsub.add_parser("verify-quiver", help="check the dual-number quiver relations")
    pb = bsub.add_parser("realize-ca", help="rebuild a projective-functor table from algebras")
    pb.add_argument("--algebras", required=True, help="algebras JSON path, or - for stdin")
    pb.add_argument("--max-dim", type=int, default=4096)
    ph = bsub.add_parser("hom", help="basis of a bimodule hom space")
    ph.add_argument("--m", required=True)
    ph.add_argument("--n", required=True)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return _dispatch(args)
    except (TableFormatError, NotComposableError, ValueError) as e:
        return _fail(str(e))
    except KeyError as e:
        # str() of a KeyError is the repr of its argument, quotes and all
        return _fail(str(e.args[0]) if e.args else str(e))
    except OSError as e:
        return _fail(str(e))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "validate":
        cat, text = _load_table(args.table)
        report = validate(cat)
        if args.json:
            doc = _envelope(args, text)
            doc["validation"] = _validation_block(report)
            _emit_json(doc)
        else:
            print(report)
        return EXIT_OK if report.ok else EXIT_VIOLATIONS

    if cmd in ("cells", "order"):
        cat, text = _load_table(args.table)
        part = cells(cat, args.kind)
        classes = [sorted(cat.morphs[i].label for i in c) for c in part.classes]
        if args.json:
            doc = _envelope(args, text)
            doc["kind"] = args.kind
            doc["classes"] = classes
            doc["hasse"] = [list(e) for e in part.order_edges]
            _emit_json(doc)
        elif cmd == "cells":
            for i, cls in enumerate(classes):
                print(f"class {i}: {', '.join(cls)}")
            for a, b in part.order_edges:
                print(f"order: {a} < {b}")
        else:
            for a, b in part.order_edges:
                print(f"{a} < {b}")
        return EXIT_OK

    if cmd == "annihilator":
        cat, text = _load_table(args.table)
        g = cat.morph(args.morph)
        ann = annihilator_of_simple(cat, g)
        if args.json:
            doc = _envelope(args, text)
            doc["morph"] = g.label
            doc["annihilator"] = [m.label for m in ann]
            _emit_json(doc)
        else:
            print(f"annihilator of L({g.label}): " + (", ".join(m.label for m in ann) or "(empty)"))
        return EXIT_OK

    if cmd == "analyze":
        cat, text = _load_table(args.table)
        doc = report_analyze(cat)
        payload = _envelope(args, text)
        payload.update(doc)
        if args.json:
            _emit_json(payload)
        else:
            print(render_analyze_text(doc), end="")
        if not doc["validation"]["ok"]:
            return EXIT_INPUT
        return EXIT_VIOLATIONS if doc["lint"]["fiat_certified_impossible"] else EXIT_OK

    if cmd == "lint":
        cat, text = _load_table(args.table)
        report = fiat_lint(cat)
        if args.json:
            doc = _envelope(args, text)
            doc["lint"] = _lint_block(report)
            _emit_json(doc)
        else:
            print(report)
        return EXIT_OK if report.ok else EXIT_VIOLATIONS

    if cmd in ("gen", "ca", "hecke"):
        what = args.what if cmd == "gen" else cmd
        if what == "s2":
            cat = make_s2()
        elif what == "sl2":
            cat = make_sl2_singular()
        elif what == "ca":
            if not args.cartan:
                return _fail("gen ca requires --cartan <file>")
            cat = make_CA(_load_cartan(args.cartan))
        else:
            if args.n is None:
                return _fail("gen hecke requires --n <int>")
            cat = make_hecke(args.n, max_n=args.max_n)
        sys.stdout.write(serialize_multicat(cat))
        return EXIT_OK

    if cmd == "klpoly":
        x = _parse_perm(args.x, "--x")
        w = _parse_perm(args.w, "--w")
        if x.n != args.n or w.n != args.n:
            return _fail("permutations do not match --n")
        p = kl_polynomial(args.n, x, w)
        print(f"P[{args.x} ; {args.w}] = {str(p).replace('v', 'q')}")
        return EXIT_OK

    if cmd == "rs":
        w = _parse_perm(args.perm, "--perm")
        pair = robinson_schensted(w)
        for name, rows in (("P", pair.p), ("Q", pair.q)):
            print(f"{name}:")
            for row in rows:
                print("  " + " ".join(str(x) for x in row))
        return EXIT_OK

    # bimod, as argparse admits no other command
    return _dispatch_bimod(args)


def _dispatch_bimod(args) -> int:
    from . import bimodule  # only the bimod commands load the oracle

    if args.bimod_command == "verify-quiver":
        report = bimodule.verify_dual_numbers_quiver()
        for name, ok in report.checks.items():
            print(f"{name}: {'PASS' if ok else 'FAIL'}")
        print(
            "hom dimensions (End F, F->1, 1->F, End 1): "
            + ", ".join(str(d) for d in report.hom_dims)
        )
        return EXIT_OK if report.ok else EXIT_VIOLATIONS

    if args.bimod_command == "realize-ca":
        algebras = bimodule.load_algebras(sys.stdin if args.algebras == "-" else args.algebras)
        cat = bimodule.realize_CA(algebras, max_dim=args.max_dim)
        sys.stdout.write(serialize_multicat(cat))
        return EXIT_OK

    # hom, as argparse admits no other bimod command
    m = _load_bimodule(args.m)
    n = _load_bimodule(args.n)
    basis = bimodule.hom_space(m, n)
    print(f"dim hom = {len(basis)}")
    for i, bm in enumerate(basis):
        print(f"basis[{i}]:")
        for row in bm.matrix:
            print("  [" + ", ".join(str(x) for x in row) + "]")
    return EXIT_OK


def _load_cartan(path: str) -> CartanData:
    """Cartan document: {"components": [...]} or the bare list of pairing matrices."""
    doc = _parse_json(_read_text(path))
    if isinstance(doc, dict):
        doc = _field(doc, "components")
    comps = _expect(doc, list, "components")
    for t, comp in enumerate(comps):
        for a, row in enumerate(_expect(comp, list, f"components[{t}]")):
            for b, x in enumerate(_expect(row, list, f"components[{t}][{a}]")):
                _expect(x, int, f"components[{t}][{a}][{b}]")
    return CartanData(comps)


def _load_bimodule(path: str) -> Bimodule:
    """Bimodule document: algebras plus a projective/identity descriptor."""
    from .bimodule import _algebra_from_document, identity_bimodule, projective_bimodule

    doc = _expect(_parse_json(_read_text(path)), dict, "document root")
    left = _algebra_from_document(_field(doc, "left"), "left")
    right = doc.get("right")
    right = left if right in (None, "same") else _algebra_from_document(right, "right")
    kind = doc.get("kind", "projective")
    if kind == "identity":
        if right is not left:
            raise TableFormatError("identity bimodule needs matching algebras")
        return identity_bimodule(left)
    if kind != "projective":
        raise TableFormatError(f"unknown bimodule kind {kind!r}")

    def idempotent(key: str, algebra) -> int:
        i = _expect(_field(doc, key), int, key)
        if not 0 <= i < len(algebra.idempotents):
            raise TableFormatError(
                f"{key}: no idempotent {i}; {algebra.name} has {len(algebra.idempotents)}"
            )
        return i

    return projective_bimodule(left, idempotent("f", left), right, idempotent("e", right))


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
