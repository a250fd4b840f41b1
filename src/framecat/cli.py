"""Command-line surface of the workbench.

Commands: validate, omega, cpoints, roundtrip, crm, adjoint, corpus.
roundtrip, crm and adjoint run the suite's check bodies on a one-instance
object built from the document; `corpus run` runs the whole suite, one
check after the other.  Exit codes: 0 all checks pass, 1 some check failed,
2 input error (also a file that cannot be read or written), 3 size bound
exceeded, 4 internal error (an invariant that holds for every valid input
failed).  Check reports stream as they complete; with --format json the
canonical (sorted) summary is printed once at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import corpus as cor
from .crm import validate_crm, verify_adjunction_II
from .documents import ParseError, WorkbenchDocument, parse_document, serialize_document
from .duality import build_omega_map, is_sober, is_spatial, verify_adjunction_I
from .functors import c_object, omega_object
from .quantale import validate_rqf
from .reports import (MAX_ARROWS, MAX_TABLE_SIDE, BoundExceeded, CheckReport, InternalError,
                      Report, WorkbenchError, run_check, sort_reports)
from .suite import (DOCUMENT_VALIDATORS, Instance, _validate_any, adjunction_outcome,
                    chi_roundtrip, filter_category_correspondence, full_suite_pending,
                    ideals_of_isometries_roundtrip, isometries_of_ideals_roundtrip,
                    omega_roundtrip, run_pending)
from .topcat import FiniteTopCategory, Topology

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BOUND_EXCEEDED = 3
EXIT_INTERNAL_ERROR = 4


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.reports: list[CheckReport] = []

    def emit(self, r: CheckReport) -> None:
        self.reports.append(r)
        line = r.line()
        if self.fmt == "json":
            print(line, file=sys.stderr)
        else:
            print(line)

    def finish(self) -> int:
        ordered = sort_reports(self.reports)
        failed = [r for r in ordered if r.status == "fail"]
        if self.fmt == "json":
            print(json.dumps({
                "checks": [r.to_json() for r in ordered],
                "total": len(ordered),
                "failed": len(failed),
            }, sort_keys=True, indent=1))
        else:
            print(f"-- {len(ordered)} checks, {len(failed)} failed")
        return EXIT_CHECK_FAILED if failed else EXIT_OK


def _load(path: str) -> WorkbenchDocument:
    p = Path(path)
    if not p.exists():
        raise WorkbenchError(f"no such file: {path}")
    return parse_document(p.read_text(encoding="utf-8"))


def _as_topcategory(doc: WorkbenchDocument) -> FiniteTopCategory:
    if doc.kind == "topcategory":
        return doc.obj
    if doc.kind == "category":
        return FiniteTopCategory(doc.obj, Topology(doc.obj.n, None))
    raise WorkbenchError(f"expected a category document, got '{doc.kind}'")


def _validated(kind: str, obj) -> Report:
    """The report of DOCUMENT_VALIDATORS on a document object, the failed
    further checks (the etale check of a topological category) included."""
    return _validate_any(cor.CorpusInstance("", kind, obj))


def _report_to_checks(name: str, rep: Report, out: _Output) -> None:
    if rep.ok:
        out.emit(CheckReport(name, rep.subject + "-axioms", "pass"))
    else:
        for v in rep.violations:
            out.emit(CheckReport(name, v.law, "fail", v.witness, v.detail))


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args, out: _Output) -> int:
    doc = _load(args.file)
    name = doc.name or Path(args.file).stem
    rep, further = DOCUMENT_VALIDATORS[doc.kind](doc.obj)
    _report_to_checks(name, rep, out)
    for check, fn in further:
        ok, wit, detail = fn()
        out.emit(CheckReport(name, check, "pass" if ok else "fail", wit, detail))
    return out.finish()


def cmd_omega(args, out: _Output) -> int:
    doc = _load(args.file)
    tc = _as_topcategory(doc)
    rep = _validated("topcategory", tc)
    if not rep.ok:
        raise WorkbenchError(f"input is not an etale topological category: {rep.violations[0]}")
    om = omega_object(tc, max_elements=args.max_elements)
    return _write(WorkbenchDocument(kind="rqf", name=f"omega-{doc.name or 'category'}",
                                    obj=om.rqf), args.out)


def cmd_cpoints(args, out: _Output) -> int:
    doc = _load(args.file)
    if doc.kind != "rqf":
        raise WorkbenchError(f"expected an rqf document, got '{doc.kind}'")
    rep = validate_rqf(doc.obj)
    if not rep.ok:
        raise WorkbenchError(f"input is not a restriction quantal frame: {rep.violations[0]}")
    fc = c_object(doc.obj, args.max_elements)
    return _write(WorkbenchDocument(kind="topcategory", name=f"cpoints-{doc.name or 'rqf'}",
                                    obj=fc.topcat), args.out)


def _write(doc: WorkbenchDocument, path: Optional[str]) -> int:
    """Serialize doc to the file at path, or to stdout without one."""
    text = serialize_document(doc)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_roundtrip(args, out: _Output) -> int:
    doc = _load(args.file)
    name = doc.name or Path(args.file).stem
    if doc.kind in ("category", "topcategory"):
        tc = _as_topcategory(doc)
        rep = _validated("topcategory", tc)
        if not rep.ok:
            _report_to_checks(name, rep, out)
            return out.finish()
        inst = Instance(tc=tc, max_elements=args.max_elements)
        out.emit(run_check(name, "omega-isomorphism", lambda: omega_roundtrip(inst)))
        out.emit(run_check(name, "chi-on-omega-image", lambda: chi_roundtrip(inst)))
    elif doc.kind == "rqf":
        rep = validate_rqf(doc.obj)
        if not rep.ok:
            _report_to_checks(name, rep, out)
            return out.finish()
        inst = Instance(q=doc.obj, max_elements=args.max_elements)
        out.emit(run_check(name, "chi-isomorphism", lambda: chi_roundtrip(inst)))
        out.emit(run_check(name, "spatial", lambda: (*is_spatial(inst.rqf), "")))
        fc = c_object(inst.rqf, args.max_elements).topcat
        out.emit(run_check(name, "filter-category-sober", lambda: (*is_sober(
            fc, build_omega_map(fc, omega_object(fc, args.max_elements))), "")))
    else:
        raise WorkbenchError(f"roundtrip expects a category or rqf document, got '{doc.kind}'")
    return out.finish()


def cmd_crm(args, out: _Output) -> int:
    doc = _load(args.file)
    name = doc.name or Path(args.file).stem
    if doc.kind == "rqf":
        rep = validate_rqf(doc.obj)
        if not rep.ok:
            _report_to_checks(name, rep, out)
            return out.finish()
        inst = Instance(q=doc.obj, max_elements=args.max_elements)

        def roundtrip():
            crep = validate_crm(inst.crm)
            if not crep.ok:
                return False, crep.violations[0].witness, crep.violations[0].law
            return ideals_of_isometries_roundtrip(inst)
        out.emit(run_check(name, "ideals-of-isometries-roundtrip", roundtrip))
    elif doc.kind == "crm":
        rep = validate_crm(doc.obj)
        if not rep.ok:
            _report_to_checks(name, rep, out)
            return out.finish()
        inst = Instance(s=doc.obj, max_elements=args.max_elements)
        out.emit(run_check(name, "isometries-of-ideals-roundtrip",
                           lambda: isometries_of_ideals_roundtrip(inst)))
        out.emit(run_check(name, "filter-category-correspondence",
                           lambda: filter_category_correspondence(inst)))
    else:
        raise WorkbenchError(f"crm expects an rqf or crm document, got '{doc.kind}'")
    return out.finish()


def cmd_adjoint(args, out: _Output) -> int:
    cat_doc = _load(args.category_file)
    alg_doc = _load(args.algebra_file)
    tc = _as_topcategory(cat_doc)
    if alg_doc.kind not in ("rqf", "crm"):
        raise WorkbenchError(f"adjoint expects an rqf or crm document, got '{alg_doc.kind}'")
    cat_name, alg_name = cat_doc.name or "category", alg_doc.name or "algebra"
    for doc_name, kind, obj in ((cat_name, "topcategory", tc),
                                (alg_name, alg_doc.kind, alg_doc.obj)):
        rep = _validated(kind, obj)
        if not rep.ok:
            _report_to_checks(doc_name, rep, out)
    if out.reports:  # only violations were emitted so far
        return out.finish()
    name = f"{cat_name}/{alg_name}"
    bounds = {"max_arrows": args.max_arrows, "max_elements": args.max_elements}
    if alg_doc.kind == "rqf":
        out.emit(run_check(name, "adjunction-homsets", lambda: adjunction_outcome(
            verify_adjunction_I(tc, alg_doc.obj, **bounds))))
    else:
        out.emit(run_check(name, "adjunction-II-homsets", lambda: adjunction_outcome(
            verify_adjunction_II(tc, alg_doc.obj, **bounds))))
    return out.finish()


def cmd_corpus(args, out: _Output) -> int:
    if args.action == "emit":
        target = Path(args.dir or os.environ.get("WORKBENCH_CORPUS_DIR") or "corpus")
        target.mkdir(parents=True, exist_ok=True)
        docs = cor.generate_corpus(max_elements=args.max_elements)
        for doc in docs:
            (target / f"{doc.name}.{doc.kind}.json").write_text(
                serialize_document(doc), encoding="utf-8")
        print(f"wrote {len(docs)} documents to {target}")
        return EXIT_OK
    # corpus run
    fixture_dir = os.environ.get("WORKBENCH_CORPUS_DIR")
    if fixture_dir and Path(fixture_dir).is_dir():
        for path in sorted(Path(fixture_dir).glob("*.json")):
            def fn(path=path):
                try:
                    doc = parse_document(path.read_text(encoding="utf-8"))
                except ParseError as e:
                    return False, (str(e),), "parse error"
                law = (doc.expected or {}).get("violated_law")
                if law:
                    inst = cor.CorpusInstance(doc.name, doc.kind, doc.obj, law)
                    rep = _validate_any(inst)
                    if rep.ok or law not in rep.laws():
                        return False, tuple(rep.laws()[:3]), f"expected {law}"
                return True, None, ""
            out.emit(run_check(path.name, "parses", fn))
    run_pending(full_suite_pending(args.max_arrows, args.max_elements), stream=out.emit)
    return out.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecat",
        description="Finite workbench for etale topological categories and "
                    "restriction quantal frames.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--max-arrows", type=int, default=12,
                        help="bound for hom-set enumeration")
    parser.add_argument("--max-elements", type=int, default=1024,
                        help="bound for quantale/ideal constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="layered axiom checks for a document")
    p.add_argument("file")
    p = sub.add_parser("omega", help="emit the open-set quantale of a category")
    p.add_argument("file")
    p.add_argument("--out")
    p = sub.add_parser("cpoints", help="emit the filter category of a quantal frame")
    p.add_argument("file")
    p.add_argument("--out")
    p = sub.add_parser("roundtrip", help="chi/omega isomorphism checks")
    p.add_argument("file")
    p = sub.add_parser("crm", help="monoid/quantal-frame round trips")
    p.add_argument("file")
    p = sub.add_parser("adjoint", help="exhaustive hom-set adjunction check")
    p.add_argument("category_file")
    p.add_argument("algebra_file")
    p = sub.add_parser("corpus", help="generate and check the standard corpus")
    p.add_argument("action", choices=("run", "emit"))
    p.add_argument("dir", nargs="?")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "omega": cmd_omega,
    "cpoints": cmd_cpoints,
    "roundtrip": cmd_roundtrip,
    "crm": cmd_crm,
    "adjoint": cmd_adjoint,
    "corpus": cmd_corpus,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT_ERROR if e.code not in (0, None) else EXIT_OK
    out = _Output(args.format)
    try:
        if args.max_elements > MAX_TABLE_SIDE:  # before any table is allocated
            raise BoundExceeded(f"max_elements {args.max_elements} exceeds hard limit "
                                f"{MAX_TABLE_SIDE}")
        if args.max_arrows > MAX_ARROWS:  # before any hom-set is searched
            raise BoundExceeded(f"max_arrows {args.max_arrows} exceeds hard limit {MAX_ARROWS}")
        return _COMMANDS[args.command](args, out)
    except BoundExceeded as e:
        print(f"bound exceeded: {e}", file=sys.stderr)
        return EXIT_BOUND_EXCEEDED
    except (ParseError, WorkbenchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
