"""Command-line interface: checking documents and running the constructions.

Every command but ``enum-functors`` returns a :class:`Verdict`, and
:func:`_emit` alone prints it and chooses the exit code: 0 iff every file
loaded and every report is ok. A refused command exits 1, a usage error 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from . import construct as construct_mod
from . import dsl
from .core import check_enrichment, check_functor_enrichment, check_nat_trans_enrichment
from .factor import (
    image_factorization,
    is_essentially_surjective,
    is_fully_faithful,
    weak_equivalence,
    weak_equivalence_to_adjoint_equivalence,
)
from .monad import (
    check_enriched_monad,
    check_kleisli_cocone,
    fkleisli,
    kleisli_universal_extend,
    univalent_kleisli,
)
from .report import CapabilityError, CheckReport, EcatError
from .rezk import (
    check_precomp_equivalence,
    check_yoneda_ff,
    enumerate_enriched_functors,
    rezk_completion,
    univalence_report,
)
from .vbase import base_law_checks


class _UsageError(EcatError):
    """A command whose inputs do not say which items to use (exit 2)."""


@dataclass
class Verdict:
    """What a command found: each checked item's name with its reports by
    law, facts that inform but never decide the exit code, the items the
    command built (or None), and the diagnostics of files that did not load."""

    reports: list[tuple[str, dict[str, CheckReport]]] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    document: list[dsl.Item] | None = None
    diagnostics: list[dsl.Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics and all(r.ok for _, laws in self.reports for r in laws.values())


def _failure_lines(rep: CheckReport) -> list[str]:
    lines = [f.describe() for f in rep.failures[:10]]
    if len(rep.failures) > 10:
        lines.append(f"... {len(rep.failures) - 10} more")
    return lines


def _emit(args, verdict: Verdict) -> int:
    """Print the verdict and return its exit code.

    Text: the document, if any, goes to ``--out`` or stdout, then stdout
    gets one ``# key: value`` line per fact and report, so it still loads as
    a document; without a document, the diagnostics and one ``name [law]
    ok|FAIL`` line per report. JSON: one ``{"ok", "items", "diagnostics"}``
    object, or the document itself for a command that checks nothing; the
    document goes to ``--out`` in the chosen format."""
    as_json = args.format == "json"
    out = getattr(args, "out", None)
    if verdict.document is not None and (out or not (as_json and verdict.reports)):
        doc = dsl.Document(verdict.document)
        text = dsl.to_json(doc) if as_json else dsl.serialize(doc)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    if as_json:
        if verdict.reports or verdict.document is None:
            items = [{"item": name, **verdict.facts, **{law: rep.to_json() for law, rep in laws.items()}}
                     for name, laws in verdict.reports]
            described = [d.describe() for d in verdict.diagnostics]
            print(json.dumps({"ok": verdict.ok, "items": items, "diagnostics": described}, indent=2, sort_keys=True))
    elif verdict.document is not None:
        entries = {**verdict.facts, **{law: rep for _, laws in verdict.reports for law, rep in laws.items()}}
        for key, value in sorted(entries.items()):
            if isinstance(value, CheckReport):
                print(f"# {key}: {value.ok}")
                for line in _failure_lines(value):
                    print(f"#   {line}")
            else:
                print(f"# {key}: {value}")
    else:
        for d in verdict.diagnostics:
            print(d.describe())
        for name, laws in verdict.reports:
            for law, rep in laws.items():
                print(f"{name} [{law}] {'ok' if rep.ok else 'FAIL'}")
                for line in _failure_lines(rep):
                    print(f"  {line}")
    return 0 if verdict.ok else 1


def _load(paths: list[str]) -> dsl.Document:
    """Read one or more files into a single namespace; later files may
    reference earlier declarations. Raises ParseFailure on diagnostics."""
    doc, diags = dsl.load(paths)
    if doc is None:
        raise dsl.ParseFailure(diags)
    return doc


def _item_reports(doc: dsl.Document, item: dsl.Item) -> dict[str, CheckReport]:
    reports = {}
    v = item.value
    if item.kind == "base":
        reports = {family: check(v) for family, check in base_law_checks(v)}
    elif item.kind == "enrichment":
        reports["enrichment"] = check_enrichment(v)
    elif item.kind == "functor":
        reports["functor"] = check_functor_enrichment(v)
    elif item.kind == "transformation":
        reports["transformation"] = check_nat_trans_enrichment(v)
    elif item.kind == "monad":
        reports["monad"] = check_enriched_monad(v)
    elif item.kind == "cocone":
        monad = doc.get(item.refs["for"]).value
        reports["cocone"] = check_kleisli_cocone(monad, v)
    return reports


def _single(doc: dsl.Document, kind: str, name: str | None, what: str):
    if name is not None:
        item = doc.get(name)
        if item is None or item.kind != kind:
            raise EcatError(f"no {kind} named {name!r}")
        return item
    items = doc.of_kind(kind)
    if len(items) != 1:
        raise EcatError(f"{what} needs exactly one {kind} (or use a name flag); found {len(items)}")
    return items[0]


def _base_item_for(doc: dsl.Document, base) -> dsl.Item:
    for item in doc.of_kind("base"):
        if item.value is base:
            return item
    raise EcatError("enrichment's base is not declared in the document")


def _cmd_check(args) -> Verdict:
    """Each file is checked on its own, in its own namespace."""
    verdict = Verdict()
    for path in args.files:
        doc, diags = dsl.load([path])
        verdict.diagnostics.extend(diags)
        if doc is not None:
            verdict.reports.extend((f"{path}:{item.name}", _item_reports(doc, item)) for item in doc.items)
    return verdict


#: The flags each construct operation reads, beside --name and --out; setting another is a usage error.
_CONSTRUCT_READS = {"self": ("base",), "opposite": ("enrichment",), "full-sub": ("enrichment", "keep"),
                    "functor-category": ("enrichment", "cod")}


def _cmd_construct(args) -> Verdict:
    op = args.operation
    for flag in ("base", "enrichment", "cod", "keep"):
        if flag not in _CONSTRUCT_READS[op] and getattr(args, flag) not in (None, ()):
            raise _UsageError(f"construct {op} does not read --{flag}")
    doc = _load(args.files)
    if op == "self":
        base_item = _single(doc, "base", args.base, "construct self")
        enr = construct_mod.self_enrichment(base_item.value)
        items = [base_item, dsl.Item("enrichment", args.name, enr, {"over": base_item.name}, base_item.span)]
    elif op == "opposite":
        enr_item = _single(doc, "enrichment", args.enrichment, "construct opposite")
        enr = construct_mod.opposite_enrichment(enr_item.value)
        out_item = dsl.Item("enrichment", args.name, enr, dict(enr_item.refs), enr_item.span)
        items = [_base_item_for(doc, enr_item.value.base), out_item]
    elif op == "full-sub":
        enr_item = _single(doc, "enrichment", args.enrichment, "construct full-sub")
        outside = [x for x in args.keep if not 0 <= x < enr_item.value.n_objects]
        if outside:
            raise _UsageError(f"--keep {outside[0]} is not an object of {enr_item.name!r}")
        sub, inc = construct_mod.full_sub_enrichment(enr_item.value, lambda x: x in args.keep)
        base_item = _base_item_for(doc, enr_item.value.base)
        sub_item = dsl.Item("enrichment", args.name, sub, dict(enr_item.refs), enr_item.span)
        inc_item = dsl.Item(
            "functor", f"{args.name}_inclusion", inc,
            {"dom": args.name, "cod": enr_item.name}, enr_item.span,
        )
        items = [base_item, enr_item, sub_item, inc_item]
    else:  # functor-category
        e1 = _single(doc, "enrichment", args.enrichment, "construct functor-category (dom)")
        e2 = _single(doc, "enrichment", args.cod, "construct functor-category (cod)") if args.cod else e1
        fc = construct_mod.functor_category_enrichment(e1.value, e2.value, cap=args.cap)
        base_item = _base_item_for(doc, e1.value.base)
        items = [base_item, dsl.Item("enrichment", args.name, fc.enrichment, {"over": base_item.name}, e1.span)]
    return Verdict(document=items)


def _cmd_factorize(args) -> Verdict:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "factorize")
    fact = image_factorization(fun_item.value)
    reports = {
        "eso": is_essentially_surjective(fact.eso_part).report(),
        "fully_faithful": is_fully_faithful(fact.ff_part).report(),
        "comparison_enriched": check_nat_trans_enrichment(fact.comparison),
    }
    base_item = _base_item_for(doc, fun_item.value.dom.base)
    img_item = dsl.Item("enrichment", f"{fun_item.name}_image", fact.image,
                        {"over": base_item.name}, fun_item.span)
    return Verdict([(fun_item.name, reports)], {"image_objects": fact.image.n_objects}, [base_item, img_item])


def _cmd_equivalence(args) -> Verdict:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "equivalence")
    try:
        adj = weak_equivalence_to_adjoint_equivalence(fun_item.value)
    except EcatError as exc:
        raise EcatError(f"not a weak equivalence: {exc}") from exc
    t1, t2 = adj.triangle_reports
    return Verdict([(fun_item.name, {"triangle_fwd": t1, "triangle_bwd": t2})])


def _cmd_rezk(args) -> Verdict:
    doc = _load(args.files)
    enr_item = _single(doc, "enrichment", args.enrichment, "rezk")
    res = rezk_completion(enr_item.value)
    rep = univalence_report(res.completion)
    reports = {
        "skeletal": rep.skeletal_report(),
        "unit_fully_faithful": res.unit.ff.report(),
        "unit_essentially_surjective": res.unit.eso.report(),
    }
    facts = {"completion_objects": res.completion.n_objects, "gaunt": rep.gaunt}
    base_item = _base_item_for(doc, enr_item.value.base)
    out_item = dsl.Item("enrichment", f"{enr_item.name}_rezk", res.completion,
                        {"over": base_item.name}, enr_item.span)
    return Verdict([(enr_item.name, reports)], facts, [base_item, out_item])


def _cmd_yoneda_check(args) -> Verdict:
    doc = _load(args.files)
    enr_item = _single(doc, "enrichment", args.enrichment, "yoneda-check")
    return Verdict([(enr_item.name, {"yoneda-ff": check_yoneda_ff(enr_item.value, cap=args.cap)})])


def _cmd_precomp_check(args) -> Verdict:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "precomp-check")
    enr_item = _single(doc, "enrichment", args.target, "precomp-check target") if args.target else None
    if enr_item is None:
        cands = [i for i in doc.of_kind("enrichment")
                 if i.name not in (fun_item.refs["dom"], fun_item.refs["cod"])]
        if len(cands) != 1:
            raise _UsageError("precomp-check needs --target to pick the third enrichment")
        enr_item = cands[0]
    try:
        W = weak_equivalence(fun_item.value)
    except CapabilityError as exc:
        raise EcatError(f"not a weak equivalence: {exc}") from exc
    rep = check_precomp_equivalence(W, enr_item.value, cap=args.cap)
    return Verdict([(f"{fun_item.name}->{enr_item.name}", {"precomp": rep})])


def _cmd_kleisli(args) -> Verdict:
    doc = _load(args.files)
    monad_item = _single(doc, "monad", args.monad, "kleisli")
    T = monad_item.value
    base_item = _base_item_for(doc, T.carrier.base)
    if args.variant == "raw":
        enr = fkleisli(T)
        reports = {"enrichment_ok": check_enrichment(enr)}
    else:
        uk = univalent_kleisli(T)
        enr = uk.completion
        reports = {
            "enrichment_ok": check_enrichment(enr),
            "skeletal": univalence_report(enr).skeletal_report(),
            "comparison_fully_faithful": uk.unit.ff.report(),
            "comparison_essentially_surjective": uk.unit.eso.report(),
        }
    out_item = dsl.Item("enrichment", f"{monad_item.name}_kleisli", enr,
                        {"over": base_item.name}, monad_item.span)
    return Verdict([(monad_item.name, reports)], {"objects": enr.n_objects}, [base_item, out_item])


def _cmd_kleisli_ump(args) -> Verdict:
    doc = _load(args.files)
    monad_item = _single(doc, "monad", args.monad, "kleisli-ump")
    cocone_item = _single(doc, "cocone", args.cocone, "kleisli-ump")
    try:
        H, com = kleisli_universal_extend(monad_item.value, cocone_item.value)
    except EcatError as exc:
        raise EcatError(f"universal property failed: {exc}") from exc
    reports = {"mediator": check_functor_enrichment(H), "cell": check_nat_trans_enrichment(com)}
    return Verdict([(cocone_item.name, reports)])


def _cmd_enum_functors(args) -> None:
    """A listing, not a verdict: prints the functors itself."""
    doc = _load(args.files)
    dom, cod = (_single(doc, "enrichment", name, "enum-functors") if name else None
                for name in (args.dom, args.cod))
    enrs = doc.of_kind("enrichment")
    if not enrs:
        raise _UsageError("enum-functors needs --dom and --cod")
    funs = enumerate_enriched_functors((dom or enrs[0]).value, (cod or enrs[min(1, len(enrs) - 1)]).value,
                                       cap=args.cap)
    if args.format == "json":
        payload = [
            {"ob": sorted(F.ob_map.items()), "efun": [[list(k), [m.src, m.dst, m.k]] for k, m in sorted(F.e_fun_t.items())]}
            for F in funs
        ]
        print(json.dumps({"count": len(funs), "functors": payload}, indent=2, sort_keys=True))
    else:
        print(f"{len(funs)} enriched functor(s)")
        for i, F in enumerate(funs):
            print(f"  [{i}] ob={dict(sorted(F.ob_map.items()))}")


def _indices(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of object indices: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
        if n >= 1:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The root parser and its subparsers, built once per process; parsing
    leaves it unchanged, and no option has a mutable default."""
    parser = argparse.ArgumentParser(prog="ecat", description="finite enriched category workbench")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cap", type=_positive_int, default=10_000)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *flags: str, operations=None) -> argparse.ArgumentParser:
        """A subcommand on files, with ``--flag NAME`` options that default to None."""
        p = sub.add_parser(name, help=help)
        if operations:
            p.add_argument("operation", choices=operations)
        p.add_argument("files", nargs="+")
        for flag in flags:
            p.add_argument(f"--{flag}", default=None)
        p.set_defaults(fn=fn)
        return p

    command("check", _cmd_check, "run every applicable law checker")
    p = command("construct", _cmd_construct, "run a construction and emit DSL", "base", "enrichment", "cod", "out",
                operations=("self", "opposite", "full-sub", "functor-category"))
    p.add_argument("--name", default="result")
    p.add_argument("--keep", type=_indices, default=())
    command("factorize", _cmd_factorize, "image factorization of a functor", "functor", "out")
    command("equivalence", _cmd_equivalence, "invert a weak equivalence", "functor")
    command("rezk", _cmd_rezk, "desk-scale Rezk completion", "enrichment", "out")
    command("yoneda-check", _cmd_yoneda_check, "fully-faithfulness of the Yoneda embedding", "enrichment")
    command("precomp-check", _cmd_precomp_check, "precomposition universal property", "functor", "target")
    p = command("kleisli", _cmd_kleisli, "Kleisli enrichment of a monad", "monad", "out")
    p.add_argument("--variant", choices=("raw", "univalent"), default="raw")
    command("kleisli-ump", _cmd_kleisli_ump, "universal property of the Kleisli object", "monad", "cocone")
    command("enum-functors", _cmd_enum_functors, "enumerate enriched functors", "dom", "cod")
    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        verdict = args.fn(args)
        return 0 if verdict is None else _emit(args, verdict)
    except dsl.ParseFailure as exc:
        return _emit(args, Verdict(diagnostics=exc.diagnostics))
    except (EcatError, OSError) as exc:
        if args.format == "json":
            print(json.dumps({"ok": False, "error": str(exc)}, indent=2, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
