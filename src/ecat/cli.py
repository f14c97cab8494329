"""Command-line interface: checking documents and running the constructions.

Exit codes: 0 when every requested check passes, 1 on check failures or
parse/resolve diagnostics, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct as construct_mod
from . import dsl
from .core import check_enrichment, check_functor_enrichment, check_nat_trans_enrichment
from .factor import (
    image_factorization,
    is_essentially_surjective,
    is_fully_faithful,
    weak_equivalence_to_adjoint_equivalence,
)
from .monad import (
    check_enriched_monad,
    check_kleisli_cocone,
    fkleisli,
    kleisli_comparison,
    kleisli_universal_extend,
    univalent_kleisli,
)
from .report import CheckReport, EcatError
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


def _load(paths: list[str]) -> dsl.Document:
    """Read one or more files into a single namespace; later files may
    reference earlier declarations. Raises ParseFailure on diagnostics."""
    doc, diags = dsl.load(paths)
    if doc is None:
        raise dsl.ParseFailure(diags)
    return doc


def _print_diagnostics(diags: list[dsl.Diagnostic]) -> None:
    for d in diags:
        print(d.describe())


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


def _emit_reports(named_reports: list[tuple[str, dict]], fmt: str, diagnostics=()) -> int:
    """Print the reports, after the diagnostics of files that did not
    load; either makes the verdict a failure (exit 1)."""
    ok = not diagnostics
    if fmt == "json":
        payload = []
        for name, reports in named_reports:
            entry = {"item": name}
            for law, rep in reports.items():
                entry[law] = rep.to_json()
                ok = ok and rep.ok
            payload.append(entry)
        described = [d.describe() for d in diagnostics]
        print(json.dumps({"ok": ok, "items": payload, "diagnostics": described}, indent=2, sort_keys=True))
    else:
        _print_diagnostics(diagnostics)
        for name, reports in named_reports:
            for law, rep in reports.items():
                status = "ok" if rep.ok else "FAIL"
                print(f"{name} [{law}] {status}")
                if not rep.ok:
                    ok = False
                    for f in rep.failures[:10]:
                        print(f"  {f.describe()}")
                    if len(rep.failures) > 10:
                        print(f"  ... {len(rep.failures) - 10} more")
    return 0 if ok else 1


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


def _emit_document(items: list[dsl.Item], out: str | None, as_json: bool) -> None:
    doc = dsl.Document(items)
    text = dsl.to_json(doc) if as_json else dsl.serialize(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _emit_result(args, items: list[dsl.Item], verdict: dict) -> None:
    """The verdict as JSON, or the constructed document then one
    ``# key: value`` line per verdict entry."""
    if args.format == "json":
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        _emit_document(items, args.out, False)
        for k, v in sorted(verdict.items()):
            print(f"# {k}: {v}")


def _base_item_for(doc: dsl.Document, base) -> dsl.Item:
    for item in doc.of_kind("base"):
        if item.value is base:
            return item
    raise EcatError("enrichment's base is not declared in the document")


def _cmd_check(args) -> int:
    """Each file is checked on its own, in its own namespace."""
    reports, diagnostics = [], []
    for path in args.files:
        doc, diags = dsl.load([path])
        diagnostics.extend(diags)
        if doc is not None:
            reports.extend((f"{path}:{item.name}", _item_reports(doc, item)) for item in doc.items)
    return _emit_reports(reports, args.format, diagnostics)


def _cmd_construct(args) -> int:
    doc = _load(args.files)
    op = args.operation
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
        keep = {int(s) for s in args.keep.split(",") if s != ""}
        sub, inc = construct_mod.full_sub_enrichment(enr_item.value, lambda x: x in keep)
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
    _emit_document(items, args.out, args.format == "json")
    return 0


def _cmd_factorize(args) -> int:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "factorize")
    fact = image_factorization(fun_item.value)
    eso = is_essentially_surjective(fact.eso_part)
    ff = is_fully_faithful(fact.ff_part)
    cmp_rep = check_nat_trans_enrichment(fact.comparison)
    verdict = {
        "image_objects": fact.image.n_objects,
        "eso": eso.ok,
        "fully_faithful": ff.ok,
        "comparison_enriched": cmp_rep.ok,
    }
    base_item = _base_item_for(doc, fun_item.value.dom.base)
    img_item = dsl.Item("enrichment", f"{fun_item.name}_image", fact.image,
                        {"over": base_item.name}, fun_item.span)
    _emit_result(args, [base_item, img_item], verdict)
    return 0 if eso.ok and ff.ok and cmp_rep.ok else 1


def _cmd_equivalence(args) -> int:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "equivalence")
    try:
        adj = weak_equivalence_to_adjoint_equivalence(fun_item.value)
    except EcatError as exc:
        raise EcatError(f"not a weak equivalence: {exc}") from exc
    t1, t2 = adj.triangle_reports
    verdict = {"triangle_fwd": t1.ok, "triangle_bwd": t2.ok}
    print(json.dumps(verdict, indent=2, sort_keys=True) if args.format == "json"
          else f"triangles: {t1.ok} {t2.ok}")
    return 0 if t1.ok and t2.ok else 1


def _cmd_rezk(args) -> int:
    doc = _load(args.files)
    enr_item = _single(doc, "enrichment", args.enrichment, "rezk")
    res = rezk_completion(enr_item.value)
    rep = univalence_report(res.completion)
    verdict = {
        "completion_objects": res.completion.n_objects,
        "skeletal": rep.skeletal,
        "gaunt": rep.gaunt,
        "unit_fully_faithful": res.cert_ff.ok,
        "unit_essentially_surjective": res.cert_eso.ok,
    }
    base_item = _base_item_for(doc, enr_item.value.base)
    out_item = dsl.Item("enrichment", f"{enr_item.name}_rezk", res.completion,
                        {"over": base_item.name}, enr_item.span)
    _emit_result(args, [base_item, out_item], verdict)
    return 0 if rep.skeletal and res.cert_ff.ok and res.cert_eso.ok else 1


def _cmd_yoneda_check(args) -> int:
    doc = _load(args.files)
    enr_item = _single(doc, "enrichment", args.enrichment, "yoneda-check")
    rep = check_yoneda_ff(enr_item.value, cap=args.cap)
    return _emit_reports([(enr_item.name, {"yoneda-ff": rep})], args.format)


def _cmd_precomp_check(args) -> int:
    doc = _load(args.files)
    fun_item = _single(doc, "functor", args.functor, "precomp-check")
    enr_item = _single(doc, "enrichment", args.target, "precomp-check target") if args.target else None
    if enr_item is None:
        cands = [i for i in doc.of_kind("enrichment")
                 if i.name not in (fun_item.refs["dom"], fun_item.refs["cod"])]
        if len(cands) != 1:
            raise _UsageError("precomp-check needs --target to pick the third enrichment")
        enr_item = cands[0]
    rep = check_precomp_equivalence(fun_item.value, enr_item.value, cap=args.cap)
    return _emit_reports([(f"{fun_item.name}->{enr_item.name}", {"precomp": rep})], args.format)


def _cmd_kleisli(args) -> int:
    doc = _load(args.files)
    monad_item = _single(doc, "monad", args.monad, "kleisli")
    T = monad_item.value
    base_item = _base_item_for(doc, T.carrier.base)
    if args.variant == "raw":
        enr = fkleisli(T)
        rep = check_enrichment(enr)
        out_item = dsl.Item("enrichment", f"{monad_item.name}_kleisli", enr,
                            {"over": base_item.name}, monad_item.span)
        verdict = {"objects": enr.n_objects, "enrichment_ok": rep.ok}
    else:
        uk = univalent_kleisli(T)
        rep = check_enrichment(uk.enrichment)
        kappa = kleisli_comparison(T, None, uk)
        out_item = dsl.Item("enrichment", f"{monad_item.name}_kleisli", uk.enrichment,
                            {"over": base_item.name}, monad_item.span)
        verdict = {
            "objects": uk.enrichment.n_objects,
            "enrichment_ok": rep.ok,
            "skeletal": uk.report.skeletal,
            "comparison_fully_faithful": is_fully_faithful(kappa).ok,
            "comparison_essentially_surjective": is_essentially_surjective(kappa).ok,
        }
    _emit_result(args, [base_item, out_item], verdict)
    return 0 if all(v is not False for v in verdict.values()) else 1


def _cmd_kleisli_ump(args) -> int:
    doc = _load(args.files)
    monad_item = _single(doc, "monad", args.monad, "kleisli-ump")
    cocone_item = _single(doc, "cocone", args.cocone, "kleisli-ump")
    T = monad_item.value
    try:
        H, com = kleisli_universal_extend(T, cocone_item.value)
    except EcatError as exc:
        raise EcatError(f"universal property failed: {exc}") from exc
    rep_h = check_functor_enrichment(H)
    rep_c = check_nat_trans_enrichment(com)
    verdict = {"mediator_ok": rep_h.ok, "cell_ok": rep_c.ok}
    print(json.dumps(verdict, indent=2, sort_keys=True) if args.format == "json"
          else f"mediator: {rep_h.ok} cell: {rep_c.ok}")
    return 0 if rep_h.ok and rep_c.ok else 1


def _cmd_enum_functors(args) -> int:
    doc = _load(args.files)
    doms = doc.get(args.dom) if args.dom else None
    cods = doc.get(args.cod) if args.cod else None
    if doms is None or cods is None:
        enrs = doc.of_kind("enrichment")
        if len(enrs) < 2 and (doms is None or cods is None):
            if len(enrs) == 1:
                doms = doms or enrs[0]
                cods = cods or enrs[0]
            else:
                raise _UsageError("enum-functors needs --dom and --cod")
        else:
            doms = doms or enrs[0]
            cods = cods or enrs[1]
    funs = enumerate_enriched_functors(doms.value, cods.value, cap=args.cap)
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecat", description="finite enriched category workbench")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cap", type=int, default=10_000)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every applicable law checker")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("construct", help="run a construction and emit DSL")
    p.add_argument("operation", choices=("self", "opposite", "full-sub", "functor-category"))
    p.add_argument("files", nargs="+")
    p.add_argument("--name", default="result")
    p.add_argument("--base", default=None)
    p.add_argument("--enrichment", default=None)
    p.add_argument("--cod", default=None)
    p.add_argument("--keep", default="")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("factorize", help="image factorization of a functor")
    p.add_argument("files", nargs="+")
    p.add_argument("--functor", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("equivalence", help="invert a weak equivalence")
    p.add_argument("files", nargs="+")
    p.add_argument("--functor", default=None)
    p.set_defaults(fn=_cmd_equivalence)

    p = sub.add_parser("rezk", help="desk-scale Rezk completion")
    p.add_argument("files", nargs="+")
    p.add_argument("--enrichment", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_rezk)

    p = sub.add_parser("yoneda-check", help="fully-faithfulness of the Yoneda embedding")
    p.add_argument("files", nargs="+")
    p.add_argument("--enrichment", default=None)
    p.set_defaults(fn=_cmd_yoneda_check)

    p = sub.add_parser("precomp-check", help="precomposition universal property")
    p.add_argument("files", nargs="+")
    p.add_argument("--functor", default=None)
    p.add_argument("--target", default=None)
    p.set_defaults(fn=_cmd_precomp_check)

    p = sub.add_parser("kleisli", help="Kleisli enrichment of a monad")
    p.add_argument("files", nargs="+")
    p.add_argument("--monad", default=None)
    p.add_argument("--variant", choices=("raw", "univalent"), default="raw")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_kleisli)

    p = sub.add_parser("kleisli-ump", help="universal property of the Kleisli object")
    p.add_argument("files", nargs="+")
    p.add_argument("--monad", default=None)
    p.add_argument("--cocone", default=None)
    p.set_defaults(fn=_cmd_kleisli_ump)

    p = sub.add_parser("enum-functors", help="enumerate enriched functors")
    p.add_argument("files", nargs="+")
    p.add_argument("--dom", default=None)
    p.add_argument("--cod", default=None)
    p.set_defaults(fn=_cmd_enum_functors)
    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except dsl.ParseFailure as exc:
        return _emit_reports([], args.format, exc.diagnostics)
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
