"""corpus-io: the documents a user checks and transforms through the CLI.

The inputs are the table-base golden documents and the two ``bad_*`` ones,
copied into ``corpus/`` so that the workload stays fixed while the test data
moves. Set-up reads them and writes each parseable one's JSON export; the
operations run ``ecat`` commands in-process through ``run_cli`` on the text
and on the JSON files, and round-trip every document through both formats.
The documents over computed bases are left out: their scans are the
operations of coherence-computed and would hide the front end here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from pathlib import Path

from ecat import dsl
from ecat.cli import run_cli
from ecat.monad import fkleisli, kleisli_universal_extend, univalent_kleisli
from ecat.vbase import check_category, check_closed, check_monoidal, check_symmetric

import oracles
from harness import Op, one_pass

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
SCANS = {"category": check_category, "monoidal": check_monoidal,
         "symmetric": check_symmetric, "closed": check_closed}
# documents small enough for the functor category of their one enrichment
FUNCTOR_CATEGORY_DOCS = ("bool_chain2", "bool_chain3", "bool_codiscrete2", "bool_two_iso_points",
                         "bool_random0", "bool_random1")
_COMPLETION = re.compile(r"^# completion_objects: (\d+)$", re.M)


# the JSON exports, removed when the run ends
WORK = HERE / f".work-{os.getpid()}"


def close() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def cli(tracer, command: str, argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span(f"cli.{command}"):
            code = run_cli(argv)
    return code, out.getvalue()


def _round_trip(text: str) -> bool:
    doc, _ = dsl.parse(text)
    if doc is None or dsl.serialize(doc) != text:
        return False
    back, _ = dsl.from_json(dsl.to_json(doc))
    return back is not None and dsl.serialize(back) == text


def _only(bs: list[dict], kind: str) -> list[dict]:
    return [b for b in bs if b["kind"] == kind]


def _hom_table_of_output(text: str, as_json: bool) -> tuple[int, dict]:
    """Object count and hom sizes of the last enrichment a command printed."""
    if as_json:
        item = [i for i in json.loads(text)["items"] if i["kind"] == "enrichment"][-1]
        return item["tables"]["objects"], {tuple(k): v for k, v in item["tables"]["hom"]}
    return oracles.enrichment_shape(_only(oracles.blocks(text), "enrichment")[-1]["body"])


def _construct_op(argv: list[str], as_json: bool, whole_table: bool):
    """Verdict: exit code and the printed enrichment's object count, or its
    object count and hom sizes when ``whole_table``."""
    def run(tracer):
        code, out = cli(tracer, "construct", (["--format", "json"] if as_json else []) + argv)
        if code != 0:
            return code, None
        n, homs = _hom_table_of_output(out, as_json)
        return code, (n, homs) if whole_table else n

    return run


def _base_objects(text: str) -> int:
    m = re.search(r"^base \S+ = builtin\((\w+)(?:, n=(\d+))?\)$", text, re.M)
    if m:
        return 2 if m.group(1) == "bool" else int(m.group(2)) + 2
    return int(re.search(r"^  objects (\d+)$", text, re.M).group(1))


def _command_ops(name: str, path: str, text: str) -> list[Op]:
    """The non-check commands a document supports, with known answers."""
    bs = oracles.blocks(text)
    enrs = {b["name"]: oracles.enrichment_shape(b["body"]) for b in _only(bs, "enrichment")}
    ops = []
    if len(enrs) == 1 and not _only(bs, "functor"):
        (n, homs), = enrs.values()
        classes = oracles.iso_classes(n, lambda x, y: homs.get((x, y), 0) > 0)

        def rezk(tracer):
            code, out = cli(tracer, "rezk", ["rezk", path])
            return code, int(_COMPLETION.search(out).group(1))

        ops.append(Op(f"rezk {name}", rezk, (0, classes)))
        opposite = (n, {(y, x): k for (x, y), k in homs.items()})
        for as_json in (False, True):
            ops.append(Op(f"construct opposite {name} json={as_json}",
                          _construct_op(["construct", "opposite", path], as_json, True), (0, opposite)))
        if name in FUNCTOR_CATEGORY_DOCS:
            count = oracles.monotone_map_count(n, homs, n, homs)
            for as_json in (False, True):
                ops.append(Op(f"construct functor-category {name} json={as_json}",
                              _construct_op(["construct", "functor-category", path], as_json, False),
                              (0, count)))
    if not enrs and name.startswith("base_"):
        k = _base_objects(text)
        for as_json in (False, True):
            ops.append(Op(f"construct self {name} json={as_json}",
                          _construct_op(["construct", "self", path], as_json, False), (0, k)))
    for b in _only(bs, "functor"):
        f = b["name"]
        # image factorization always exists: the verdicts are all true
        ops.append(Op(f"factorize {name} {f}",
                      lambda tracer, f=f: cli(tracer, "factorize", ["factorize", path, "--functor", f])[0], 0))
        (n1, h1), (n2, h2) = enrs[b["dom"]], enrs[b["cod"]]
        if all(k <= 1 for k in [*h1.values(), *h2.values()]):
            weq = oracles.thin_weak_equivalence(n1, h1, n2, h2, oracles.functor_ob_map(b["body"]))
            ops.append(Op(f"equivalence {name} {f}",
                          lambda tracer, f=f: cli(tracer, "equivalence", ["equivalence", path, "--functor", f])[0],
                          0 if weq else 1))
    if re.search(r"^monad ", text, re.M):
        for variant in ("raw", "univalent"):
            def kleisli(tracer, variant=variant):
                code, out = cli(tracer, "kleisli", ["--format", "json", "kleisli", path, "--variant", variant])
                verdict = json.loads(out)
                return code, all(v is not False for v in verdict.values())

            # both presentations of a lawful monad's Kleisli object are lawful
            ops.append(Op(f"kleisli {variant} {name}", kleisli, (0, True)))
    if re.search(r"^cocone ", text, re.M):
        ops.append(Op(f"kleisli-ump {name}",
                      lambda tracer: cli(tracer, "kleisli-ump", ["kleisli-ump", path])[0], 0))
    return ops


def setup(rng) -> list[Op]:
    close()
    WORK.mkdir()
    ops = []
    for src in sorted(CORPUS.glob("*.ecat")):
        name, path = src.stem, str(src)
        text = src.read_text(encoding="utf-8")
        bad = name.startswith("bad_")
        expected = 1 if bad else 0
        ops.append(Op(f"check {name}", lambda tracer, p=path: cli(tracer, "check", ["check", p])[0], expected))
        doc, _ = dsl.parse(text)
        if doc is not None:
            target = WORK / f"{name}.json"
            target.write_text(dsl.to_json(doc), encoding="utf-8")
            ops.append(Op(f"check-json {name}",
                          lambda tracer, p=str(target): cli(tracer, "check_json", ["check", p])[0], expected))
        if not bad:
            ops.append(Op(f"round-trip {name}", lambda tracer, t=text: _round_trip(t), True))
            ops.extend(_command_ops(name, path, text))
    rng.shuffle(ops)
    return ops


def trace(ops, tracer, gate) -> tuple[dict, dict]:
    plain, _ = one_pass(ops, gate)
    traced, _ = one_pass(ops, gate, tracer)
    metrics = {"trace.overhead_ratio": traced / plain}
    for cmd in ("check", "check_json", "rezk", "kleisli", "kleisli-ump", "factorize", "equivalence", "construct"):
        metrics[f"cli.{cmd}.s"] = tracer.total(f"cli.{cmd}")
    metrics["cli.check.json_text_ratio"] = metrics["cli.check_json.s"] / metrics["cli.check.s"]

    # the front-end and back-end layers, called directly on the same corpus
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.ecat"))]
    docs = []
    for text in texts:
        with tracer.span("dsl.parse"):
            doc, _ = dsl.parse(text)
        if doc is not None:
            docs.append(doc)
    for doc in docs:
        with tracer.span("dsl.serialize"):
            dsl.serialize(doc)
        with tracer.span("dsl.to_json"):
            exported = dsl.to_json(doc)
        with tracer.span("dsl.from_json"):
            dsl.from_json(exported)
        for item in doc.of_kind("base"):
            V = item.value
            for family, scan in SCANS.items():
                if {"symmetric": V.symmetric, "closed": V.closed}.get(family, True):
                    with tracer.span(f"vbase.{family}.table"):
                        gate.check(f"{family} scan of a golden base", scan(V).ok, True)
        for item in doc.of_kind("monad"):
            with tracer.span("monad.fkleisli"):
                fkleisli(item.value)
            with tracer.span("monad.univalent_kleisli"):
                univalent_kleisli(item.value)
        for item in doc.of_kind("cocone"):
            with tracer.span("monad.kleisli_universal_extend"):
                kleisli_universal_extend(doc.get(item.refs["for"]).value, item.value)
    for name in ("dsl.parse", "dsl.serialize", "dsl.to_json", "dsl.from_json",
                 "monad.fkleisli", "monad.univalent_kleisli", "monad.kleisli_universal_extend"):
        metrics[f"{name}.s"] = tracer.total(name)
    metrics["dsl.parse.bytes_per_s"] = sum(len(t.encode()) for t in texts) / metrics["dsl.parse.s"]
    for family in SCANS:
        metrics[f"vbase.{family}.table.s"] = tracer.total(f"vbase.{family}.table")
    shares = {f"cli.{cmd}": tracer.total(f"cli.{cmd}") for cmd in
              ("check", "check_json", "rezk", "kleisli", "kleisli-ump", "factorize", "equivalence", "construct")}
    shares["round trips (dsl)"] = traced - sum(shares.values())
    return metrics, shares
