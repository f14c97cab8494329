import functools
import itertools
import json
import random
import re
from argparse import Namespace
from pathlib import Path

import pytest

import cli_corpus
from helpers import reference_from_json, reference_parse, reference_serialize, reference_to_json
from ecat import dsl
from ecat.cli import Verdict, _emit, run_cli
from ecat.core import EnrichedFunctor, check_enrichment, id_functor, id_transformation, thin_enrichment
from ecat.dsl import Diagnostic, Document, Item, Span, from_json, load, parse, serialize, to_json
from ecat.monad import EnrichedMonad, fkleisli_cocone
from ecat.report import CheckReport, Failure
from ecat.vbase import MorRef, bool_base

GOLDEN = Path(__file__).parent / "golden"
POSITIVE = sorted(p for p in GOLDEN.glob("*.ecat") if not p.name.startswith("bad_"))
NEGATIVE = sorted(p for p in GOLDEN.glob("bad_*.ecat"))


def test_corpus_is_large_enough():
    assert len(POSITIVE) >= 30


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.name)
def test_round_trip_bytes(path):
    text = path.read_text(encoding="utf-8")
    doc, diags = parse(text)
    assert doc is not None, [d.describe() for d in diags]
    assert serialize(doc) == text


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.name)
def test_parse_serialize_structural(path):
    text = path.read_text(encoding="utf-8")
    doc, _ = parse(text)
    doc2, diags = parse(serialize(doc))
    assert doc2 is not None, [d.describe() for d in diags]
    assert doc.structurally_equal(doc2)


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.name)
def test_json_export_agrees(path):
    text = path.read_text(encoding="utf-8")
    doc, _ = parse(text)
    payload = json.loads(to_json(doc))
    assert len(payload["items"]) == len(doc.items)
    for entry, item in zip(payload["items"], doc.items):
        assert entry["kind"] == item.kind
        assert entry["name"] == item.name
        if item.kind == "enrichment":
            tables = entry["tables"]
            assert tables["objects"] == item.value.under.n_objects
            assert len(tables["fromarr"]) == len(item.value.from_arr_t)
            # spot-check a hom entry agrees with the parsed value
            for (k, v) in tables["homobj"]:
                assert item.value.hom(k[0], k[1]) == v


def test_empty_document():
    doc, diags = parse("")
    assert doc is not None and doc.items == []
    assert serialize(doc) == ""


NEGATIVE_SOURCES = [
    ("base V = builtin(nope)\n", "unknown builtin"),
    ("base V = builtin(cost)\n", "cannot construct"),
    ("wat is this\n", "unrecognized declaration"),
    ("base V {\n  objects 1\n", "unterminated block"),
    ("base V = builtin(bool)\nbase V = builtin(bool)\n", "duplicate name"),
    ("functor F : A -> B {\n}\n", "unknown reference"),
    ("base V = builtin(bool)\nenrichment E over V {\n  hom (0,0) = 1\n}\n", "missing an 'objects'"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 1\n  hom (0,0) = 1\n  id 0 = (0,0,0)\n  then (0,0,0)(0,0,0) = (0,0,0)\n  homobj (0,0) = 9\n  eid 0 = (1,1,0)\n  fromarr (0,0,0) = (1,1,0)\n}\n", "not a base object"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 1\n  hom (0,0) = 1\n  id 0 = (0,0,0)\n  then (0,0,0)(0,0,0) = (0,0,0)\n  homobj (0,0) = 1\n  eid 0 = (1,1,5)\n  fromarr (0,0,0) = (1,1,0)\n}\n", "out of base range"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 2\n  hom (0,0) = 1\n  hom (1,1) = 1\n  hom (0,1) = 2\n  id 0 = (0,0,0)\n  id 1 = (1,1,0)\n  then (0,0,0)(0,0,0) = (0,0,0)\n  then (1,1,0)(1,1,0) = (1,1,0)\n  then (0,0,0)(0,1,0) = (0,1,0)\n  then (0,0,0)(0,1,1) = (0,1,1)\n  then (0,1,0)(1,1,0) = (0,1,0)\n  then (0,1,1)(1,1,0) = (0,1,1)\n  homobj (0,0) = 1\n  homobj (0,1) = 1\n  homobj (1,0) = 0\n  homobj (1,1) = 1\n  eid 0 = (1,1,0)\n  eid 1 = (1,1,0)\n  fromarr (0,0,0) = (1,1,0)\n  fromarr (0,1,0) = (1,1,0)\n  fromarr (0,1,1) = (1,1,0)\n  fromarr (1,1,0) = (1,1,0)\n}\n", "not injective"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 1\n  hom (0,0) = 1\n  id 0 = (0,0,5)\n  then (0,0,0)(0,0,0) = (0,0,0)\n  homobj (0,0) = 1\n  eid 0 = (1,1,0)\n  fromarr (0,0,0) = (1,1,0)\n}\n", "out-of-range"),
    ("base V {\n  objects 1\n  unit 0\n  hom (0,0) = 1\n  id 0 = (0,0,9)\n}\n", "out-of-range"),
    ("base V {\n  objects 1\n  hom (0,0) = 1\n  id 0 = (0,0,0)\n}\n", "missing a 'unit'"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 1\n  homm (0,0) = 1\n}\n", "unexpected entry"),
    ("base V = builtin(bool)\nenrichment E over V {\n  objects 1\n  hom (0,0 = 1\n}\n", "malformed"),
]


@pytest.mark.parametrize("source,needle", NEGATIVE_SOURCES, ids=range(len(NEGATIVE_SOURCES)))
def test_negative_sources_have_spanned_diagnostics(source, needle):
    doc, diags = parse(source)
    assert doc is None
    assert diags
    lines = source.splitlines()
    for d in diags:
        assert isinstance(d, Diagnostic)
        assert 1 <= d.span.line <= len(lines)
        assert 1 <= d.span.col <= d.span.end_col
    assert any(needle in d.message for d in diags), [d.describe() for d in diags]


@pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.name)
def test_negative_files(path, capsys):
    code = run_cli(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out or "error" in out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_check_ok(capsys):
    code = run_cli(["check", str(GOLDEN / "bool_chain2.ecat")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[enrichment] ok" in out


def test_cli_check_failure_names_instance(capsys):
    code = run_cli(["check", str(GOLDEN / "bad_triangle.ecat")])
    out = capsys.readouterr().out
    assert code == 1
    assert "composition" in out


def test_cli_json_format(capsys):
    code = run_cli(["--format", "json", "check", str(GOLDEN / "bool_chain2.ecat")])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_cli_rezk_two_iso_points(capsys):
    code = run_cli(["rezk", str(GOLDEN / "bool_two_iso_points.ecat")])
    out = capsys.readouterr().out
    assert code == 0
    assert "# completion_objects: 1" in out
    assert "# skeletal: True" in out


def test_cli_usage_error(capsys):
    assert run_cli(["wat"]) == 2
    capsys.readouterr()
    assert run_cli([]) == 2
    capsys.readouterr()


def test_cli_missing_file(capsys):
    assert run_cli(["check", str(GOLDEN / "enoent.ecat")]) == 1
    capsys.readouterr()


def test_cli_kleisli_variants(capsys):
    path = str(GOLDEN / "monad_toppoint.ecat")
    assert run_cli(["kleisli", path, "--variant", "raw"]) == 0
    capsys.readouterr()
    assert run_cli(["kleisli", path, "--variant", "univalent"]) == 0
    capsys.readouterr()


def test_cli_kleisli_ump(capsys):
    path = str(GOLDEN / "cocone_toppoint.ecat")
    assert run_cli(["kleisli-ump", path]) == 0
    capsys.readouterr()


def test_cli_factorize_and_equivalence(capsys):
    path = str(GOLDEN / "functors_chain2.ecat")
    assert run_cli(["factorize", path, "--functor", "F1"]) == 0
    capsys.readouterr()
    assert run_cli(["equivalence", path, "--functor", "F1"]) == 0
    capsys.readouterr()
    # the constant functor is not a weak equivalence
    assert run_cli(["equivalence", path, "--functor", "F0"]) == 1
    capsys.readouterr()


def test_cli_precomp_check(capsys):
    files = [str(GOLDEN / "bool_two_iso_points.ecat")]
    # build a combined document: completion functor needs to exist in a file;
    # simpler path: identity precomposition over one enrichment
    path = str(GOLDEN / "functors_chain2.ecat")
    assert run_cli(["precomp-check", path, "--functor", "F1", "--target", "E"]) == 0
    capsys.readouterr()


def test_cli_enum_functors(capsys):
    path = str(GOLDEN / "bool_chain2.ecat")
    code = run_cli(["enum-functors", path, "--dom", "E", "--cod", "E"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 enriched functor(s)" in out


def test_cli_construct_ops(tmp_path, capsys):
    src = str(GOLDEN / "bool_chain2.ecat")
    out = tmp_path / "out.ecat"
    assert run_cli(["construct", "self", src, "--name", "S", "--out", str(out)]) == 0
    capsys.readouterr()
    doc, diags = parse(out.read_text(encoding="utf-8"))
    assert doc is not None and doc.get("S") is not None
    assert check_enrichment(doc.get("S").value).ok

    assert run_cli(["construct", "opposite", src, "--name", "Op", "--out", str(out)]) == 0
    capsys.readouterr()
    doc, _ = parse(out.read_text(encoding="utf-8"))
    assert doc is not None and check_enrichment(doc.get("Op").value).ok

    assert run_cli(["construct", "full-sub", src, "--name", "Sub", "--keep", "0",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    doc, _ = parse(out.read_text(encoding="utf-8"))
    assert doc is not None
    assert doc.get("Sub").value.n_objects == 1
    assert doc.get("Sub_inclusion") is not None

    assert run_cli(["construct", "functor-category", src, "--name", "FC",
                    "--enrichment", "E", "--cod", "E", "--out", str(out)]) == 0
    capsys.readouterr()
    doc, _ = parse(out.read_text(encoding="utf-8"))
    assert doc is not None and doc.get("FC").value.n_objects == 3


def test_cli_kleisli_json(capsys):
    path = str(GOLDEN / "monad_toppoint.ecat")
    assert run_cli(["--format", "json", "kleisli", path, "--variant", "univalent"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["items"][0]["skeletal"]["ok"] is True
    assert payload["items"][0]["comparison_fully_faithful"]["ok"] is True


def test_cli_out_gets_the_document_in_either_format(tmp_path, capsys):
    """--out receives the built document in the chosen format; stdout gets
    the verdict (the `#` lines in text)."""
    commands = [
        ["rezk", str(GOLDEN / "bool_two_iso_points.ecat")],
        ["kleisli", str(GOLDEN / "monad_toppoint.ecat"), "--variant", "univalent"],
        ["factorize", str(GOLDEN / "functors_chain2.ecat"), "--functor", "F1"],
    ]
    for argv in commands:
        for fmt, read in (("text", parse), ("json", from_json)):
            out = tmp_path / f"{argv[0]}.{fmt}"
            assert run_cli(["--format", fmt, *argv, "--out", str(out)]) == 0
            doc, diags = read(out.read_text(encoding="utf-8"))
            assert doc is not None and len(doc.items) == 2, diags
            stdout = capsys.readouterr().out
            if fmt == "json":
                assert json.loads(stdout)["ok"] is True
            else:
                assert stdout and all(line.startswith("# ") for line in stdout.splitlines())


def test_cli_full_sub_keep_takes_object_indices(capsys):
    src = str(GOLDEN / "bool_chain2.ecat")
    assert run_cli(["construct", "full-sub", src, "--keep", "a"]) == 2
    assert "argument --keep: not a comma-separated list of object indices: 'a'" in capsys.readouterr().err
    error = "--keep 7 is not an object of 'E'"
    assert run_cli(["construct", "full-sub", src, "--keep", "0,7"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert run_cli(["--format", "json", "construct", "full-sub", src, "--keep", "7"]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}


def test_cli_enum_functors_resolves_dom_and_cod_by_name(capsys):
    path = str(GOLDEN / "bool_chain2.ecat")
    for flag in ("--dom", "--cod"):
        for name in ("V", "nosuch"):
            assert run_cli(["enum-functors", path, flag, name]) == 1
            assert capsys.readouterr() == ("", f"error: no enrichment named {name!r}\n")
    assert run_cli(["enum-functors", path]) == 0
    assert "3 enriched functor(s)" in capsys.readouterr().out


def test_emit_exit_code_and_failing_trailer(capsys):
    """Exit 0 iff every report is ok, whatever the facts; a failing report
    in a document's trailer adds `#` lines, so stdout still loads."""
    doc, _ = parse((GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8"))
    text, as_json = Namespace(format="text", out=None), Namespace(format="json", out=None)
    assert _emit(text, Verdict([("E", {"skeletal": CheckReport(True)})], {"gaunt": False}, doc.items)) == 0
    assert capsys.readouterr().out.endswith("# gaunt: False\n# skeletal: True\n")
    failing = CheckReport.from_failures([Failure("fully-faithful", (0, 1))])
    verdict = Verdict([("E", {"unit_fully_faithful": failing})], {"objects": 2}, doc.items)
    assert _emit(text, verdict) == 1
    out = capsys.readouterr().out
    assert out.endswith("# objects: 2\n# unit_fully_faithful: False\n#   fully-faithful at (0, 1)\n")
    assert parse(out)[0] is not None
    assert _emit(as_json, verdict) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["items"] == [{"item": "E", "objects": 2, "unit_fully_faithful": failing.to_json()}]


@pytest.mark.parametrize("form", cli_corpus.FORMS)
def test_cli_corpus_outputs_are_well_formed(form):
    """Over the golden corpus: every JSON stdout parses, a verdict's ok is
    "exit code 0", and the text of a built document, `#` lines and all,
    loads. The cells in cli_corpus.SLOW are left to the suites that run them."""
    for name in cli_corpus.FILES:
        if (form, name) in cli_corpus.SLOW:
            continue
        code, out, _ = cli_corpus.run(form, name, "json")
        payload = json.loads(out)
        if "ok" in payload:
            assert payload["ok"] == (code == 0), name
        if form in cli_corpus.DOCUMENT_FORMS and "error" not in payload and not payload.get("diagnostics"):
            code, out, _ = cli_corpus.run(form, name, "text")
            doc, diags = parse(out)
            assert doc is not None and doc.items, (name, [d.describe() for d in diags])


@pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.name)
def test_machine_format_round_trip(path):
    text = path.read_text(encoding="utf-8")
    doc, _ = parse(text)
    payload = to_json(doc)
    doc2, diags = from_json(payload)
    assert doc2 is not None, [d.describe() for d in diags]
    assert doc.structurally_equal(doc2)
    assert to_json(doc2) == payload  # bit-exact machine round trip


def test_machine_format_negatives():
    doc, diags = from_json("{not json")
    assert doc is None and diags and diags[0].span.line >= 1
    doc, diags = from_json('{"items": [{"kind": "alien", "name": "x"}]}')
    assert doc is None and "unknown item kind" in diags[0].message
    doc, diags = from_json('{"items": [{"kind": "base", "name": "V"}]}')
    assert doc is None


def test_cli_accepts_machine_files(tmp_path, capsys):
    text = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8")
    doc, _ = parse(text)
    machine = tmp_path / "chain2.ecat.json"
    machine.write_text(to_json(doc), encoding="utf-8")
    assert run_cli(["check", str(machine)]) == 0
    capsys.readouterr()


JSON_PINS = sorted((GOLDEN / "json").glob("*.json"))


def test_json_pins_present():
    assert [p.stem for p in JSON_PINS] == ["base_cost2_tables", "cocone_toppoint", "monad_toppoint"]


@pytest.mark.parametrize("path", JSON_PINS, ids=lambda p: p.name)
def test_json_export_bytes_pinned(path):
    doc, _ = parse((GOLDEN / f"{path.stem}.ecat").read_text(encoding="utf-8"))
    assert to_json(doc) == path.read_text(encoding="utf-8")


def test_make_golden_reproduces_corpus(tmp_path, capsys):
    import make_golden

    make_golden.main(tmp_path)
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob("*.ecat"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# ---------------------------------------------------------------------------
# machine files through the CLI: diagnostics at JSON paths
# ---------------------------------------------------------------------------

def _machine_file(tmp_path, mutate):
    """bool_chain2 as a machine file (items[0] the base, items[1] the
    enrichment), edited by ``mutate``."""
    doc, _ = parse((GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8"))
    payload = json.loads(to_json(doc))
    mutate(payload["items"][1])
    path = tmp_path / "bad.ecat.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_json_short_row_is_a_diagnostic(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e["tables"]["eid"].__setitem__(0, [0]))
    assert run_cli(["check", path]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{path}:items[1].tables.eid[0]: error: malformed 'eid' entry: [0]"]


@pytest.mark.parametrize("row", [[True, [1, 1, 0]], [0, [1, 1.0, 0]], [0, [1, 1, -1]], [0, [1, [1], 0]],
                                 [0, [1, 1, 0, 0]], ["0", [1, 1, 0]], [0, {"1": 1}], "ab"], ids=json.dumps)
def test_json_malformed_row_is_a_diagnostic(row, tmp_path, capsys):
    """A row that is not [object, morphism] in non-negative JSON integers."""
    path = _machine_file(tmp_path, lambda e: e["tables"]["eid"].__setitem__(0, row))
    assert run_cli(["check", path]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{path}:items[1].tables.eid[0]: error: malformed 'eid' entry: {json.dumps(row)}"]


@pytest.mark.parametrize("row", [
    [[0, 0, 0, [0, 0]], [0, 1, 0]], [[0, 0, [0], [0, 0, 0]], [0, 1, 0]], [[0, 0, 0, 0], [0, 1, 0]],
    [[0, 0, 0, [0, 0, True]], [0, 1, 0]], [[0, 0, 0, [0, 0, 0]], [[0], 1, 0]],
], ids=json.dumps)
def test_json_malformed_lam_row_is_a_diagnostic(row, tmp_path, capsys):
    """A lam row, whose key mixes objects and a morphism, nested wrongly."""
    payload = json.loads(to_json(parse((GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8"))[0]))
    payload["items"][0]["tables"]["lam"][0] = row
    path = tmp_path / "bad.ecat.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{path}:items[0].tables.lam[0]: error: malformed 'lam' entry: {json.dumps(row)}")


def test_json_name_with_newline_is_one_diagnostic(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e.__setitem__("name", "E\nenrichment X over V {"))
    assert run_cli(["check", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{path}:items[1].name: error: invalid name")


def test_json_out_of_range_reported_once_at_json_path(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e["tables"]["eid"][0].__setitem__(1, [1, 1, 7]))
    assert run_cli(["check", path]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{path}:items[1].tables.eid[0]: error: eid entry (1,1,7) is out of base range"]


_ONE_POINT = """base V = builtin(bool)
enrichment E over V {{
  objects 1
  hom (0,0) = 1
  id 0 = {id}
  then (0,0,0)(0,0,0) = (0,0,0)
  homobj (0,0) = 1
  eid 0 = (1,1,0)
  ecomp (0,0,0) = (1,1,0)
  fromarr (0,0,0) = (1,1,0)
{extra}}}
"""


def test_text_enrichment_underlying_rows_range_checked(tmp_path, capsys):
    path = tmp_path / "bad.ecat"
    path.write_text(_ONE_POINT.format(id="(0,0,5)", extra="  hom (0,2) = 1\n"), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:11:3: error: hom entry at (0, 2) references an out-of-range object or morphism",
        f"{path}:5:3: error: id entry at 0 references an out-of-range object or morphism",
    ]


def test_json_enrichment_underlying_rows_range_checked(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e["tables"]["then"][0].__setitem__(1, [0, 0, 5]))
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:items[1].tables.then[0]: error: then entry at ((0,0,0), (0,0,0))"
        " references an out-of-range object or morphism"
    ]


def test_text_repeated_entries_are_diagnostics(tmp_path, capsys):
    path = tmp_path / "twice.ecat"
    path.write_text(_ONE_POINT.format(id="(0,0,0)", extra="  objects 2\n  eid 0 = (1,1,0)\n"), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:11:3: error: repeated 'objects' entry",
        f"{path}:12:3: error: repeated 'eid' entry at 0",
    ]
    doc, diags = parse("monad T on E {\n  endo F\n  endo G\n}\n")
    assert doc is None and diags[0].describe() == "3:3: error: repeated 'endo' entry"


def test_json_repeated_entries_are_diagnostics(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e["tables"]["eid"].append(e["tables"]["eid"][0]))
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{path}:items[1].tables.eid[2]: error: repeated 'eid' entry at 0"]
    path = _machine_file(tmp_path, lambda e: None)
    text = Path(path).read_text(encoding="utf-8").replace('"objects": 2', '"objects": 2, "objects": 3')
    text = text.replace('"name": "E"', '"name": "E", "name": "F"')
    doc, diags = from_json(text)
    assert doc is None
    assert [(str(d.span), d.message) for d in diags] == [
        ("items[0].tables.objects", "repeated 'objects' entry"),
        ("items[1].name", "repeated 'name' entry"),
        ("items[1].tables.objects", "repeated 'objects' entry"),
    ]


def test_json_unknown_table_and_missing_reference(tmp_path):
    path = _machine_file(tmp_path, lambda e: (e["tables"].__setitem__("homs", []), e.pop("over")))
    doc, diags = load([path])
    assert doc is None
    assert [str(d.span) for d in diags] == [f"{path}:items[1].over"]
    path = _machine_file(tmp_path, lambda e: e["tables"].__setitem__("homs", []))
    doc, diags = load([path])
    assert [(str(d.span), d.message) for d in diags] == [
        (f"{path}:items[1].tables.homs", "unexpected entry 'homs' in this block")
    ]


# ---------------------------------------------------------------------------
# several files, one namespace
# ---------------------------------------------------------------------------

def test_load_later_file_references_earlier(tmp_path, capsys):
    text = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8")
    head, rest = text.split("\n\n", 1)  # the base block, then the enrichment
    base = tmp_path / "base.ecat"
    base.write_text(head + "\n", encoding="utf-8")
    enr = tmp_path / "enr.ecat"
    enr.write_text(rest, encoding="utf-8")
    doc, diags = load([str(base), str(enr)])
    assert doc is not None, [d.describe() for d in diags]
    assert [i.name for i in doc.items] == ["V", "E"]
    assert doc.get("E").span.path == str(enr)
    assert check_enrichment(doc.get("E").value).ok

    # a machine file may reference a text file's declarations too
    machine = tmp_path / "enr.ecat.json"
    machine.write_text(to_json(Document([doc.get("E")])), encoding="utf-8")
    doc2, diags = load([str(base), str(machine)])
    assert doc2 is not None, [d.describe() for d in diags]
    assert doc.structurally_equal(doc2)
    assert run_cli(["rezk", str(base), str(machine)]) == 0
    capsys.readouterr()


def test_load_duplicate_name_across_files(capsys):
    first, second = str(GOLDEN / "bool_chain2.ecat"), str(GOLDEN / "bool_chain3.ecat")
    doc, diags = load([first, second])
    assert doc is None
    assert diags[0].describe() == f"{second}:1:1: error: duplicate name 'V'"
    assert run_cli(["construct", "self", first, second]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{second}:1:1: error: duplicate name 'V'"


def test_cli_functor_category_missing_ecomp(capsys):
    code = run_cli(["construct", "functor-category", str(GOLDEN / "bad_triangle.ecat")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: missing ecomp entry")


def _chain2_text(tmp_path, *edits) -> str:
    """bool_chain2 as a text file with lines of the enrichment block
    replaced by the (old, new) pairs of ``edits``."""
    head, rest = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8").split("\n\n", 1)
    for old, new in edits:
        assert old in rest
        rest = rest.replace(old, new, 1)
    path = tmp_path / "bad.ecat"
    path.write_text(head + "\n\n" + rest, encoding="utf-8")
    return str(path)


def test_text_underlying_row_shapes_checked(tmp_path, capsys):
    path = _chain2_text(
        tmp_path,
        ("  id 1 = (1,1,0)\n", "  id 1 = (0,0,0)\n"),
        ("  then (0,0,0)(0,1,0) = (0,1,0)\n", "  then (0,0,0)(0,1,0) = (0,0,0)\n"),
        ("  then (0,1,0)(1,1,0) = (0,1,0)\n", "  then (0,1,0)(0,0,0) = (0,1,0)\n"),
    )
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:79:3: error: id entry at 1 is (0,0,0), not a morphism 1 -> 1",
        f"{path}:81:3: error: then entry at ((0,0,0), (0,1,0)) is (0,0,0), not a morphism 0 -> 1",
        f"{path}:82:3: error: then entry at ((0,1,0), (0,0,0)): (0,1,0) ends at 1 and (0,0,0) starts at 0",
    ]
    # a base block's underlying rows get the same check
    text = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8").split("\n\n", 1)[0]
    doc, diags = parse(text.replace("then (0,0,0)(0,1,0) = (0,1,0)", "then (0,0,0)(0,1,0) = (0,0,0)", 1) + "\n")
    assert doc is None
    assert [d.describe() for d in diags] == [
        "11:3: error: then entry at ((0,0,0), (0,1,0)) is (0,0,0), not a morphism 0 -> 1"
    ]


def test_json_underlying_row_shapes_checked(tmp_path, capsys):
    path = _machine_file(tmp_path, lambda e: e["tables"]["then"][1].__setitem__(1, [0, 0, 0]))
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:items[1].tables.then[1]: error: then entry at ((0,0,0), (0,1,0)) is (0,0,0), not a morphism 0 -> 1"
    ]


def test_fromarr_key_must_be_an_underlying_morphism(tmp_path, capsys):
    stray = "  fromarr (1,1,0) = (1,1,0)\n  fromarr (1,0,0) = (1,1,0)\n"
    path = _chain2_text(tmp_path, ("  fromarr (1,1,0) = (1,1,0)\n", stray))
    assert run_cli(["check", path]) == 1
    message = "error: fromarr entry at (1,0,0) references an out-of-range object or morphism"
    assert capsys.readouterr().out.splitlines() == [f"{path}:101:3: {message}"]
    path = _machine_file(tmp_path, lambda e: e["tables"]["fromarr"].append([[1, 0, 0], [1, 1, 0]]))
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{path}:items[1].tables.fromarr[3]: {message}"]


ENRICHED_SHAPE_ERRORS = [
    "eid entry at 1 is (0,0,0), not a morphism 1 -> 1",
    "ecomp entry at (1, 1, 1) is (0,1,0), not a morphism 1 -> 1",
    "fromarr entry at (0,1,0) is (0,1,0), not a morphism 1 -> 1",
]


def test_text_enriched_row_shapes_checked(tmp_path, capsys):
    path = _chain2_text(
        tmp_path,
        ("  eid 1 = (1,1,0)\n", "  eid 1 = (0,0,0)\n"),
        ("  ecomp (1,1,1) = (1,1,0)\n", "  ecomp (1,1,1) = (0,1,0)\n"),
        ("  fromarr (0,1,0) = (1,1,0)\n", "  fromarr (0,1,0) = (0,1,0)\n"),
    )
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:{line}:3: error: {message}" for line, message in zip((89, 97, 99), ENRICHED_SHAPE_ERRORS)
    ]


def test_json_enriched_row_shapes_checked(tmp_path, capsys):
    def mutate(e):
        e["tables"]["eid"][1][1] = [0, 0, 0]
        e["tables"]["ecomp"][7][1] = [0, 1, 0]
        e["tables"]["fromarr"][1][1] = [0, 1, 0]

    path = _machine_file(tmp_path, mutate)
    assert run_cli(["check", path]) == 1
    rows = ("eid[1]", "ecomp[7]", "fromarr[1]")
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:items[1].tables.{row}: error: {message}" for row, message in zip(rows, ENRICHED_SHAPE_ERRORS)
    ]


# one row of a transformation-like item, edited: (golden file, item, table,
# key, value before, value after, the located diagnostic)
COMPONENT_ROW_CASES = [
    ("transformation_chain2.ecat", "t", "at", 1, (0, 1, 0), (1, 1, 0),
     "at entry at 1 is (1,1,0), not a morphism 0 -> 1"),
    ("transformation_chain2.ecat", "F1", "mor", (0, 1, 0), (1, 1, 0), (0, 1, 0),
     "mor entry at (0,1,0) is (0,1,0), not a morphism 1 -> 1"),
    ("monad_toppoint.ecat", "M", "unit", 0, (0, 2, 0), (0, 0, 0),
     "unit entry at 0 is (0,0,0), not a morphism 0 -> 2"),
    ("monad_toppoint.ecat", "M", "mult", 1, (1, 1, 0), (1, 2, 0),
     "mult entry at 1 is (1,2,0), not a morphism 1 -> 1"),
    ("cocone_toppoint.ecat", "Q", "cell", 0, (2, 0, 0), (2, 2, 0),
     "cell entry at 0 is (2,2,0), not a morphism 2 -> 0"),
    ("cocone_toppoint.ecat", "Q", "cell", 0, (2, 0, 0), (2, 0, 9),
     "cell component (2,0,9) out of range"),
]


def _row_text(v) -> str:
    return f"({','.join(map(str, v))})" if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize("case", COMPONENT_ROW_CASES, ids=lambda c: f"{c[0]}-{c[2]}-{_row_text(c[5])}")
def test_component_row_shapes_checked(case, tmp_path, capsys):
    """transformation, monad, cocone and functor-mor rows are located
    diagnostics in both formats, not unlocated errors of a later check."""
    source, name, keyword, key, before, after, message = case
    text = (GOLDEN / source).read_text(encoding="utf-8")
    row = f"  {keyword} {_row_text(key)} = {_row_text(before)}\n"
    at = text.index(row, re.search(rf"^\w+ {name} ", text, re.M).start())
    path = tmp_path / source
    path.write_text(text[:at] + f"  {keyword} {_row_text(key)} = {_row_text(after)}\n" + text[at + len(row):],
                    encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    line = text[:at].count("\n") + 1
    assert capsys.readouterr().out.splitlines()[0] == f"{path}:{line}:3: error: {message}"

    payload = json.loads(to_json(parse(text)[0]))
    i = next(i for i, item in enumerate(payload["items"]) if item["name"] == name)
    rows = payload["items"][i]["tables"][keyword]
    json_key = list(key) if isinstance(key, tuple) else key
    j = next(j for j, (k, _) in enumerate(rows) if k == json_key)
    rows[j][1] = list(after)
    machine = tmp_path / f"{source}.json"
    machine.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["check", str(machine)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{machine}:items[{i}].tables.{keyword}[{j}]: error: {message}"


# one table row of a golden file removed (value None) or added: (golden
# file, item, table, key, added value, the diagnostics as (item, key of the
# row it is located at or None for the declaration, message))
KEY_CASES = [
    ("monad_toppoint.ecat", "T", "ob", 1, None,
     [("T", None, "functor 'T' has no 'ob' entry at 1"), ("M", None, "unknown reference 'T'")]),
    ("functors_chain2.ecat", "F1", "ob", 1, None, [("F1", None, "functor 'F1' has no 'ob' entry at 1")]),
    ("functors_chain2.ecat", "F0", "mor", (0, 1, 0), None,
     [("F0", None, "functor 'F0' has no 'mor' entry at (0,1,0)")]),
    ("functors_chain2.ecat", "F2", "efun", (1, 0), None, [("F2", None, "functor 'F2' has no 'efun' entry at (1, 0)")]),
    ("transformation_chain2.ecat", "t", "at", 1, None, [("t", None, "transformation 't' has no 'at' entry at 1")]),
    ("monad_toppoint.ecat", "M", "unit", 2, None, [("M", None, "monad 'M' has no 'unit' entry at 2")]),
    ("monad_toppoint.ecat", "M", "mult", 0, None, [("M", None, "monad 'M' has no 'mult' entry at 0")]),
    ("cocone_toppoint.ecat", "Q", "cell", 1, None, [("Q", None, "cocone 'Q' has no 'cell' entry at 1")]),
    ("functors_chain2.ecat", "F0", "ob", 5, 0, [("F0", 5, "ob entry at 5 is outside the domain")]),
    ("functors_chain2.ecat", "F0", "mor", (1, 0, 0), (0, 0, 0),
     [("F0", (1, 0, 0), "mor entry at (1,0,0) is outside the domain")]),
    ("transformation_chain2.ecat", "t", "at", 2, (1, 1, 0), [("t", 2, "at entry at 2 is outside the domain")]),
    ("monad_toppoint.ecat", "M", "unit", 3, (2, 2, 0), [("M", 3, "unit entry at 3 is outside the domain")]),
    ("bool_chain2.ecat", "E", "eid", 5, (1, 1, 0),
     [("E", 5, "eid entry at 5 references an out-of-range object or morphism")]),
    ("bool_chain2.ecat", "E", "ecomp", (0, 3, 1), (1, 1, 0),
     [("E", (0, 3, 1), "ecomp entry at (0, 3, 1) references an out-of-range object or morphism")]),
    ("bool_chain2.ecat", "E", "homobj", (1, 0), None, [("E", None, "enrichment 'E' has no 'homobj' entry at (1, 0)")]),
    ("bool_chain2.ecat", "V", "homobj", (1, 0), None,
     [("V", None, "base 'V' has no 'homobj' entry at (1, 0)"), ("E", None, "unknown reference 'V'")]),
    ("bool_chain2.ecat", "V", "eval", (0, 1), None,
     [("V", None, "base 'V' has no 'eval' entry at (0, 1)"), ("E", None, "unknown reference 'V'")]),
]


def _bool_chain2_lines(capsys) -> list[str]:
    assert run_cli(["check", str(GOLDEN / "bool_chain2.ecat")]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("case", KEY_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{_row_text(c[3])}")
def test_tables_must_have_the_domain_keys(case, tmp_path, capsys):
    """A functor, transformation, monad or cocone table, an enrichment's hom
    objects or a closed base's hom objects and evaluations with a missing key
    are one diagnostic at the declaration, and an extra or out-of-range key
    one at its row, in both formats; the other files are still checked."""
    source, name, keyword, key, added, expected = case
    other = _bool_chain2_lines(capsys)
    text = (GOLDEN / source).read_text(encoding="utf-8")
    starts = {m.group(1): m.start() for m in re.finditer(r"^\w+ (\w+) ", text, re.M)}
    prefix = f"  {keyword} {_row_text(key)} = "
    if added is None:
        at = text.index(prefix, starts[name])
        edited = text[:at] + text[text.index("\n", at) + 1:]
    else:
        at = text.index("}\n", starts[name])
        edited = text[:at] + f"{prefix}{_row_text(added)}\n" + text[at:]

    def line_of(item, row_key):
        if row_key is None:
            return edited[:edited.index(f" {item} ")].count("\n") + 1
        row = f"  {keyword} {_row_text(row_key)} = "
        return edited[:edited.index(row, edited.index(f" {item} "))].count("\n") + 1

    path = tmp_path / source
    path.write_text(edited, encoding="utf-8")
    assert run_cli(["check", str(path), str(GOLDEN / "bool_chain2.ecat")]) == 1
    col = {True: 1, False: 3}
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:{line_of(item, row_key)}:{col[row_key is None]}: error: {message}"
        for item, row_key, message in expected
    ] + other

    payload = json.loads(to_json(parse(text)[0]))
    index = {item["name"]: i for i, item in enumerate(payload["items"])}
    rows = payload["items"][index[name]]["tables"][keyword]
    json_key = list(key) if isinstance(key, tuple) else key
    if added is None:
        rows[:] = [row for row in rows if row[0] != json_key]
    else:
        rows.append([json_key, list(added) if isinstance(added, tuple) else added])

    def pointer(item, row_key):
        if row_key is None:
            return f"items[{index[item]}]"
        return f"items[{index[item]}].tables.{keyword}[{len(rows) - 1}]"

    machine = tmp_path / f"{source}.json"
    machine.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["check", str(machine), str(GOLDEN / "bool_chain2.ecat")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{machine}:{pointer(item, row_key)}: error: {message}" for item, row_key, message in expected
    ] + other


def test_monad_and_cocone_need_endpoints_that_compose(tmp_path, capsys):
    """A monad whose endo is not an endofunctor of its carrier, and a cocone
    whose leg does not leave the carrier, are diagnostics at the declaration
    rather than a failure to compose while loading."""
    doc, _ = parse((GOLDEN / "cocone_toppoint.ecat").read_text(encoding="utf-8"))
    E, FK = doc.get("E").value, doc.get("FK").value
    P = thin_enrichment(E.base, 3, {(x, y): 1 for x in range(3) for y in range(3)}, name="P")
    K = EnrichedFunctor.tabulate(E, P, lambda x: x, lambda f: MorRef(f.src, f.dst, 0),
                                 lambda x, y: MorRef(E.hom(x, y), 1, 0))
    identities = "".join(f"  {table} {x} = ({x},{x},0)\n" for table in ("unit", "mult") for x in range(3))
    leg = Item("functor", "leg", id_functor(FK), {"dom": "FK", "cod": "FK"}, None)
    doc.items[doc.items.index(doc.get("leg"))] = leg
    doc.items[2:2] = [Item("enrichment", "P", P, {"over": "V"}, None),
                      Item("functor", "K", K, {"dom": "E", "cod": "P"}, None)]
    text = serialize(doc) + f"\nmonad N on E {{\n  endo K\n{identities}}}\n"
    path = tmp_path / "endpoints.ecat"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check", str(path), str(GOLDEN / "bool_chain2.ecat")]) == 1
    lines = {name: text[:text.index(f"{kind} {name} ")].count("\n") + 1
             for kind, name in (("cocone", "Q"), ("monad", "N"))}
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:{lines['Q']}:1: error: cocone 'Q': 'leg' does not go from the carrier of 'M' to 'FK'",
        f"{path}:{lines['N']}:1: error: monad 'N': 'K' is not an endofunctor of 'E'",
    ] + _bool_chain2_lines(capsys)


@pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.name)
def test_cli_json_check_of_bad_files_is_json_and_fails(path, capsys):
    code = run_cli(["--format", "json", "check", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    doc, diags = load([str(path)])
    assert payload["diagnostics"] == [d.describe() for d in diags]
    if doc is None:
        assert payload["items"] == []


COMMANDS = [
    ["check"], ["construct", "self"], ["construct", "opposite"], ["construct", "full-sub"],
    ["construct", "functor-category"], ["factorize"], ["equivalence"], ["rezk"],
    ["yoneda-check"], ["precomp-check"], ["kleisli"], ["kleisli-ump"], ["enum-functors"],
]


@pytest.mark.parametrize("command", COMMANDS, ids="-".join)
@pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.name)
def test_cli_json_of_every_command_on_bad_files_is_json(path, command, capsys):
    """A load failure or a refused command still prints one JSON object."""
    code = run_cli(["--format", "json", *command, str(path)])
    payload = json.loads(capsys.readouterr().out)
    doc, diags = load([str(path)])
    if doc is None:
        assert code == 1
        assert payload == {"ok": False, "items": [], "diagnostics": [d.describe() for d in diags]}
    elif code != 0:
        assert payload["ok"] is False


def _z2_cocone_with_generator_cell() -> str:
    """The canonical Kleisli cocone of the identity monad on Z2 with cell 0
    the generator, as a document: it loads, and breaks a cocone law."""
    doc, _ = parse((GOLDEN / "set_z2.ecat").read_text(encoding="utf-8"))
    base, E = doc.items
    idE = id_functor(E.value)
    T = EnrichedMonad(E.value, idE, id_transformation(idE), id_transformation(idE), name="M")
    q = fkleisli_cocone(T)
    q.cell.component[0] = MorRef(0, 0, 1)
    built = [
        ("functor", "I", idE, {"dom": "E", "cod": "E"}),
        ("monad", "M", T, {"on": "E", "endo": "I"}),
        ("enrichment", "FK", q.apex, {"over": base.name}),
        ("functor", "leg", q.leg, {"dom": "E", "cod": "FK"}),
        ("cocone", "Q", q, {"for": "M", "apex": "FK", "leg": "leg"}),
    ]
    return serialize(Document([base, E, *(Item(*fields, E.span) for fields in built)]))


def test_cli_refusals_go_through_the_error_handler(tmp_path, capsys):
    """A refused command prints one JSON object with --format json, and
    `error: ...` on stderr in text; the exit codes stay 1 or 2."""
    cocone = tmp_path / "cocone_z2_generator_cell.ecat"
    cocone.write_text(_z2_cocone_with_generator_cell(), encoding="utf-8")
    chain = str(GOLDEN / "functors_chain2.ecat")
    cases = [
        (["equivalence", chain, "--functor", "F0"], 1,
         "not a weak equivalence: not fully faithful at (1, 0)"),
        (["precomp-check", chain, "--functor", "F1"], 2,
         "precomp-check needs --target to pick the third enrichment"),
        (["precomp-check", chain, "--functor", "F0", "--target", "E"], 1,
         "not a weak equivalence: not fully faithful at (1, 0)"),
        (["enum-functors", str(GOLDEN / "base_bool.ecat")], 2,
         "enum-functors needs --dom and --cod"),
        (["kleisli-ump", str(cocone)], 1,
         "universal property failed: invalid Kleisli cocone: cocone-mult at (0,): lhs=(0,0,1) rhs=(0,0,0)"),
    ]
    for argv, code, error in cases:
        assert run_cli(["--format", "json", *argv]) == code
        assert json.loads(capsys.readouterr().out) == {"ok": False, "error": error}
        assert run_cli(argv) == code
        assert capsys.readouterr() == ("", f"error: {error}\n")


# one row of a golden file edited, with the diagnostic each checker reports
# at that row: (golden file, item index, table, row as written, the edited
# row, its JSON key, the edited JSON row, its text line, its JSON row index,
# message)
LOCATED_ROW_CASES = [
    ("bool_chain2.ecat", 0, "lam", "(0,0,0) (0,0,0) = (0,1,0)", "(0,0,0) (0,0,5) = (0,1,0)",
     [0, 0, 0, [0, 0, 0]], [[0, 0, 0, [0, 0, 5]], [0, 1, 0]], 63, 0,
     "lam entry at (0, 0, 0, (0,0,5)) references an out-of-range object or morphism"),
    ("bool_chain2.ecat", 0, "tensorobj", "(0,1) = 0", "(0,1) = 2", [0, 1], [[0, 1], 2], 15, 1,
     "tensorobj entry at (0, 1) references an out-of-range object or morphism"),
    ("bool_chain2.ecat", 0, "tensormor", "(0,1,0)(0,1,0) = (0,1,0)", "(0,1,0)(0,1,0) = (0,1,3)",
     [[0, 1, 0], [0, 1, 0]], [[[0, 1, 0], [0, 1, 0]], [0, 1, 3]], 22, 4,
     "tensormor entry at ((0,1,0), (0,1,0)) references an out-of-range object or morphism"),
    ("bool_chain2.ecat", 1, "then", "(0,1,0)(1,1,0) = (0,1,0)", "(0,1,0)(0,0,0) = (0,1,0)",
     [[0, 1, 0], [1, 1, 0]], [[[0, 1, 0], [0, 0, 0]], [0, 1, 0]], 82, 2,
     "then entry at ((0,1,0), (0,0,0)): (0,1,0) ends at 1 and (0,0,0) starts at 0"),
    ("bool_chain2.ecat", 1, "homobj", "(0,1) = 1", "(0,1) = 7", [0, 1], [[0, 1], 7], 85, 1,
     "hom object 7 is not a base object"),
    ("set_z2.ecat", 1, "fromarr", "(0,0,1) = (1,2,1)", "(0,0,1) = (1,2,0)",
     [0, 0, 1], [[0, 0, 1], [1, 2, 0]], 15, 1, "fromarr is not injective at (0,0)"),
]


def _located_edit(case) -> str:
    """The text of a LOCATED_ROW_CASES golden file with its row edited."""
    source, i, keyword, before, after = case[:5]
    text = (GOLDEN / source).read_text(encoding="utf-8")
    row = f"  {keyword} {before}\n"
    at = text.index(row, [m.start() for m in re.finditer(r"^\w", text, re.M)][i])
    return text[:at] + f"  {keyword} {after}\n" + text[at + len(row):]


@pytest.mark.parametrize("case", LOCATED_ROW_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
def test_row_diagnostics_are_located_in_both_formats(case, tmp_path, capsys):
    """The range check of a base's tables (mixed, pair and morphism-pair
    keys), the composability of a then row, a hom object that is not a base
    object and a non-injective fromarr are reported at the edited row: its
    line in text, its JSON path in a machine file."""
    source, i, keyword, before, after, json_key, json_row, line, j, message = case
    text = (GOLDEN / source).read_text(encoding="utf-8")
    path = tmp_path / source
    path.write_text(_located_edit(case), encoding="utf-8")
    assert run_cli(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{path}:{line}:3: error: {message}"

    payload = json.loads(to_json(parse(text)[0]))
    rows = payload["items"][i]["tables"][keyword]
    assert rows[j][0] == json_key
    rows[j] = json_row
    machine = tmp_path / f"{source}.json"
    machine.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["check", str(machine)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{machine}:items[{i}].tables.{keyword}[{j}]: error: {message}"


def test_text_row_span_is_the_row_without_its_comment():
    text = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8")
    at = text.index("  homobj (0,1) = 1\n", text.index("enrichment E"))
    doc, diags = parse(text[:at] + "\t   homobj (0,1) = 7   # seven\n" + text[at + 19:])
    assert doc is None
    assert [(d.span, d.message) for d in diags] == [
        (Span(85, 5, 31), "hom object 7 is not a base object"),
        (Span(72, 1, 22), "fromarr at (0,1) is not a bijection (1 of 0 unit points hit)"),
    ]


def _writer_cases() -> list:
    """The parseable documents whose machine export is compared with the
    reference writer: the golden corpus in both formats, and the edge cases
    of the layout."""
    docs = [(p.name, parse(p.read_text(encoding="utf-8"))[0])
            for d in (GOLDEN, GOLDEN / "constructed") for p in sorted(d.glob("*.ecat"))]
    docs += [(p.name, from_json(p.read_text(encoding="utf-8"))[0]) for p in sorted((GOLDEN / "json").glob("*.json"))]
    chain = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8")
    base = chain.split("\n\n", 1)[0] + "\n"
    V = bool_base()
    codiscrete = thin_enrichment(V, 11, {(x, y): 1 for x in range(11) for y in range(11)}, name="E")
    docs += [
        ("empty", Document()),
        ("11 objects", Document([Item("base", "V", V, {"builtin": "bool", "params": ()}, None),
                                 Item("enrichment", "E", codiscrete, {"over": "V"}, None)])),
        ("no sym, not closed", parse(re.sub(r"^  (sym|homobj|eval|lam) .*\n", "", base, flags=re.M))[0]),
        ("0 objects", parse("base V = builtin(bool)\nenrichment E over V {\n  objects 0\n}\n")[0]),
        ("non-ASCII names", parse(re.sub(r"\bV\b", "Vé", chain).replace("enrichment E ", "enrichment Ë_ü "))[0]),
    ]
    return [(name, doc) for name, doc in docs if doc is not None]


@pytest.mark.parametrize("doc", [pytest.param(doc, id=name) for name, doc in _writer_cases()])
def test_to_json_matches_the_reference_writer(doc):
    assert to_json(doc) == reference_to_json(doc)


def test_writer_edge_cases_are_what_they_claim():
    cases = dict(_writer_cases())
    assert to_json(cases["empty"]) == '{\n  "items": []\n}\n'
    tables = json.loads(to_json(cases["no sym, not closed"]))["items"][0]["tables"]
    assert [tables[k] for k in ("sym", "homobj", "eval", "lam")] == [None] * 4
    assert json.loads(to_json(cases["0 objects"]))["items"][1]["tables"]["hom"] == []
    # rows go in the order of their keys' text: (0,10) before (0,2)
    assert [k for k, _ in json.loads(to_json(cases["11 objects"]))["items"][1]["tables"]["hom"][:3]] == [
        [0, 0], [0, 1], [0, 10]]
    assert '"name": "\\u00cb_\\u00fc"' in to_json(cases["non-ASCII names"])


def test_serialize_matches_the_reference_writer():
    for name, doc in _writer_cases():
        assert serialize(doc) == reference_serialize(doc), name


@pytest.mark.parametrize("shape", ["INT", "PAIR", "TRIPLE", "MOR", "MOR_PAIR", "LAM"])
def test_shape_repr_template_is_the_repr_of_its_value(shape):
    """The JSON writer sorts rows by a shape's ``repr`` template filled with
    the key's integers; it must be ``repr`` of the key, so that (0,10,1)
    sorts before (0,2,1) as its text does."""
    shape = getattr(dsl, shape)
    rng = random.Random(20)
    cases = [[0, 10, 1, 0, 2, 1], [0, 2, 1, 0, 10, 1]] + [[rng.randrange(1000) for _ in range(6)] for _ in range(50)]
    filled = []
    for ints in cases:
        ints = tuple(ints[:shape.size])
        (value,) = shape.columns([[i] for i in ints])
        assert shape.repr % ints == repr(value)
        filled.append((shape.repr % ints, value))
    assert [v for _, v in sorted(filled)] == sorted((v for _, v in filled), key=repr)


# ---------------------------------------------------------------------------
# table-at-a-time readers against the row-at-a-time reference
# ---------------------------------------------------------------------------

DOCUMENTS = sorted(p for d in (GOLDEN, GOLDEN / "constructed") for p in d.glob("*.ecat"))


@functools.cache
def _golden(path: Path) -> tuple:
    """A golden document's text, its parsed Document (None when it does not
    parse) and that Document's ``to_json`` text, read once per session. The
    seeded edit tests edit copies and never the Document."""
    text = path.read_text(encoding="utf-8")
    doc, _ = parse(text)
    return text, doc, None if doc is None else to_json(doc)


def _same_reading(text: str, machine: bool = False) -> tuple:
    """Read ``text`` by the reader and by its reference; both must give
    structurally equal Documents and equal diagnostics, in order."""
    read, reference = (from_json, reference_from_json) if machine else (parse, reference_parse)
    (doc, diags), (ref_doc, ref_diags) = read(text), reference(text)
    assert diags == ref_diags
    assert (doc is None) == (ref_doc is None)
    assert doc is None or doc.structurally_equal(ref_doc)
    return doc, diags


def test_readers_match_the_reference_on_the_golden_corpus(monkeypatch):
    """Every golden document reads as the reference reads it, in both
    formats, and no table of one is read a row at a time."""
    per_row = []
    put_row = dsl._Decl.put_row
    monkeypatch.setattr(dsl._Decl, "put_row", lambda d, res, entry, columns, location: (
        per_row.append(entry.keyword), put_row(d, res, entry, columns, location)))
    for path in DOCUMENTS:
        doc, _ = _same_reading(path.read_text(encoding="utf-8"))
        if doc is not None:
            _same_reading(to_json(doc), machine=True)
    for path in sorted((GOLDEN / "json").glob("*.json")):
        _same_reading(path.read_text(encoding="utf-8"), machine=True)
    assert per_row == []
    # a repeated row is read a row at a time, to name the repeat
    _same_reading(_ONE_POINT.format(id="(0,0,0)", extra="  eid 0 = (1,1,0)\n"))
    assert per_row == ["eid"]


@pytest.mark.parametrize("case", LOCATED_ROW_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
def test_readers_match_the_reference_on_located_row_edits(case):
    source, i, keyword = case[:3]
    json_row, j = case[6], case[8]
    assert _same_reading(_located_edit(case))[1]
    payload = json.loads(to_json(parse((GOLDEN / source).read_text(encoding="utf-8"))[0]))
    payload["items"][i]["tables"][keyword][j] = json_row
    assert _same_reading(json.dumps(payload), machine=True)[1]


def _runs(lines: list) -> list:
    """The runs of a text document: (start, stop) of each maximal stretch of
    consecutive table rows with one keyword."""
    runs, start = [], None
    for k, line in enumerate(lines + [""]):
        keyword = line.split()[0] if line.startswith("  ") and "=" in line else None
        if start is not None and keyword != lines[start].split()[0]:
            runs.append((start, k))
            start = None
        if keyword is not None and start is None:
            start = k
    return runs


def _mid_run_row(rng, lines) -> int:
    """A row with a row of its run before it and after it."""
    return rng.choice([k for start, stop in _runs(lines) for k in range(start + 1, stop - 1)])


def _shuffle_run(rng, lines):
    start, stop = rng.choice([r for r in _runs(lines) if r[1] - r[0] > 1])
    lines[start:stop] = rng.sample(lines[start:stop], stop - start)


def _interleave_runs(rng, lines):
    pairs = [(a, b) for a, b in zip(_runs(lines), _runs(lines)[1:]) if a[1] == b[0]]
    (start, mid), (_, stop) = rng.choice(pairs)
    first, second = lines[start:mid], lines[mid:stop]
    merged = [row for pair in itertools.zip_longest(first, second) for row in pair if row is not None]
    lines[start:stop] = merged


def _repeat_in_run(rng, lines):
    start, stop = rng.choice(_runs(lines))
    lines.insert(rng.randrange(start, stop) + 1, lines[rng.randrange(start, stop)])


def _repeat_across_runs(rng, lines):
    pairs = [(a, b) for a, b in zip(_runs(lines), _runs(lines)[1:]) if a[1] == b[0]]
    (start, mid), (_, stop) = rng.choice(pairs)
    lines.insert(stop, lines[rng.randrange(start, mid)])


def _edit_row(edit):
    def apply(rng, lines):
        k = _mid_run_row(rng, lines)
        lines[k] = edit(rng, lines[k])
    return apply


TEXT_EDITS = {
    "shuffled rows": _shuffle_run,
    "interleaved keywords": _interleave_runs,
    "repeat in a run": _repeat_in_run,
    "repeat across runs": _repeat_across_runs,
    "bad numeral": _edit_row(lambda rng, row: re.sub(r"\d+", lambda m: rng.choice(["x", "1.5", "٣", "-1", ""]),
                                                     row, count=1)),
    "missing paren": _edit_row(lambda rng, row: row.replace(rng.choice("()"), "", 1)),
    "tab": _edit_row(lambda rng, row: row[:2] + row[2:].replace(" ", "\t", rng.randrange(1, 4))),
    "trailing comment": _edit_row(lambda rng, row: row + "  # (0,0,0) = 1"),
}


@pytest.mark.parametrize("edit", TEXT_EDITS)
def test_readers_match_the_reference_on_seeded_text_edits(edit):
    """Each golden document, edited at seeded places, reads as the reference
    reads it; a reordered or respaced document reads as the original."""
    for seed, path in enumerate(p for p in DOCUMENTS if not p.name.startswith("base_finset")):
        text, original, _ = _golden(path)
        lines = text.splitlines()
        if not any(stop - start > 2 for start, stop in _runs(lines)):
            continue
        TEXT_EDITS[edit](random.Random(seed), lines)
        doc, diags = _same_reading("\n".join(lines) + "\n")
        if edit in ("shuffled rows", "interleaved keywords", "tab", "trailing comment"):
            assert (doc is None) == (original is None) and (doc is None or doc.structurally_equal(original))
        else:
            assert diags, (path.name, edit)


def _leaves(x, path=()):
    if type(x) is list:
        return [leaf for i, e in enumerate(x) for leaf in _leaves(e, path + (i,))]
    return [path]


JSON_EDITS = {
    "true": lambda rng, row: _set_leaf(rng, row, True),
    "-1": lambda rng, row: _set_leaf(rng, row, -1),
    "1.0": lambda rng, row: _set_leaf(rng, row, 1.0),
    "wrong length": lambda rng, row: row + [0] if rng.random() < 0.5 else row[:1],
    "not a list": lambda rng, row: rng.choice(["ab", 0, {"0": row}, None]),
    "repeated": None,
}


def _set_leaf(rng, row, value):
    *path, last = rng.choice(_leaves(row))
    target = row
    for i in path:
        target = target[i]
    target[last] = value
    return row


@pytest.mark.parametrize("edit", JSON_EDITS)
def test_readers_match_the_reference_on_seeded_json_edits(edit):
    for seed, path in enumerate(p for p in DOCUMENTS if not p.name.startswith("base_finset")):
        machine = _golden(path)[2]
        if machine is None:
            continue
        payload = json.loads(machine)
        tables = [rows for item in payload["items"] for rows in item.get("tables", {}).values()
                  if type(rows) is list and len(rows) > 2]
        if not tables:
            continue
        rng = random.Random(seed)
        rows = rng.choice(tables)
        j = rng.randrange(1, len(rows) - 1)
        if edit == "repeated":
            rows.insert(rng.randrange(len(rows)), rows[j])
        else:
            rows[j] = JSON_EDITS[edit](rng, rows[j])
        assert _same_reading(json.dumps(payload), machine=True)[1]


def test_repeated_builtin_parameter_is_a_diagnostic_in_both_formats():
    doc, diags = parse("base V = builtin(cost, n=2, n=3)\n")
    assert doc is None and [d.describe() for d in diags] == ["1:1: error: repeated 'n' parameter"]
    payload = {"items": [{"kind": "base", "name": "V", "builtin": "cost", "params": [["n", 2], ["n", 3]]}]}
    doc, diags = from_json(json.dumps(payload))
    assert doc is None and [d.describe() for d in diags] == ["items[0]: error: repeated 'n' parameter"]


def test_text_integers_are_ascii_digits_as_in_json():
    header = "base V = builtin(cost, n=٣)"
    doc, diags = parse(header + "\n")
    assert doc is None and [d.message for d in diags] == [f"unrecognized declaration: {header!r}"]
    text = (GOLDEN / "bool_chain2.ecat").read_text(encoding="utf-8").replace("  hom (0,0) = 1\n", "  hom (0,0) = ١\n", 1)
    doc, diags = parse(text)
    assert doc is None and diags[0].describe() == "4:3: error: malformed 'hom' entry: 'hom (0,0) = ١'"
    payload = {"items": [{"kind": "base", "name": "V", "builtin": "cost", "params": [["n", "٣"]]}]}
    assert from_json(json.dumps(payload))[1][0].message == "a builtin base needs a builtin name and [name, integer] params"
