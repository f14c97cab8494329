"""The stopping rule of law scans, and the reports it must keep.

The pins in ``golden/reports/`` were written by ``report_cases.py`` before
scans stopped inside the Collector; a full report must keep those bytes.
"""

import json
from pathlib import Path

import pytest

from ecat.report import CheckReport, Collector, StructuralError, law_scan

from helpers import identity_sided, reference_check_symmetric
from report_cases import OUT, cases, pinned_text

CASES = cases()


def test_every_limit_taking_checker_has_a_pin():
    checkers = {check.__name__ for _, check, _, _ in CASES}
    assert checkers == {
        "check_category", "check_monoidal", "check_symmetric", "check_closed",
        "check_enrichment", "check_kelly", "check_functor_enrichment", "check_nat_trans_enrichment",
        "check_lax_monoidal", "check_preserves_underlying", "check_enriched_monad", "check_kleisli_cocone",
    }
    assert sorted(p.stem for p in Path(OUT).glob("*.json")) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name, check, args, description", CASES, ids=[c[0] for c in CASES])
def test_full_report_matches_pin(name, check, args, description):
    assert pinned_text(name, check, args, description) == (OUT / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, failures", [("symmetric-cost3", (4, 2)), ("symmetric-finset2", (19, 12))])
def test_symmetric_pins_are_the_reference_at_identity_sided_pairs(name, failures):
    """check_symmetric checks naturality only at the pairs with an identity
    side, so each symmetric pin is the instance-at-a-time reference's full
    report on the same mutated base with its other naturality failures
    left out: the reference's 4 and 19 failures, 2 and 12 of them kept."""
    ((_, _, (M,), description),) = [case for case in CASES if case[0] == name]
    reference = reference_check_symmetric(M)
    kept = [f for f in reference.failures if identity_sided(M, f)]
    assert (len(reference.failures), len(kept)) == failures
    want = {"case": name, "input": description, "report": CheckReport.from_failures(kept).to_json()}
    assert json.loads((OUT / f"{name}.json").read_text(encoding="utf-8")) == want


@pytest.fixture()
def scan_orders(monkeypatch):
    """The unsorted failures of every collector, in the order each scan
    added them, listed as the collectors report."""
    orders = []
    report = Collector.report

    def spy(col):
        orders.append(list(col.failures))
        return report(col)

    monkeypatch.setattr(Collector, "report", spy)
    return orders


@pytest.mark.parametrize("name, check, args, description", CASES, ids=[c[0] for c in CASES])
def test_limit_keeps_the_first_failures_in_scan_order(name, check, args, description, scan_orders):
    full = check(*args)
    in_scan_order = scan_orders[-1]
    assert sorted(in_scan_order, key=lambda f: f.sort_key()) == full.failures
    for k in (1, 2, 3):
        rep = check(*args, limit=k)
        assert not rep.ok
        assert scan_orders[-1] == in_scan_order[:k]
        assert rep.failures == CheckReport.from_failures(in_scan_order[:k]).failures
    one = check(*args, limit=1)
    assert len(one.failures) == 1 and one.failures[0] in full.failures


def test_nested_check_keeps_its_stop():
    """A monad whose endofunctor fails: the endofunctor's full report is
    included in the monad's, and the monad's scan stops at its own limit."""
    name, check, args, _ = next(c for c in CASES if c[0] == "monad-z3")
    rep = check(*args, limit=1)
    assert len(rep.failures) == 1
    assert rep.failures[0].law.startswith("endo/")


def test_stop_signal_is_caught_only_by_its_own_scan():
    @law_scan
    def inner(col, n):
        for i in range(n):
            col.add("inner", (i,))

    @law_scan
    def outer(col, n):
        # a limited nested scan stops itself and the outer scan goes on
        col.include("nested", inner(n, limit=1))
        for i in range(n):
            col.add("outer", (i,))

    rep = outer(3, limit=3)
    assert [(f.law, f.instance) for f in rep.failures] == [
        ("nested/inner", (0,)), ("outer", (0,)), ("outer", (1,)),
    ]
    assert len(outer(3).failures) == 4

    held = Collector(limit=1)

    @law_scan
    def foreign(col):
        held.add("elsewhere", ())

    with pytest.raises(Exception) as info:
        foreign()
    assert info.value.collector is held


def test_checker_signature_and_require():
    import inspect

    from ecat.vbase import check_category

    assert str(inspect.signature(check_category)) == "(C, *, limit: 'int | None' = None) -> 'CheckReport'"
    CheckReport.from_failures([]).require("never raised")
    col = Collector()
    col.add("law", (1, 2), "a", "b")
    with pytest.raises(StructuralError, match=r"^what fails: law at \(1, 2\): lhs=a rhs=b$"):
        col.report().require("what fails")


def test_skipped_instances_are_counted_outside_the_output():
    """The collector counts skipped instances per law, a nested check's
    under its prefix; the report carries the counts, and neither
    ``describe`` nor ``to_json`` shows them."""
    @law_scan
    def inner(col):
        col.skip("far", 3)
        col.skip("far")
        col.add("inner", (0,))

    @law_scan
    def outer(col):
        col.include("nested", inner())
        col.skip("near", 2)
        col.add("outer", (1,))

    rep = outer()
    assert rep.skipped == {"nested/far": 4, "near": 2}
    # a nested report's counts are kept when its failures stop the scan
    assert outer(limit=1).skipped == {"nested/far": 4}
    bare = CheckReport.from_failures(rep.failures)
    assert rep.describe() == bare.describe() and rep.to_json() == bare.to_json()
    assert bare.skipped == {} and rep != bare
