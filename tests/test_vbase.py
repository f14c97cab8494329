import collections
import copy
import itertools
import math
import random
import re
from pathlib import Path

import pytest

from ecat import vbase
from ecat.dsl import from_json, parse
from ecat.report import CapabilityError, CheckReport, EcatError, Failure, StructuralError, WindowExceeded
from ecat.structures import PointedPosetStructure, PosetStructure, StructCat, check_structure
from ecat.vbase import (
    BYTES_ROW,
    DEFAULT_HOM_CAP,
    BatchedCompose,
    ClosedData,
    FinCat,
    FinMonCat,
    MorRef,
    _window_homs,
    base_law_checks,
    bool_base,
    builtin_base,
    check_category,
    check_closed,
    check_monoidal,
    check_symmetric,
    cost_base,
    require_mor_shape,
    search_equalizer,
    search_product,
    terminal_base,
    window_fincat,
    window_generators,
)

from helpers import (
    Mutated,
    assoc_oracle,
    generator_sided,
    identity_oracle,
    identity_sided,
    random_mutation,
    reference_at_generators,
    reference_check_category,
    reference_check_closed,
    reference_check_monoidal,
    reference_check_symmetric,
    reference_closure,
    reference_search_equalizer,
    reference_search_product,
)


def terminal_category():
    return FinCat(1, {(0, 0): 1}, {0: MorRef(0, 0, 0)}, {(MorRef(0, 0, 0), MorRef(0, 0, 0)): MorRef(0, 0, 0)})


def discrete_category(n):
    hom = {(i, j): (1 if i == j else 0) for i in range(n) for j in range(n)}
    ident = {i: MorRef(i, i, 0) for i in range(n)}
    then = {(MorRef(i, i, 0), MorRef(i, i, 0)): MorRef(i, i, 0) for i in range(n)}
    return FinCat(n, hom, ident, then)


def test_terminal_category_ok():
    assert check_category(terminal_category()).ok


def test_discrete_category_ok():
    assert check_category(discrete_category(3)).ok


def test_validate_rejects_malformed_composition_tables():
    """A composition key whose ends do not meet, a missing composite and a
    composite of the wrong shape are each a StructuralError."""
    C = discrete_category(2)
    C.validate()
    i0, i1 = MorRef(0, 0, 0), MorRef(1, 1, 0)
    cases = [
        ({**C.then_t, (i0, i1): i0}, r"composition defined on non-composable \(0,0,0\);\(1,1,0\)"),
        ({k: v for k, v in C.then_t.items() if k != (i1, i1)}, r"missing composition entry \(1,1,0\);\(1,1,0\)"),
        ({**C.then_t, (i1, i1): MorRef(1, 0, 0)}, r"morphism \(1,0,0\) does not have shape 1 -> 1"),
    ]
    for then, message in cases:
        with pytest.raises(StructuralError, match=message):
            FinCat(2, C.hom_size_t, C.identity_t, then).validate()


def test_validate_rejects_composition_keys_outside_the_homs():
    """A composition entry keyed by a morphism that is not in its hom is a
    StructuralError, not a stray entry that only breaks equality."""
    i, j = MorRef(0, 0, 0), MorRef(0, 0, 5)
    C = FinCat(1, {(0, 0): 1}, {0: i}, {(i, i): i})
    C.validate()
    for key in [(j, j), (i, j), (j, i)]:
        with pytest.raises(StructuralError, match=r"composition defined on .*, outside their homs"):
            FinCat(1, C.hom_size_t, C.identity_t, {**C.then_t, key: j}).validate()


def test_compose_refuses_a_non_composable_pair():
    """compose names a pair whose ends do not meet "non-composable pair" on a
    validated category, a tabulated one and a table base, and a composable
    pair without an entry "missing composition entry" on raw tables."""
    raw = discrete_category(2)
    raw.validate()
    built = FinCat.tabulate(2, {(0, 0): ["i"], (0, 1): ["p"], (1, 1): ["j"]},
                            lambda a: "ij"[a], lambda a, b, c, f, g: g if f in "ij" else f)
    i0, i1, p = MorRef(0, 0, 0), MorRef(1, 1, 0), MorRef(0, 1, 0)
    for C, f, g in [(raw, i0, i1), (raw, i1, i0), (built, p, i0), (built, i1, p), (bool_base(), p, p)]:
        with pytest.raises(StructuralError, match=re.escape(f"non-composable pair {f} {g}")):
            C.compose(f, g)
    assert built.compose(i0, p) == p == built.compose(p, i1)
    with pytest.raises(StructuralError, match=re.escape(f"missing composition entry {i1};{i1}")):
        FinCat(2, raw.hom_size_t, raw.identity_t, {(i0, i0): i0}).compose(i1, i1)


def test_hom_is_one_stored_tuple():
    """Two calls of ``hom`` return the same immutable tuple, on raw tables
    and on a tabulated category, for empty and inhabited homs."""
    raw = discrete_category(2)
    built = FinCat.tabulate(2, {(0, 0): ["i"], (0, 1): ["p", "q"], (1, 1): ["j"]},
                            lambda a: "ij"[a], lambda a, b, c, f, g: g if f in "ij" else f)
    for C in (raw, built):
        for x, y in itertools.product(range(2), repeat=2):
            first, second = C.hom(x, y), C.hom(x, y)
            assert isinstance(first, tuple) and first is second
            assert first == tuple(MorRef(x, y, k) for k in range(C.hom_size(x, y)))
        assert C.mors() == tuple(m for x in range(2) for y in range(2) for m in C.hom(x, y))
    assert built.hom(0, 1) == (MorRef(0, 1, 0), MorRef(0, 1, 1))


def test_table_base_hom_is_its_category_stored_tuple():
    """A table base answers ``hom`` with the tuple its category stores, so
    repeat calls return the very same object; ``mors()`` still lists every
    morphism hom by hom, on bool, cost(0..6), the terminal base and every
    golden table base."""
    for V in [bool_base(), terminal_base(), *(cost_base(n) for n in range(7)), *_golden_table_bases()]:
        objs = V.objects()
        for x, y in itertools.product(objs, repeat=2):
            first = V.hom(x, y)
            assert first is V.cat.hom(x, y) and first is V.hom(x, y), (V.name, x, y)
        assert list(V.mors()) == [MorRef(x, y, k) for x in objs for y in objs for k in range(V.hom_size(x, y))]


def test_tabulate_refuses_hom_keys_outside_the_objects():
    """A hom key that is not a pair of objects 0..n-1 raises StructuralError
    in tabulate, with the message validate gives the same tables raw."""
    for key in [(0, 2), (2, 0), (-1, 0)]:
        homs = {(0, 0): ["i"], (1, 1): ["j"], key: ["p"]}
        with pytest.raises(StructuralError, match=r"bad hom size entry") as at_entry:
            FinCat.tabulate(2, homs, lambda a: "ij"[a], lambda a, b, c, f, g: f)
        raw = FinCat(2, {ab: len(labels) for ab, labels in homs.items()},
                     {0: MorRef(0, 0, 0), 1: MorRef(1, 1, 0)},
                     {(MorRef(a, a, 0), MorRef(a, a, 0)): MorRef(a, a, 0) for a in range(2)})
        with pytest.raises(StructuralError) as at_check:
            raw.validate()
        assert str(at_entry.value) == str(at_check.value)


def test_tabulate_numbers_labels_in_order():
    # a walking arrow p, q : 0 -> 1 with identities i, j, labelled by strings
    homs = {(0, 0): ["i"], (0, 1): ["p", "q"], (1, 0): [], (1, 1): ["j"]}

    def compose(a, b, c, f, g):
        return g if f in "ij" else f

    C = FinCat.tabulate(2, homs, lambda a: "ij"[a], compose)
    assert C.hom_size_t == {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}
    assert C.identity_t == {0: MorRef(0, 0, 0), 1: MorRef(1, 1, 0)}
    assert C.compose(MorRef(0, 0, 0), MorRef(0, 1, 1)) == MorRef(0, 1, 1)
    assert C.compose(MorRef(0, 1, 1), MorRef(1, 1, 0)) == MorRef(0, 1, 1)
    assert check_category(C).ok
    with pytest.raises(StructuralError, match="'r' is not a morphism 0 -> 1"):
        FinCat.tabulate(2, homs, lambda a: "ij"[a], lambda a, b, c, f, g: "r" if (a, c) == (0, 1) else compose(a, b, c, f, g))
    with pytest.raises(StructuralError, match="'k' is not a morphism 1 -> 1"):
        FinCat.tabulate(2, homs, lambda a: "ik"[a], compose)
    with pytest.raises(StructuralError, match="repeated morphism label"):
        FinCat.tabulate(2, {**homs, (0, 1): ["p", "p"]}, lambda a: "ij"[a], compose)


def test_broken_associativity_located():
    # 2-object category with two parallel arrows and composition mutated
    C = builtin_base("finset", k=2)
    # mutate composition of (1->2) with (2->2): swap the result index
    f = MorRef(1, 2, 0)
    g = MorRef(2, 2, 1)
    right = C.compose(f, g)
    wrong = MorRef(right.src, right.dst, (right.k + 1) % C.hom_size(right.src, right.dst))
    M = Mutated(C, "compose", (f, g), wrong)
    rep = check_category(M)
    assert not rep.ok
    assert any(x.law == "associativity" for x in rep.failures)
    # cross-check the located instances against the direct triple-loop oracle
    Wm = window_fincat(M)
    oracle_bad = set(assoc_oracle(Wm)) | {(f,) for f in identity_oracle(Wm)}
    assert oracle_bad


@pytest.mark.parametrize("make", [bool_base, lambda: cost_base(5), lambda: cost_base(0)])
def test_thin_bases_pass_all(make):
    V = make()
    assert check_category(V).ok
    assert check_monoidal(V).ok
    assert check_symmetric(V).ok
    assert check_closed(V).ok


def test_finset_small_passes():
    V = builtin_base("finset", k=2)
    assert check_category(V).ok
    assert check_monoidal(V).ok
    assert check_symmetric(V).ok
    assert check_closed(V).ok
    assert V.hom_obj(2, 2) == 4  # function counting: |[2,2]| = 2^2


def test_struct_bases_pass():
    for name in ("finposet_struct", "finpointedposet_struct"):
        V = builtin_base(name, max_size=2)
        assert check_category(V).ok
        assert check_monoidal(V).ok
        assert check_symmetric(V).ok
        assert check_closed(V).ok


def test_pentagon_mutation_located():
    V = builtin_base("finset", k=2)
    src = V.tensor_obj(V.tensor_obj(2, 2), 2)
    bad = V.mor(src, src, tuple([1, 0] + list(range(2, src))))
    M = Mutated(V, "associator", (2, 2, 2), bad)
    rep = check_monoidal(M)
    assert not rep.ok
    laws = {f.law for f in rep.failures}
    assert "pentagon" in laws or "associator-iso" in laws or "associator-natural-1" in laws


def test_symmetry_absent_capability():
    V = bool_base()
    V.symmetry_t = None
    with pytest.raises(CapabilityError):
        check_symmetric(V)


def test_closed_absent_capability():
    V = bool_base()
    V.closed_data = None
    with pytest.raises(CapabilityError):
        check_closed(V)


def test_bool_closed_is_residuation():
    # [a,b] is the relative pseudocomplement: x n a <= b iff x <= [a,b]
    V = bool_base()
    for x, a, b in itertools.product(range(2), repeat=3):
        lhs = min(x, a) <= b
        rhs = x <= V.hom_obj(a, b)
        assert lhs == rhs


def test_cost_closed_is_truncated_subtraction():
    V = cost_base(5)
    inf = 6

    def val(i):
        return float("inf") if i == inf else i

    def plus(a, b):
        s = val(a) + val(b)
        return s if s <= 5 else float("inf")

    for a, b, c in itertools.product(range(7), repeat=3):
        lhs = plus(a, b) >= val(c)
        rhs = val(a) >= val(V.hom_obj(b, c))
        assert lhs == rhs, (a, b, c)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_equalizer_of_equal_pair_is_identity_like(boolb):
    f = MorRef(0, 1, 0)
    eq = boolb.equalizer(f, f)
    assert eq.obj == 0
    assert eq.include == boolb.id_of(0)
    assert eq.factor(boolb.id_of(0)) == boolb.id_of(0)


@pytest.mark.parametrize("name, params, f, g", [
    ("bool", {}, MorRef(0, 1, 0), MorRef(0, 0, 0)),
    ("finset", {"k": 3}, MorRef(2, 3, 5), MorRef(3, 3, 0)),
    ("finposet_struct", {"max_size": 2}, MorRef(1, 2, 0), MorRef(2, 2, 0)),
], ids=["bool", "finset3", "finposet_struct2"])
def test_equalizer_rejects_non_parallel(name, params, f, g):
    """Every base refuses a pair whose ends differ, table and computed alike."""
    with pytest.raises(StructuralError, match="parallel pair"):
        builtin_base(name, **params).equalizer(f, g)


def test_finset_kernel_matches_rank_formulas():
    """The shared graph kernel on finset(3) window morphisms against the
    direct rank/unrank formulas: compose, tensor_mor, symmetry, ev, lam."""
    from ecat.finset import graph_rank, graph_unrank

    V = builtin_base("finset", k=3)

    def ref(src, dst, graph):
        return MorRef(src, dst, graph_rank(graph, dst))

    def g(m):
        return graph_unrank(m.k, m.src, m.dst)

    objs = range(4)
    homs = {(a, b): [MorRef(a, b, k) for k in range(V.hom_size(a, b))] for a in objs for b in objs}
    window = [m for ms in homs.values() for m in ms]
    for f in window:
        for h in (h for c in objs for h in homs[f.dst, c]):
            assert V.compose(f, h) == ref(f.src, h.dst, tuple(g(h)[v] for v in g(f)))
        for h in window:
            graph = tuple(g(f)[i] * h.dst + g(h)[j] for i in range(f.src) for j in range(h.src))
            assert V.tensor_mor(f, h) == ref(f.src * h.src, f.dst * h.dst, graph)
    for x, y in itertools.product(objs, repeat=2):
        graph = tuple((idx % y) * x + idx // y for idx in range(x * y))
        assert V.symmetry(x, y) == ref(x * y, y * x, graph)
        h = V.hom_obj(x, y)
        graph = tuple(v for k in range(h) for v in graph_unrank(k, x, y))
        assert V.ev(x, y) == ref(h * x, y, graph)
    for x, y, z in itertools.product(objs, repeat=3):
        h = V.hom_obj(y, z)
        for f in itertools.islice(V.hom(x * y, z), 500):
            graph = tuple(graph_rank(g(f)[i * y:(i + 1) * y], z) for i in range(x))
            assert V.lam(x, y, z, f) == ref(x, h, graph)

    # finset(4) reaches carriers past the 256 elements a byte graph holds:
    # [4,4] has 256 and [4,4]*4 has 1024, so each call below mixes the two forms
    V = builtin_base("finset", k=4)
    rng = random.Random(21)

    def some(src, dst, n=3):
        return [MorRef(src, dst, rng.randrange(dst ** src)) for _ in range(n)]

    for a, b, c in [(2, 1024, 4), (3, 4, 1024), (2, 1024, 1024), (2, 256, 256), (3, 256, 4), (2, 4, 256), (0, 300, 2)]:
        for f, h in zip(some(a, b), some(b, c)):
            assert V.compose(f, h) == ref(a, c, tuple(g(h)[v] for v in g(f)))
    for (a, b), (c, d) in [((1, 64), (2, 4)), ((2, 256), (1, 4)), ((1, 4), (2, 256)), ((1, 1024), (1, 1)),
                           ((2, 1), (1, 256)), ((0, 0), (2, 1024)), ((1, 16), (1, 17))]:
        for f, h in zip(some(a, b), some(c, d)):
            graph = tuple(g(f)[i] * d + g(h)[j] for i in range(a) for j in range(c))
            assert V.tensor_mor(f, h) == ref(a * c, b * d, graph)
    for x, y, z in [(2, 4, 4), (2, 5, 4), (1, 2, 16)]:
        h = V.hom_obj(y, z)
        graph = tuple(v for k in range(h) for v in graph_unrank(k, y, z))
        assert V.ev(y, z) == ref(h * y, z, graph)
        for f in some(x * y, z):
            lam_f = V.lam(x, y, z, f)
            assert lam_f == ref(x, h, tuple(graph_rank(g(f)[i * y:(i + 1) * y], z) for i in range(x)))
            assert V.unlam(x, y, z, lam_f) == f
    for n, m in [(1024, 4), (256, 2), (300, 3)]:
        f, = some(n, m, 1)
        graph = list(g(f))
        for i in rng.sample(range(n), n // 3):
            graph[i] = (graph[i] + 1) % m
        eq = V.equalizer(f, ref(n, m, tuple(graph)))
        fixed = tuple(i for i in range(n) if graph[i] == g(f)[i])
        assert (eq.obj, eq.include) == (len(fixed), ref(len(fixed), n, fixed))
        for u in some(2, len(fixed)):
            assert eq.factor(ref(2, n, tuple(fixed[i] for i in g(u)))) == u
    for sizes in [(256, 4), (4, 64), (2, 2, 300)]:
        pr = V.product(sizes)
        total = math.prod(sizes)
        strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        for p, s, stride in zip(pr.projections, sizes, strides):
            assert p == ref(total, s, tuple(idx // stride % s for idx in range(total)))
        cone = [some(3, s, 1)[0] for s in sizes]
        graph = tuple(sum(g(leg)[t] * st for leg, st in zip(cone, strides)) for t in range(3))
        assert pr.pair(3, cone) == ref(3, total, graph)
    _assert_memos_in_target_form(V)


def _assert_memos_in_target_form(V):
    """Every graph a computed base memoises, and every graph in its MorRef
    memo's keys, is bytes into a carrier of at most 256 elements and a tuple
    into a larger one; the public graph accessors return tuples."""
    def form(dst):
        return bytes if V.obj_size(dst) <= 256 else tuple

    assert V._graph_of and V._mor_of
    assert all(type(gr) is form(m.dst) for m, gr in V._graph_of.items())
    assert all(type(gr) is form(dst) for _, dst, gr in V._mor_of)
    assert all(type(V.graph(m)) is tuple for m in itertools.islice(V._graph_of, 200))
    for (x, y), index in getattr(V, "_hom_index", {}).items():
        assert all(type(gr) is form(y) for gr in index)
        assert all(type(gr) is tuple for gr in V.hom_graphs(x, y))
    assert all(type(gr) is tuple for gr in V.hom_graphs(2, 2))


@pytest.mark.parametrize("name, params, family", [
    ("finset", {"k": 3}, check_monoidal),
    ("finset", {"k": 2}, check_closed),
    ("finposet_struct", {"max_size": 2}, check_closed),
    ("finpointedposet_struct", {"max_size": 2}, check_symmetric),
])
def test_computed_base_memos_hold_the_form_of_their_target(name, params, family):
    """A builder that returns a graph in the wrong form still gives correct
    verdicts, only slower; this is the test that sees it."""
    V = builtin_base(name, **params)
    assert family(V).ok
    _assert_memos_in_target_form(V)


@pytest.mark.parametrize("graph", [(5, 0), (1,), (-1, 1), (0, 1, 0)])
def test_finset_mor_refuses_malformed_graphs(graph):
    V = builtin_base("finset", k=3)
    with pytest.raises(StructuralError, match=re.escape(f"graph {graph} is not structure-preserving 2 -> 2")):
        V.mor(2, 2, graph)
    assert V.mor(2, 2, (1, 0)) == MorRef(2, 2, 2)


def test_finset_equalizer_subset():
    V = builtin_base("finset", k=3)
    # f, g: 3 -> 2 differing exactly on the last element
    f = V.mor(3, 2, (0, 1, 0))
    g = V.mor(3, 2, (0, 1, 1))
    eq = V.equalizer(f, g)
    assert eq.obj == 2
    assert V.graph(eq.include) == (0, 1)
    # universal property against the subset-enumeration oracle
    for c in range(4):
        for h in V.hom(c, 3):
            if V.compose(h, f) != V.compose(h, g):
                continue
            u = eq.factor(h)
            assert V.compose(u, eq.include) == h


def test_product_empty_is_terminal(boolb, cost5):
    pr = boolb.product([])
    assert pr.obj == 1  # unit = true is terminal in the meet order
    pr = cost5.product([])
    assert pr.obj == 0  # unit = 0 is terminal under the >= order


def test_bool_product_is_meet(boolb):
    for a, b in itertools.product(range(2), repeat=2):
        pr = boolb.product([a, b])
        assert pr.obj == min(a, b)


def test_cost_product_is_max():
    V = cost_base(4)
    inf = 5
    for a, b in itertools.product(range(6), repeat=2):
        pr = V.product([a, b])
        expect = inf if inf in (a, b) else max(a, b)
        assert pr.obj == expect


def test_finset_product_universal():
    V = builtin_base("finset", k=2)
    pr = V.product([2, 2])
    assert pr.obj == 4
    for c in range(3):
        for h1 in V.hom(c, 2):
            for h2 in V.hom(c, 2):
                u = pr.pair(c, [h1, h2])
                assert V.compose(u, pr.projections[0]) == h1
                assert V.compose(u, pr.projections[1]) == h2


def test_thin_equalizer_universal_exhaustive(boolb, cost3):
    for V in (boolb, cost3):
        for f in V.mors():
            for g in V.hom(f.src, f.dst):
                eq = V.equalizer(f, g)
                assert V.compose(eq.include, f) == V.compose(eq.include, g)
                for c in V.objects():
                    for h in V.hom(c, f.src):
                        if V.compose(h, f) == V.compose(h, g):
                            u = eq.factor(h)
                            assert V.compose(u, eq.include) == h


# ---------------------------------------------------------------------------
# builtins and misc
# ---------------------------------------------------------------------------

def test_builtin_dispatch_and_errors():
    assert builtin_base("bool").name == "bool"
    assert builtin_base("cost", n=5).n_objects == 7
    with pytest.raises(ValueError):
        builtin_base("wat")
    with pytest.raises(ValueError):
        builtin_base("cost")
    with pytest.raises(ValueError):
        builtin_base("bool", n=2)


def test_degenerate_base_passes():
    empty = FinCat(0, {}, {}, {})
    assert check_category(empty).ok


def test_terminal_base_passes():
    V = terminal_base()
    assert check_monoidal(V).ok and check_symmetric(V).ok and check_closed(V).ok


def test_malformed_table_is_structural():
    C = FinCat(1, {(0, 0): 1}, {0: MorRef(0, 0, 5)}, {})
    with pytest.raises(StructuralError):
        check_category(C)


def test_mutation_smoke_all_tables():
    rng = random.Random(7)
    V = builtin_base("finset", k=2)
    mors = [m for m in V.mors()]
    caught = 0
    trials = 0
    for table, key_maker in [
        ("tensor_mor", lambda: (rng.choice(mors), rng.choice(mors))),
        ("compose", lambda: None),
    ]:
        for _ in range(5):
            if table == "compose":
                f = rng.choice(mors)
                gs = [g for g in mors if g.src == f.dst]
                if not gs:
                    continue
                g = rng.choice(gs)
                key = (f, g)
                right = V.compose(f, g)
            else:
                key = key_maker()
                right = V.tensor_mor(*key)
            n = V.hom_size(right.src, right.dst)
            if n < 2:
                continue
            trials += 1
            wrong = MorRef(right.src, right.dst, (right.k + 1) % n)
            M = Mutated(V, table, key, wrong)
            try:
                bad = not check_category(M, limit=1).ok or not check_monoidal(M, limit=1).ok
            except StructuralError:
                bad = True
            if bad:
                caught += 1
    assert trials > 0 and caught == trials


def _outcome(call, *args):
    """What a call answers, or the type and text of the error it raises."""
    try:
        return call(*args)
    except (CapabilityError, StructuralError) as exc:
        return type(exc), str(exc)


def _limit_search_bases():
    """The golden table bases, the finset(3) base of the set_* documents
    and the Z/2 table base (neither thin: their homs hold up to 27 maps and
    two), bool, cost(0..6) and the terminal base."""
    sets = [item.value for name, item in _golden_bases() if name.startswith("set_")]
    assert {(type(V).__name__, V.k) for V in sets} == {("FinSetCat", 3)}
    return [*_golden_table_bases(), sets[0], _z2_base(), bool_base(), *(cost_base(n) for n in range(7)),
            terminal_base()]


def test_limit_searches_match_the_cone_by_cone_scans():
    """``search_product`` and ``search_equalizer`` decide each candidate by
    one pass per hom; ``helpers.reference_search_product`` and
    ``reference_search_equalizer`` keep the scan of a whole hom per cone.
    On every base of ``_limit_search_bases`` both choose the same object
    and projections or inclusion, pair or factor every morphism into the
    limit's diagram alike, and refuse alike where no limit exists: for every
    list of at most two objects, a seeded sample of three-object lists and
    every parallel pair."""
    rng = random.Random(18)
    products = refused = pairs = no_equalizer = 0
    for V in _limit_search_bases():
        objs = list(V.objects())
        lists = [[]] + [[a] for a in objs] + [[a, b] for a in objs for b in objs]
        lists += [[rng.choice(objs) for _ in range(3)] for _ in range(12)]
        for ls in lists:
            new, ref = _outcome(search_product, V, ls), _outcome(reference_search_product, V, ls)
            if isinstance(ref, tuple):
                assert new == ref, (V.name, ls)
                refused += 1
                continue
            assert (new.obj, new.projections) == (ref.obj, ref.projections), (V.name, ls)
            for c in objs:
                # every cone, and one leg list that misses its factors
                for cone in [*itertools.product(*(V.hom(c, x) for x in ls)), [MorRef(c, c, 0)] * len(ls)]:
                    assert _outcome(new.pair, c, list(cone)) == _outcome(ref.pair, c, list(cone)), (V.name, ls, cone)
            products += 1
        for a in objs:
            for b in objs:
                for f, g in itertools.product(V.hom(a, b), repeat=2):
                    new, ref = _outcome(search_equalizer, V, f, g), _outcome(reference_search_equalizer, V, f, g)
                    if isinstance(ref, tuple):
                        assert new == ref, (V.name, f, g)
                        no_equalizer += 1
                        continue
                    assert (new.obj, new.include) == (ref.obj, ref.include), (V.name, f, g)
                    for c in objs:
                        for h in V.hom(c, a):
                            assert _outcome(new.factor, h) == _outcome(ref.factor, h), (V.name, f, g, h)
                    pairs += 1
    assert products > 1000 and refused > 0 and pairs > 1000 and no_equalizer > 0


def test_nary_products_thin_exhaustive(boolb, cost3):
    for V in (boolb, cost3):
        objs = list(V.objects())
        lists = [[]] + [[a] for a in objs] + [
            [a, b] for a in objs for b in objs
        ] + [[a, b, c] for a in objs for b in objs for c in objs][:20]
        for ls in lists:
            pr = V.product(ls)
            for c in objs:
                import itertools as it

                for cone in it.product(*(V.hom(c, x) for x in ls)):
                    u = pr.pair(c, list(cone))
                    for proj, leg in zip(pr.projections, cone):
                        assert V.compose(u, proj) == leg
                    # uniqueness in a thin base is automatic; check anyway
                    assert V.hom_size(c, pr.obj) <= 1 or u.k < V.hom_size(c, pr.obj)


def test_finset2_equalizers_exhaustive():
    V = builtin_base("finset", k=2)
    for a in range(3):
        for b in range(3):
            for f in V.hom(a, b):
                for g in V.hom(a, b):
                    eq = V.equalizer(f, g)
                    assert V.compose(eq.include, f) == V.compose(eq.include, g)
                    for c in range(3):
                        for h in V.hom(c, a):
                            if V.compose(h, f) != V.compose(h, g):
                                continue
                            u = eq.factor(h)
                            assert V.compose(u, eq.include) == h
                            # the factorization is unique: the inclusion is monic
                            others = [
                                u2 for u2 in V.hom(c, eq.obj)
                                if V.compose(u2, eq.include) == h
                            ]
                            assert others == [u]


def test_product_pairing_refuses_legs_outside_their_factors(finset3):
    # hom(1, 4) has 4 arrows; an unchecked leg into 3 used to give (1,4,4)
    with pytest.raises(StructuralError, match="do not land in their factors"):
        finset3.product([2, 2]).pair(1, [MorRef(1, 3, 2), MorRef(1, 2, 0)])
    # finposet_struct(2): objects 2 (discrete) and 3 (chain) are both 2-point
    # carriers, so a leg into 3 fits the graph of a leg into 2
    V = builtin_base("finposet_struct", max_size=2)
    pr = V.product([2, 2])
    legs = [MorRef(1, 2, 0), MorRef(1, 2, 1)]
    u = pr.pair(1, legs)
    assert [V.compose(u, p) for p in pr.projections] == legs
    with pytest.raises(StructuralError, match="do not land in their factors"):
        pr.pair(1, [MorRef(1, 2, 0), MorRef(1, 3, 1)])


def _assert_thin_and_well_shaped(V):
    """Brute force: every hom has at most one morphism, and every compose,
    tensor_mor, unitor and associator entry has its declared shape."""
    objs = list(V.objects())
    assert all(V.hom_size(x, y) <= 1 for x in objs for y in objs)
    mors = list(V.mors())
    t = V.tensor_obj
    for f, g in itertools.product(mors, repeat=2):
        if f.dst == g.src:
            require_mor_shape(V, V.compose(f, g), f.src, g.dst)
        require_mor_shape(V, V.tensor_mor(f, g), t(f.src, g.src), t(f.dst, g.dst))
    I = V.unit
    for x in objs:
        require_mor_shape(V, V.lunitor(x), t(I, x), x)
        require_mor_shape(V, V.lunitor_inv(x), x, t(I, x))
        require_mor_shape(V, V.runitor(x), t(x, I), x)
        require_mor_shape(V, V.runitor_inv(x), x, t(x, I))
    for x, y, z in itertools.product(objs, repeat=3):
        require_mor_shape(V, V.associator(x, y, z), t(t(x, y), z), t(x, t(y, z)))
        require_mor_shape(V, V.associator_inv(x, y, z), t(x, t(y, z)), t(t(x, y), z))


GOLDEN = Path(__file__).parent / "golden"


def _golden_bases():
    """(file name, base item) for every base the golden corpus declares: the
    text documents, the constructed outputs and the JSON exports."""
    docs = [(path.name, parse(path.read_text(encoding="utf-8"))[0])
            for path in sorted(GOLDEN.glob("*.ecat")) + sorted(GOLDEN.glob("constructed/*.ecat"))]
    docs += [(path.name, from_json(path.read_text(encoding="utf-8"))[0]) for path in sorted(GOLDEN.glob("json/*.json"))]
    return [(name, item) for name, doc in docs if doc is not None for item in doc.of_kind("base")]


def _golden_table_bases():
    return [item.value for _, item in _golden_bases() if "builtin" not in item.refs]


def _tables(V: FinMonCat) -> dict:
    """The tables of a table base by name, closed and symmetry ones if present."""
    tables = {
        "hom": V.cat.hom_size_t, "id": V.cat.identity_t, "then": V.cat.then_t,
        "tensor_obj": V.tensor_obj_t, "tensor_mor": V.tensor_mor_t,
        "lunitor": V.lunitor_t, "lunitor_inv": V.lunitor_inv_t,
        "runitor": V.runitor_t, "runitor_inv": V.runitor_inv_t,
        "associator": V.associator_t, "associator_inv": V.associator_inv_t,
    }
    if V.symmetric:
        tables["symmetry"] = V.symmetry_t
    if V.closed:
        tables.update(hom_obj=V.closed_data.hom_obj_t, ev=V.closed_data.eval_t, lam=V.closed_data.lam_t)
    return tables


def _replaced(V: FinMonCat, table: str, key, value) -> FinMonCat:
    """A new table base with V's tables, except that ``table[key]`` is ``value``."""
    t = _tables(V)
    t[table] = {**t[table], key: value}
    return _from_tables(V, t)


def _from_tables(V: FinMonCat, t: dict) -> FinMonCat:
    """A new table base named like V, built from tables named as ``_tables`` names them."""
    closed = ClosedData(t["hom_obj"], t["ev"], t["lam"]) if V.closed else None
    return FinMonCat(
        FinCat(V.n_objects, t["hom"], t["id"], t["then"]), V.unit, t["tensor_obj"], t["tensor_mor"],
        t["lunitor"], t["lunitor_inv"], t["runitor"], t["runitor_inv"],
        t["associator"], t["associator_inv"], t.get("symmetry"), closed, name=V.name,
    )


def test_table_base_reports_a_missing_entry_by_table_and_key():
    """Each table reader of a table base refuses a key its table lacks with
    StructuralError naming the table and the key, as the tables' own
    messages do: the monoidal and symmetry readers print the key, the
    closed readers print its parts, and ``ev`` reads the eval table."""
    V = bool_base()
    readers = {"tensor_obj": "tensor_obj", "tensor_mor": "tensor_mor", "lunitor": "lunitor",
               "lunitor_inv": "lunitor_inv", "runitor": "runitor", "runitor_inv": "runitor_inv",
               "associator": "associator", "associator_inv": "associator_inv", "symmetry": "symmetry",
               "hom_obj": "hom_obj", "ev": "eval", "lam": "lam"}
    assert set(readers) == set(_tables(V)) - {"hom", "id", "then"}
    for table, what in readers.items():
        t = _tables(V)
        key = next(iter(t[table]))
        t[table] = {k: v for k, v in t[table].items() if k != key}
        args = key if isinstance(key, tuple) else (key,)
        shown = f"({','.join(map(str, args))})" if table in ("hom_obj", "ev", "lam") else str(key)
        with pytest.raises(StructuralError, match=f"^missing {what} entry at {re.escape(shown)}$"):
            getattr(_from_tables(V, t), table)(*args)
        assert getattr(V, table)(*args) == _tables(V)[table][key]


def _z2_base() -> FinMonCat:
    """One object whose morphisms are Z/2, tensored by addition: well-shaped
    and lawful, but its hom has two morphisms."""
    cat = FinCat.tabulate(1, {(0, 0): [0, 1]}, lambda a: 0, lambda a, b, c, f, g: (f + g) % 2)
    m = [MorRef(0, 0, 0), MorRef(0, 0, 1)]
    tensor_mor = {(f, g): m[(f.k + g.k) % 2] for f in m for g in m}
    one = {0: m[0]}
    return FinMonCat(cat, 0, {(0, 0): 0}, tensor_mor, one, one, one, one,
                     {(0, 0, 0): m[0]}, {(0, 0, 0): m[0]}, {(0, 0): m[0]}, name="z2")


def test_thin_is_certified_only_where_it_holds():
    """``thin`` lets the base law scans and check_enrichment skip diagrams,
    so it is computed from the tables: True exactly when every hom has at
    most one morphism and every entry the scans read is well-shaped. It
    holds on bool, cost(n), the terminal base and every table base of the
    golden corpus. It fails on the computed bases (the set_* documents'
    finset among them), a mutated view of a thin base, a lawful base with a
    two-morphism hom and a cost(3) copy with one ill-shaped associator."""
    golden = _golden_bases()
    tables = [item.value for _, item in golden if "builtin" not in item.refs]
    assert len(tables) == 33
    for V in [bool_base(), terminal_base(), *(cost_base(n) for n in range(7)), *tables]:
        assert V.thin, V.name
        _assert_thin_and_well_shaped(V)
    sets = [item.value for name, item in golden if name.startswith("set_")]
    assert len(sets) == 6
    z2 = _z2_base()
    assert all(check(z2).ok for _, check in base_law_checks(z2))
    skewed = _replaced(cost_base(3), "associator", (1, 1, 1), MorRef(2, 3, 0))
    others = [
        builtin_base("finset", k=2),
        builtin_base("finposet_struct", max_size=2),
        builtin_base("finpointedposet_struct", max_size=2),
        *sets,
        Mutated(bool_base(), "associator", (1, 1, 1), MorRef(1, 1, 0)),
        z2,
        skewed,
    ]
    assert not any(V.thin for V in others)
    with pytest.raises(StructuralError, match=r"morphism \(2,3,0\) does not have shape 3 -> 3"):
        check_monoidal(skewed)


def _scan_outcome(scan, V, limit):
    try:
        return scan(V, limit=limit)
    except StructuralError as exc:
        return str(exc)


def _mutants(rng: random.Random, bases: list, count: int):
    """``count`` new table bases, each one of ``bases`` with one entry of one
    table replaced: a morphism by one of the same shape (index 0 or 1) or
    with one end moved, an object by an index up to n, a hom size by 0..2."""
    for _ in range(count):
        V = rng.choice(bases)
        n = V.n_objects
        tables = _tables(V)
        table = rng.choice(sorted(tables))
        key = rng.choice(sorted(tables[table]))
        old = tables[table][key]
        if table == "hom":
            new = rng.randrange(3)
        elif isinstance(old, MorRef):
            new = rng.choice([
                MorRef(old.src, old.dst, rng.randrange(2)),
                MorRef(rng.randrange(n), old.dst, 0),
                MorRef(old.src, rng.randrange(n), 0),
            ])
        else:
            new = rng.randrange(n + 1)
        yield _replaced(V, table, key, new)


def test_thin_scans_match_the_full_scans():
    """On every base the certificate accepts, each base law scan reports what
    the full scan reports on a copy whose certificate is forced off, with and
    without ``limit``: the golden table bases, bool, cost(0..6), the terminal
    base and the seeded one-entry mutants of the small ones that certify.
    The certificate never raises, and rejects the other mutants."""
    tables = _golden_table_bases()
    small = [bool_base(), terminal_base(), *(cost_base(n) for n in range(3))]
    small += [V for V in tables if V.n_objects <= 4]
    mutants = list(_mutants(random.Random(12), small, 300))
    certified = [V for V in mutants if V.thin]
    assert 0 < len(certified) < len(mutants)
    bases = [*tables, bool_base(), terminal_base(), *(cost_base(n) for n in range(7)), *certified]
    # base_law_checks includes check_closed, which returns at once on a
    # certified base, on bool, cost(0..6) and the closed golden table bases
    assert bool_base().closed and all(cost_base(n).closed for n in range(7))
    assert any(V.closed for V in tables)
    for V in bases:
        assert V.thin, V.name
        reference = copy.copy(V)
        reference.thin = False
        for family, scan in base_law_checks(V):
            for limit in (None, 1):
                assert _scan_outcome(scan, V, limit) == _scan_outcome(scan, reference, limit), (V.name, family)


# ---------------------------------------------------------------------------
# batched kernel calls and the hom-at-a-time scans
# ---------------------------------------------------------------------------

#: Public callables of MonBase and GraphBase that read no mutable table entry:
#: capability predicates, the limit choosers and the graph numbering.
_NON_TABLE_METHODS = {"contains_obj", "equalizer", "product", "graph", "hom_graphs", "mor"}
#: FinCat's own table check, which check_category runs on a FinCat itself and
#: never through a view of one.
_FINCAT_OWN_METHODS = {"validate"}


def test_mutated_intercepts_every_table_entry_point():
    """Every public callable that MonBase, GraphBase, FinCat or their shared
    batched composition defines is overridden on Mutated or named as reading
    no table entry, so no entry point, a batched call included, hands a scan
    the wrapped base's unmutated entry."""
    from ecat.finset import GraphBase
    from ecat.vbase import MonBase

    defined = {
        name for cls in (BatchedCompose, MonBase, GraphBase, FinCat) for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    }
    overridden = {name for name, value in vars(Mutated).items() if callable(value) or isinstance(value, property)}
    assert defined - overridden == _NON_TABLE_METHODS | _FINCAT_OWN_METHODS
    V = builtin_base("finset", k=2)
    f, g = MorRef(2, 2, 1), MorRef(2, 2, 2)
    wrong = MorRef(2, 2, 0)
    M = Mutated(V, "compose", (f, g), wrong)
    assert M.compose_each(f, [g, f]) == [wrong, V.compose(f, f)]
    assert M.each_compose([f, g], g) == [wrong, V.compose(g, g)]
    M = Mutated(V, "tensor_mor", (f, g), wrong)
    assert M.tensor_each(f, [g, f]) == [wrong, V.tensor_mor(f, f)]
    assert M.each_tensor([f, g], g) == [wrong, V.tensor_mor(g, g)]


def _listed(V, fn):
    """The morphisms of the list fn returns, each as (source, target, index)
    with a structure base's objects read as (size, structure): it numbers
    the objects past its window in the order it meets them. WindowExceeded
    when fn raises that."""
    objs = getattr(V, "_objs", None)
    try:
        ms = fn()
    except WindowExceeded:
        return WindowExceeded
    return ms if objs is None else [(objs[m.src], objs[m.dst], m.k) for m in ms]


@pytest.mark.parametrize("name, params", [
    ("finset", {"k": 3}),
    ("finposet_struct", {"max_size": 2}),
    ("finpointedposet_struct", {"max_size": 2}),
    ("cost", {"n": 3}),
])
def test_batched_calls_match_the_per_entry_calls(name, params):
    """compose_each, each_compose, tensor_each and each_tensor equal the
    per-entry lists they stand for, for every window morphism against every
    window hom, and, on the structure bases, against each window hom's
    whisker rows by each window object: lists drawn from homs past the
    window, whose tensors with a window morphism can leave ``mor_bound``. A
    row that leaves it raises WindowExceeded, as its per-entry list does.
    The batched calls run on a fresh base of their own, whose inputs are
    built entry by entry, so each result they add is ranked and memoised by
    a batched loop (the GraphBase loops, or on cost(3) the MonBase
    defaults)."""
    def inputs(V):
        # built entry by entry in one order on each base, so that both number
        # the objects the whisker rows reach alike
        objs = list(V.objects())
        lists = [V.hom(a, b) for a in objs for b in objs]
        window = [m for ms in lists for m in ms]
        if name.endswith("_struct"):
            for ms in list(lists):
                for y in objs:
                    i = V.id_of(y)
                    lists.append([V.tensor_mor(m, i) for m in ms])
                    lists.append([V.tensor_mor(i, m) for m in ms])
        return [(m, ms) for ms in lists for m in window]

    batched, entry = builtin_base(name, **params), builtin_base(name, **params)
    exceeded = 0
    for (m, ms), (n, ns) in zip(inputs(batched), inputs(entry), strict=True):
        got = _listed(batched, lambda: batched.tensor_each(m, ms))
        assert got == _listed(entry, lambda: [entry.tensor_mor(n, x) for x in ns])
        exceeded += got is WindowExceeded
        got = _listed(batched, lambda: batched.each_tensor(ms, m))
        assert got == _listed(entry, lambda: [entry.tensor_mor(x, n) for x in ns])
        if ms and ms[0].src == m.dst:
            got = _listed(batched, lambda: batched.compose_each(m, ms))
            assert got == _listed(entry, lambda: [entry.compose(n, x) for x in ns])
        if ms and ms[0].dst == m.src:
            got = _listed(batched, lambda: batched.each_compose(ms, m))
            assert got == _listed(entry, lambda: [entry.compose(x, n) for x in ns])
    assert (exceeded > 0) == (name.endswith("_struct"))
    if name != "cost":
        _assert_memos_in_target_form(batched)


def test_graph_batched_calls_match_per_entry_past_byte_carriers():
    """On finset(4) the batched loops meet targets past the 256 elements a
    byte graph holds, alone and mixed with byte graphs within one call, and
    still equal the per-entry lists; each base memoises every graph in the
    form of its target."""
    batched, entry = builtin_base("finset", k=4), builtin_base("finset", k=4)
    rng = random.Random(24)

    def some(src, dst, n=3):
        return [MorRef(src, dst, rng.randrange(dst ** src)) for _ in range(n)]

    for a, b, c in [(2, 1024, 4), (3, 4, 1024), (2, 1024, 1024), (2, 256, 256), (3, 256, 4), (2, 4, 256), (0, 300, 2)]:
        (f,), gs = some(a, b, 1), some(b, c)
        assert batched.compose_each(f, gs) == [entry.compose(f, g) for g in gs]
        fs, (g,) = some(a, b), some(b, c, 1)
        assert batched.each_compose(fs, g) == [entry.compose(f, g) for f in fs]
    for (a, b), (c, d) in [((1, 64), (2, 4)), ((2, 256), (1, 4)), ((1, 4), (2, 256)), ((1, 1024), (1, 1)),
                           ((2, 1), (1, 256)), ((0, 0), (2, 1024)), ((1, 16), (1, 17)), ((2, 3), (1, 100))]:
        (f,), gs = some(a, b, 1), some(c, d)
        assert batched.tensor_each(f, gs) == [entry.tensor_mor(f, g) for g in gs]
        fs, (g,) = some(a, b), some(c, d, 1)
        assert batched.each_tensor(fs, g) == [entry.tensor_mor(f, g) for f in fs]
    _assert_memos_in_target_form(batched)
    _assert_memos_in_target_form(entry)


def test_graph_batched_calls_refuse_a_list_that_leaves_its_hom():
    V = builtin_base("finset", k=3)
    f, g, h = MorRef(2, 2, 1), MorRef(2, 3, 4), MorRef(3, 3, 0)
    for call in (lambda: V.compose_each(f, [g, h]), lambda: V.each_compose([f, g], h),
                 lambda: V.tensor_each(f, [g, h]), lambda: V.each_tensor([g, h], f)):
        with pytest.raises(StructuralError):
            call()
    assert V.compose_each(f, []) == V.each_tensor([], f) == []


_SCANS = {
    "monoidal": (check_monoidal, reference_check_monoidal),
    "symmetric": (check_symmetric, reference_check_symmetric),
    "closed": (check_closed, reference_check_closed),
}


def _report_or_raise(scan, V, limit=None):
    """The scan's report, or StructuralError when the scan raises one."""
    try:
        return scan(V, limit=limit)
    except StructuralError:
        return StructuralError


def _assert_scans_match_the_reference(V, label, families=tuple(_SCANS)):
    for family in families:
        scan, reference = _SCANS[family]
        if family == "symmetric" and not V.symmetric or family == "closed" and not V.closed:
            continue
        got, want = _report_or_raise(scan, V), _report_or_raise(reference, V)
        assert got == want, (label, family)
        # under limit=1 a scan ends at its first failure, a prefix of the
        # unlimited scan, so it must fail or raise exactly when the reference
        # does. An unlimited scan that neither fails nor raises is the
        # limit=1 scan run to its end, so it is not run a second time.
        if want is StructuralError or not want.ok:
            limited = _report_or_raise(scan, V, limit=1)
            assert limited is StructuralError or not limited.ok, (label, family)


def test_batched_scans_match_the_reference_on_the_window_bases():
    """Without a limit, check_monoidal, check_symmetric and check_closed report
    what the instance-at-a-time reference scans report, failures and skip
    counts alike, on criterion 1's window bases, and under limit=1 they
    decide the same ok. finset(4) is left to criterion 1: the reference
    scans take about 15 s there, and neither side can skip an instance of
    a finset base, which refuses no hom."""
    bases = [builtin_base("finset", k=k) for k in range(4)]
    bases += [bool_base(), *(cost_base(n) for n in (0, 3, 6))]
    bases += [builtin_base("finposet_struct", max_size=2), builtin_base("finpointedposet_struct", max_size=2)]
    for V in bases:
        _assert_scans_match_the_reference(V, V.name)
    # the structure bases skip, and both scans count the same instances
    assert check_monoidal(bases[-2]).skipped == {"associator-iso": 8, "associator-natural": 84, "pentagon": 64}
    assert check_symmetric(bases[-1]).skipped == {"hexagon": 1}


def _assert_symmetric_scan_matches_the_reference(M, label):
    """check_symmetric checks naturality one slot at a time, at the pairs
    with an identity side: natural in each slot is natural where (x) is a
    bifunctor (Mac Lane, CWM II.3). So where both scans return, it reports
    the reference's failures at those pairs and every other law's skips;
    where exactly one raises StructuralError, or their ok differ,
    check_monoidal fails or raises; and under limit=1 it fails wherever it
    fails unlimited."""
    got, want = _report_or_raise(check_symmetric, M), _report_or_raise(reference_check_symmetric, M)
    if got is not StructuralError and want is not StructuralError:
        assert got.failures == [f for f in want.failures if identity_sided(M, f)], label
        others = {law: n for law, n in want.skipped.items() if law != "symmetry-natural"}
        assert {law: n for law, n in got.skipped.items() if law != "symmetry-natural"} == others, label
    if (got is StructuralError) != (want is StructuralError) or _fails(got) != _fails(want):
        assert _fails(_report_or_raise(check_monoidal, M)), label
    if _fails(got):
        assert _fails(_report_or_raise(check_symmetric, M, limit=1)), label


def _assert_monoidal_scan_matches_the_reference(M, label):
    """check_monoidal checks the right decomposition and slotwise
    functoriality on a generating set of the window, which decides them at
    every pair where check_category holds. So where check_category passes,
    it reports the reference's report restricted to those instances
    (``reference_at_generators``), with the reference's ok; where the
    reports or the ok differ, check_category fails or raises; and under
    limit=1 it fails wherever it fails unlimited."""
    got, want = _report_or_raise(check_monoidal, M), _report_or_raise(reference_check_monoidal, M)
    if got != reference_at_generators(M, want) or _fails(got) != _fails(want):
        assert _fails(_report_or_raise(check_category, M)), label
    if _fails(got):
        assert _fails(_report_or_raise(check_monoidal, M, limit=1)), label


def test_batched_scans_match_the_reference_on_criterion_1_mutations():
    """The same comparison on each of criterion 1's 500 seeded mutations:
    the same report, or StructuralError from both, and the same ok under
    limit=1, for check_closed; check_monoidal and check_symmetric are
    compared as ``_assert_monoidal_scan_matches_the_reference`` and
    ``_assert_symmetric_scan_matches_the_reference`` say."""
    rng = random.Random(20240817)
    for V in (builtin_base("finset", k=2), bool_base(), cost_base(6),
              builtin_base("finposet_struct", max_size=2), builtin_base("finpointedposet_struct", max_size=2)):
        for i in range(100):
            M = random_mutation(rng, V)
            label = (V.name, i, M._table, M._key)
            _assert_monoidal_scan_matches_the_reference(M, label)
            _assert_scans_match_the_reference(M, label, ("closed",))
            if V.symmetric:
                _assert_symmetric_scan_matches_the_reference(M, label)


def test_closed_scan_matches_the_reference_on_lam_mutations():
    """check_closed reports what the reference reports when one lam entry is
    replaced by another morphism of its hom, or both raise StructuralError;
    every such mutation is caught, and under limit=1 the scan fails exactly
    when the reference does. Bool and cost homs hold at most one morphism,
    so they have no wrong lam value to draw."""
    rng = random.Random(20261020)
    for V in (builtin_base("finset", k=2), builtin_base("finposet_struct", max_size=2),
              builtin_base("finpointedposet_struct", max_size=2)):
        wrong_values = []
        for x, y, z in itertools.product(V.objects(), repeat=3):
            try:
                fs, gs = V.hom(V.tensor_obj(x, y), z), V.hom(x, V.hom_obj(y, z))
            except WindowExceeded:
                continue
            wrong_values += [((x, y, z, f), gs) for f in fs if len(gs) > 1]
        for i in range(40):
            key, gs = rng.choice(wrong_values)
            right = V.lam(*key)
            M = Mutated(V, "lam", key, rng.choice([g for g in gs if g != right]))
            label = (V.name, i, key, M._value)
            got, want = _report_or_raise(check_closed, M), _report_or_raise(reference_check_closed, M)
            assert got == want, label
            assert _fails(want), label
            limited = _report_or_raise(check_closed, M, limit=1)
            assert _fails(limited) == _fails(_report_or_raise(reference_check_closed, M, limit=1)), label


def test_closed_scan_builds_no_eta_row_where_beta_holds():
    """On a lawful base every beta row holds, so check_closed builds no eta
    row: a fresh finset(2) scan passes 479 elements to ``each_compose`` and
    78 to ``each_tensor``, where building the eta rows too would pass 524
    and 123 (45 more each, one per morphism of a hom(x, [y,z]))."""
    V = builtin_base("finset", k=2)
    passed = collections.Counter()
    for name in ("each_compose", "each_tensor"):
        def counted(fs, g, _name=name, _call=getattr(V, name)):
            passed[_name] += len(fs)
            return _call(fs, g)
        setattr(V, name, counted)
    assert check_closed(V).ok
    assert passed == {"each_compose": 479, "each_tensor": 78}


class _Tight(StructCat):
    """A poset base whose hom bound stops every law family but the category
    scan short of some of its instances."""

    mor_bound = 64


def test_every_family_counts_its_window_skips_as_the_reference_does():
    """Under a tight hom bound each scan on a fresh base stays ok, skips the
    instances whose homs leave the bound in every law that can skip, and
    reports exactly what the instance-at-a-time reference reports on a
    fresh base. The unitor laws never skip: I (x) x has x's carrier, so a
    window that numbers hom(x, x) numbers their homs too. Symmetry
    naturality is checked only at the pairs with an identity side: the
    reference skips 417 pairs, 80 of them with an identity side. Every hom
    of the window is enumerated, so check_monoidal chooses its generators,
    but some of their decomposition and functoriality rows leave the bound:
    it scans those laws at every morphism instead, and counts the
    reference's skips."""
    V = _Tight(PosetStructure(), 2)
    assert len(window_generators(V, _window_homs(V)[1])) == 12
    pins = {
        "category": (check_category, reference_check_category, {}),
        "monoidal": (check_monoidal, reference_check_monoidal, {
            "tensor-id": 4, "tensor-decomp": 377, "tensor-funct": 286, "associator-iso": 20,
            "associator-natural": 232, "triangle": 4, "pentagon": 112}),
        "symmetric": (check_symmetric, reference_check_symmetric,
                      {"symmetry-inverse": 4, "symmetry-natural": 80, "hexagon": 28}),
        "closed": (check_closed, reference_check_closed, {"lam-bijection": 12, "lam-natural": 32}),
    }
    for family, (scan, reference, skipped) in pins.items():
        rep = scan(_Tight(PosetStructure(), 2))
        assert rep.ok and rep.skipped == skipped, family
        want = reference(_Tight(PosetStructure(), 2))
        if family == "symmetric":
            assert want.skipped["symmetry-natural"] == 417
            want.skipped["symmetry-natural"] = 80
        assert rep == want, family


#: each base's generating set size; the cost(6) view's hom order puts every
#: a -> b before the cover a -> a-1 it factors through, so it chooses all 28
#: non-identities
_GENERATED = [
    ("finset", {"k": 0}, 0), ("finset", {"k": 1}, 1), ("finset", {"k": 2}, 6), ("finset", {"k": 3}, 19),
    ("finset", {"k": 4}, 51), ("finposet_struct", {"max_size": 2}, 12),
    ("finpointedposet_struct", {"max_size": 2}, 3), ("cost", {"n": 6}, 28),
]


def _generated_base(name, params):
    """A fresh base; cost(6) through a Mutated view that changes nothing, so
    it is not certified thin."""
    V = builtin_base(name, **params)
    return Mutated(V, "lunitor", (0,), V.lunitor(0)) if name == "cost" else V


@pytest.mark.parametrize("name, params, size", _GENERATED, ids=[f"{n}-{s}" for n, _, s in _GENERATED])
def test_window_generators_generate_the_window(name, params, size):
    """The composites of window_generators' choices, by a closure that
    composes pairs until none is new, are every window morphism; a fresh
    base and one that has run check_monoidal choose the same list. Below
    finset(4), each morphism is chosen exactly when it is not a composite
    of the choices before it in hom order. (check_category fills the
    kernel's memos, as a scan does.)"""
    V = _generated_base(name, params)
    homs = _window_homs(V)[1]
    gens = window_generators(V, homs)
    assert len(gens) == size
    assert reference_closure(V, gens) == set(V.mors())
    assert check_category(V).ok
    assert window_generators(V, homs) == gens == window_generators(_generated_base(name, params), homs)
    if size == 51:
        return
    chosen = []
    for m in (m for fs in homs.values() for m in fs):
        if m not in reference_closure(V, chosen):
            chosen.append(m)
    assert chosen == gens


def test_monoidal_scan_at_generators_counts_instances(monkeypatch):
    """On finset(3) the scan compares the left decomposition at all 60 * 60
    pairs, the right one at the 19 * 19 pairs of generators, and slotwise
    functoriality at the 440 composable pairs (f, f2) with f chosen, of
    1,678, by each of the 4 window objects: the lengths of the rows it
    compares. On finset(4) the same rule gives 8,332 slotwise pairs of
    133,799, and 51 * 51 = 2,601 right decompositions of 499 * 499."""
    compared = collections.Counter()

    def add_row(col, law, lhs, rhs, ms, before=(), after=(), _add_row=vbase._add_row):
        compared[law] += len(ms)
        _add_row(col, law, lhs, rhs, ms, before, after)

    monkeypatch.setattr(vbase, "_add_row", add_row)
    assert check_monoidal(builtin_base("finset", k=3)).ok
    assert {law: n for law, n in compared.items() if law.startswith("tensor")} == {
        "tensor-left-decomp": 3_600, "tensor-right-decomp": 361,
        "tensor-left-funct": 4 * 440, "tensor-right-funct": 4 * 440}
    for k, pairs, slotwise, n_gens, n_mors in ((3, 1_678, 440, 19, 60), (4, 133_799, 8_332, 51, 499)):
        V = builtin_base("finset", k=k)
        homs = _window_homs(V)[1]
        G = set(window_generators(V, homs))
        composable = [(fs, gs) for (a, b), fs in homs.items() for (c, d), gs in homs.items() if b == c]
        assert sum(len(fs) * len(gs) for fs, gs in composable) == pairs
        assert sum(sum(f in G for f in fs) * len(gs) for fs, gs in composable) == slotwise
        assert (len(G), sum(map(len, homs.values()))) == (n_gens, n_mors)


def test_monoidal_scan_falls_back_past_the_hom_cap(monkeypatch):
    """With a window hom past DEFAULT_HOM_CAP no generating set is chosen,
    and check_monoidal checks the decompositions and slotwise functoriality
    at every window morphism. The view replaces (2,2,0) (x) id_1, and
    (2,2,0) is not a generator of finset(3): under the cap the scan reports
    the reference's 22 failures at generators, of its 55; with the cap at 26,
    so that hom(3, 3)'s 27 morphisms are not enumerated, it reports all of
    the reference's failures, 55 again."""
    V = builtin_base("finset", k=3)
    f, i = MorRef(2, 2, 0), V.id_of(1)
    right = V.tensor_mor(f, i)
    M = Mutated(V, "tensor_mor", (f, i), MorRef(right.src, right.dst, (right.k + 1) % V.hom_size(right.src, right.dst)))
    G = set(window_generators(M, _window_homs(M)[1]))
    assert f not in G and check_category(M).ok
    want = reference_check_monoidal(M)
    got = check_monoidal(M)
    assert len(want.failures) == 55 and got == reference_at_generators(M, want)
    assert got.failures == [x for x in want.failures if generator_sided(G, x)] and len(got.failures) == 22
    assert DEFAULT_HOM_CAP >= 27
    monkeypatch.setattr("ecat.vbase.DEFAULT_HOM_CAP", 26)
    assert window_generators(M, _window_homs(M)[1]) is None
    want = reference_check_monoidal(M)
    assert len(want.failures) == 55 and check_monoidal(M) == want


@pytest.mark.parametrize("name, params", [("finset", {"k": 3}), ("finposet_struct", {"max_size": 2})])
def test_graph_kernel_interns_every_morphism_by_one_rule(name, params):
    """A morphism numbered by ``mor`` keeps its graph, so reading it back or
    composing with it never unranks it; and one graph reached through
    ``mor``, ``compose``, ``compose_each`` and ``each_compose`` is one
    object."""
    V = builtin_base(name, **params)
    unranked = []

    def unrank(m, _unrank=V._unrank):
        unranked.append(m)
        return _unrank(m)

    V._unrank = unrank
    objs = list(V.objects())
    listed = {(x, y): list(V.hom_graphs(x, y)) for x in objs for y in objs}
    named = {key: [V.mor(*key, g) for g in graphs] for key, graphs in listed.items()}
    for x, y, z in itertools.product(objs, repeat=3):
        fs, gs = named[x, y], named[y, z]
        for f in fs:
            assert V.graph(f) == listed[x, y][f.k]
            row = V.compose_each(f, gs)
            for g, fg in zip(gs, row, strict=True):
                assert V.compose(f, g) is fg
                assert V.mor(x, z, V.graph(fg)) is fg
        for g in gs:
            assert all(a is b for a, b in zip(V.each_compose(fs, g), (V.compose(f, g) for f in fs), strict=True))
    assert not unranked


# ---------------------------------------------------------------------------
# the row-at-a-time category scan
# ---------------------------------------------------------------------------

class _Reads:
    """A view that counts the attributes a scan reads from the base it wraps."""

    def __init__(self, base):
        self._base = base
        self.read = collections.Counter()

    def __getattr__(self, name):
        self.read[name] += 1
        return getattr(self._base, name)


def test_mutated_intercepts_every_call_check_category_makes():
    """Each attribute check_category reads from a base is one that Mutated
    intercepts, and the composites arrive through the batched calls alone."""
    for V in (builtin_base("finset", k=2), builtin_base("finposet_struct", max_size=2),
              Mutated(cost_base(6), "lunitor", (0,), cost_base(6).lunitor(0))):
        view = _Reads(V)
        assert check_category(view).ok
        assert set(view.read) <= set(vars(Mutated)), V
        assert view.read["compose_each"] and view.read["each_compose"] and not view.read["compose"]


def _report_or_error(scan, C, limit=None):
    """The scan's report, or the type and message of the error it raises."""
    try:
        return scan(C, limit=limit)
    except EcatError as e:
        return type(e), str(e)


def _fails(result) -> bool:
    return not isinstance(result, CheckReport) or not result.ok


def _assert_category_matches_the_reference(C, label):
    """check_category reports what the reference scan reports, failures and
    skip counts alike, or raises the same error; under limit=1 it fails or
    raises exactly when the reference does."""
    got, want = _report_or_error(check_category, C), _report_or_error(reference_check_category, C)
    assert got == want, label
    if _fails(want):
        limited = _report_or_error(check_category, C, limit=1)
        assert _fails(limited) == _fails(_report_or_error(reference_check_category, C, limit=1)), label
    return got


def test_category_scan_matches_the_reference_on_the_window_bases():
    """finset(0..4), both structure bases at cap 2, and cost(6) with its
    thin certificate off: every hom there holds at most 256 morphisms, so
    each associativity group is decided on byte rows."""
    bases = [builtin_base("finset", k=k) for k in range(5)]
    bases += [builtin_base("finposet_struct", max_size=2), builtin_base("finpointedposet_struct", max_size=2)]
    bases += [bool_base(), cost_base(6), Mutated(cost_base(6), "lunitor", (0,), cost_base(6).lunitor(0))]
    for V in bases:
        assert _assert_category_matches_the_reference(V, V.name).ok


def _long_hom_category(swap_identity: bool = False) -> FinCat:
    """0 -u-> 1 with 300 arrows g_k: 1 -> 2 and u;g_k = h_(k mod 3) in the
    three arrows 0 -> 2. With ``swap_identity``, g_0;id_2 is g_1 instead, which
    breaks the right identity law at g_0 and associativity at (u, g_0, id_2)."""
    homs = {(a, b): [] for a in range(3) for b in range(3)}
    homs.update({(0, 0): ["id"], (1, 1): ["id"], (2, 2): ["id"], (0, 1): ["u"],
                 (1, 2): list(range(300)), (0, 2): list(range(3))})

    def compose(a, b, c, f, g):
        if f == "id":
            return g
        if g == "id":
            return f
        return g % 3

    C = FinCat.tabulate(3, homs, lambda a: "id", compose)
    if swap_identity:
        then = dict(C.then_t)
        then[MorRef(1, 2, 0), MorRef(2, 2, 0)] = MorRef(1, 2, 1)
        C = FinCat(3, dict(C.hom_size_t), dict(C.identity_t), then)
    return C


def test_category_scan_matches_the_reference_past_byte_rows():
    """hom(1, 2) holds more than 256 morphisms, so the tables whose rows index
    it are lists and every group that reads them runs the instance loop; a
    group reading rows of both forms (byte rows into hom(0, 2), a list row
    into hom(1, 2)) compares them alike."""
    C = _long_hom_category()
    assert C.hom_size(1, 2) > BYTES_ROW >= C.hom_size(0, 2)
    assert _assert_category_matches_the_reference(C, "long hom").ok
    rep = _assert_category_matches_the_reference(_long_hom_category(swap_identity=True), "long hom, swapped")
    assert {f.law for f in rep.failures} == {"identity-right", "associativity"}
    assert Failure("associativity", (MorRef(0, 1, 0), MorRef(1, 2, 0), MorRef(2, 2, 0)),
                   MorRef(0, 2, 0), MorRef(0, 2, 1)) in rep.failures


def test_category_scan_matches_the_reference_on_swapped_then_entries():
    """finset(2)'s window as a FinCat with the values of two composition
    entries in one hom exchanged: the byte comparison of each group that
    reads them differs, and the instance loop names the same failures as the
    reference, in full."""
    W = window_fincat(builtin_base("finset", k=2))
    rng = random.Random(25)
    by_hom = collections.defaultdict(list)
    for key, h in W.then_t.items():
        by_hom[h.src, h.dst].append(key)
    failing = 0
    for _ in range(40):
        keys = by_hom[rng.choice(sorted(ab for ab, ks in by_hom.items() if len({W.then_t[k] for k in ks}) > 1))]
        k1, k2 = rng.sample(keys, 2)
        if W.then_t[k1] == W.then_t[k2]:
            continue
        then = dict(W.then_t)
        then[k1], then[k2] = then[k2], then[k1]
        C = FinCat(W.n_objects, dict(W.hom_size_t), dict(W.identity_t), then)
        rep = _assert_category_matches_the_reference(C, (k1, k2))
        failing += any(f.law == "associativity" for f in rep.failures)
    assert failing >= 20


def test_category_scan_matches_the_reference_on_criterion_1_mutations():
    """The same comparison on each of criterion 1's 500 seeded mutations."""
    rng = random.Random(20240817)
    for V in (builtin_base("finset", k=2), bool_base(), cost_base(6),
              builtin_base("finposet_struct", max_size=2), builtin_base("finpointedposet_struct", max_size=2)):
        for i in range(100):
            M = random_mutation(rng, V)
            _assert_category_matches_the_reference(M, (V.name, i, M._table, M._key))


def test_a_mutated_composite_reaches_the_category_scan_through_the_batched_calls():
    """A wrong composite in a Mutated view is read by the batched calls the
    category scan makes: on cost(6), whose homs hold at most one morphism,
    the wrong entry lies in another hom and the scan raises; on finset(2) it
    lies in its own hom and the scan names the failing instances."""
    V = cost_base(6)
    f = next(m for m in V.mors() if m.src != m.dst)
    g = V.id_of(f.dst)
    wrong = V.id_of(f.src)
    view = _Reads(Mutated(V, "compose", (f, g), wrong))
    with pytest.raises(StructuralError, match="does not have shape"):
        check_category(view)
    assert view.read["each_compose"] and not view.read["compose"]
    assert _report_or_error(check_category, view) == _report_or_error(reference_check_category, view._base)

    V = builtin_base("finset", k=2)
    f, g = MorRef(1, 2, 0), MorRef(2, 2, 2)  # g swaps the two points
    right = V.compose(f, g)
    view = _Reads(Mutated(V, "compose", (f, g), MorRef(1, 2, (right.k + 1) % 2)))
    rep = check_category(view)
    assert not rep.ok and {x.law for x in rep.failures} == {"associativity"}
    assert view.read["compose_each"] and not view.read["compose"]
    assert rep == reference_check_category(view._base)


def test_graph_compose_memoises_a_graph_out_of_the_empty_carrier():
    """The graph of a morphism out of the empty carrier is b"", which the
    compose memo still finds: 100 composes unrank each side once."""
    V = builtin_base("finset", k=3)
    calls = collections.Counter()
    graph = V._graph

    def counted(m):
        calls[m] += 1
        return graph(m)

    V._graph = counted
    f, g = MorRef(0, 2, 0), MorRef(2, 3, 5)
    for _ in range(100):
        assert V.compose(f, g) == MorRef(0, 3, 0)
    assert sum(calls.values()) <= 2


@pytest.mark.parametrize("S, pairs", [(PosetStructure(), 25), (PointedPosetStructure(), 9)])
def test_check_structure_forms_each_product_structure_once(S, pairs):
    """check_structure forms the product structure of each carrier pair once
    at cap 2, not once per third carrier, and its verdict holds."""
    calls = []
    prod = S.prod

    def counted(*args):
        calls.append(args)
        return prod(*args)

    S.prod = counted
    assert check_structure(S, 2).ok
    assert len(calls) == pairs
