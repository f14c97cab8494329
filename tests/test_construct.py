import itertools
import random
from pathlib import Path

import pytest

import construction_cases
from ecat.cli import run_cli
from ecat.construct import (
    LaxMonoidalFunctor,
    canonical_set_enrichment,
    change_of_base,
    check_lax_monoidal,
    check_preserves_underlying,
    dialgebra_enrichment,
    full_sub_enrichment,
    functor_category_enrichment,
    functor_category_on,
    opposite_enrichment,
    self_enrichment,
    self_to_arr,
    set_enrichment_unique,
    struct_data_to_enrichment,
    struct_enrichment_to_data,
)
from ecat.core import (
    EnrichedFunctor,
    bool_preorder_enrichment,
    check_enrichment,
    check_functor_enrichment,
    enumerate_enriched_transformations,
    id_functor,
    underlying_category,
)
from ecat.report import CapabilityError, StructuralError
from ecat.structures import (
    CartesianStructure,
    PointedPosetStructure,
    PosetStructure,
    StructCat,
    TrivialStructure,
    check_structure,
)
from ecat.vbase import MorRef, base_law_checks, bool_base, builtin_base, check_closed, check_monoidal, terminal_base

from helpers import random_preorder


# ---------------------------------------------------------------------------
# self-enrichment
# ---------------------------------------------------------------------------

def test_self_enrichment_bool(boolb):
    S = self_enrichment(boolb)
    assert check_enrichment(S).ok
    # hom objects are implications, underlying category is the base itself
    for a, b in itertools.product(range(2), repeat=2):
        assert S.hom(a, b) == boolb.hom_obj(a, b)
    assert underlying_category(S).hom_size_t == boolb.cat.hom_size_t


def test_self_enrichment_cost(cost5):
    S = self_enrichment(cost5)
    assert check_enrichment(S).ok

    def val(i):
        return float("inf") if i == 6 else i

    def plus(a, b):
        s = val(a) + val(b)
        return s if s <= 5 else float("inf")

    # hom objects are the truncated residuals: least x with x + a >= b
    for a, b in itertools.product(range(7), repeat=2):
        h = S.hom(a, b)
        assert plus(h, a) >= val(b)
        for smaller in range(7):
            if val(smaller) < val(h):
                assert plus(smaller, a) < val(b)


def test_self_enrichment_finset_to_arr_round_trip(finset2):
    S = self_enrichment(finset2)
    assert check_enrichment(S).ok
    for f in S.under.mors():
        u = S.farr(f)
        assert u is not None
        back = self_to_arr(S, f.src, f.dst, u)
        assert back == f


def test_self_enrichment_needs_capabilities(boolb):
    V = bool_base()
    V.closed_data = None
    with pytest.raises(CapabilityError):
        self_enrichment(V)


# ---------------------------------------------------------------------------
# full subcategories, opposites
# ---------------------------------------------------------------------------

def test_full_sub_everything_and_nothing(boolb):
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    all_sub, inc = full_sub_enrichment(E, lambda x: True)
    assert all_sub.n_objects == 2 and check_enrichment(all_sub).ok
    assert check_functor_enrichment(inc).ok
    none_sub, _ = full_sub_enrichment(E, lambda x: False)
    assert none_sub.n_objects == 0 and check_enrichment(none_sub).ok


def test_full_sub_of_full_sub_is_conjunction(boolb):
    rel = {(i, j) for i in range(3) for j in range(i, 3)}
    E = bool_preorder_enrichment(boolb, rel, 3)
    sub1, _ = full_sub_enrichment(E, lambda x: x != 1)
    sub2, _ = full_sub_enrichment(sub1, lambda x: x != 1)  # drops old object 2
    direct, _ = full_sub_enrichment(E, lambda x: x == 0)
    assert sub2.hom_obj_t == direct.hom_obj_t


def test_opposite_reverses_order(boolb):
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    Eop = opposite_enrichment(E)
    assert check_enrichment(Eop).ok
    assert Eop.hom(1, 0) == 1 and Eop.hom(0, 1) == 0


def test_opposite_involution(boolb):
    rng = random.Random(41)
    rel = random_preorder(rng, 3)
    E = bool_preorder_enrichment(boolb, rel, 3)
    Eopop = opposite_enrichment(opposite_enrichment(E))
    assert Eopop.hom_obj_t == E.hom_obj_t
    assert Eopop.e_comp_t == E.e_comp_t
    assert Eopop.from_arr_t == E.from_arr_t


def test_opposite_of_self_enrichment_is_reverse_implication(boolb):
    S = self_enrichment(boolb)
    Sop = opposite_enrichment(S)
    for a, b in itertools.product(range(2), repeat=2):
        assert Sop.hom(a, b) == boolb.hom_obj(b, a)


# ---------------------------------------------------------------------------
# dialgebras
# ---------------------------------------------------------------------------

def test_dialgebra_identity_pair(boolb):
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    idE = id_functor(E)
    res = dialgebra_enrichment(idE, idE)
    assert check_enrichment(res.enrichment).ok
    assert check_functor_enrichment(res.projection).ok
    # objects are pairs (x, f: x -> x): only identity squares in a poset
    assert res.objects == [(0, MorRef(0, 0, 0)), (1, MorRef(1, 1, 0))]
    # underlying category matches the direct square scan
    for a, b in itertools.product(range(len(res.objects)), repeat=2):
        (x, f), (y, g) = res.objects[a], res.objects[b]
        direct = [
            h for h in E.under.hom(x, y)
            if E.under.compose(f, h) == E.under.compose(h, g)
        ]
        assert len(direct) == res.enrichment.under.hom_size(a, b)


def test_dialgebra_set_enrichment(finset3):
    from helpers import cyclic_monoid_category

    C = cyclic_monoid_category(2)
    E = canonical_set_enrichment(C, finset3)
    idE = id_functor(E)
    res = dialgebra_enrichment(idE, idE)
    assert check_enrichment(res.enrichment).ok
    assert check_functor_enrichment(res.projection).ok
    # dialgebras of (id, id) over Z/2: pairs (pt, f) for both group elements,
    # morphisms h with f;h = h;g
    assert len(res.objects) == 2
    for a, b in itertools.product(range(2), repeat=2):
        (x, f), (y, g) = res.objects[a], res.objects[b]
        direct = [
            h for h in C.hom(x, y)
            if C.compose(f, h) == C.compose(h, g)
        ]
        assert len(direct) == res.enrichment.under.hom_size(a, b)


def test_dialgebra_needs_equalizers(boolb):
    E = bool_preorder_enrichment(boolb, {(0, 0)}, 1)
    idE = id_functor(E)
    V = bool_base()
    V.has_equalizers = False
    E2 = bool_preorder_enrichment(V, {(0, 0)}, 1)
    with pytest.raises(CapabilityError):
        dialgebra_enrichment(id_functor(E2), id_functor(E2))


# ---------------------------------------------------------------------------
# functor categories
# ---------------------------------------------------------------------------

def test_functor_category_unit_dom(boolb):
    unitE = bool_preorder_enrichment(boolb, {(0, 0)}, 1)
    rel = {(0, 0), (1, 1), (0, 1)}
    E2 = bool_preorder_enrichment(boolb, rel, 2)
    fc = functor_category_enrichment(unitE, E2)
    assert fc.enrichment.n_objects == 2
    assert check_enrichment(fc.enrichment).ok
    # isomorphic to E2 itself: hom objects match under the object bijection
    obs = [F.ob(0) for F in fc.functors]
    for a, b in itertools.product(range(2), repeat=2):
        assert fc.enrichment.hom(a, b) == E2.hom(obs[a], obs[b])


def test_functor_category_chain(boolb):
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    fc = functor_category_enrichment(E, E)
    assert fc.enrichment.n_objects == 3
    assert check_enrichment(fc.enrichment).ok
    # thin-base hom object = meet over objects of componentwise hom
    for a, b in itertools.product(range(3), repeat=2):
        F, G = fc.functors[a], fc.functors[b]
        meet = min(E.hom(F.ob(x), G.ob(x)) for x in range(2))
        assert fc.enrichment.hom(a, b) == meet
    # underlying category agrees with the transformation enumeration
    for a, b in itertools.product(range(3), repeat=2):
        n = len(enumerate_enriched_transformations(fc.functors[a], fc.functors[b]))
        assert fc.enrichment.under.hom_size(a, b) == n
    # objects and morphisms are looked up by table key and component table
    for a, F in enumerate(fc.functors):
        assert fc.functor_index(F) == a
        for b in range(3):
            for k, t in enumerate(fc.transformations[(a, b)]):
                assert fc.transformation_index(a, b, t.component) == k
    with pytest.raises(StructuralError):
        fc.transformation_index(1, 0, fc.transformations[(0, 1)][0].component)
    with pytest.raises(StructuralError):
        fc.functor_index(id_functor(fc.enrichment))


def test_functor_category_on_requested_functors(boolb):
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    full = functor_category_enrichment(E, E)
    F, _, H = full.functors
    # a functor with H's tables is H: duplicates merge, request order stays
    H2 = EnrichedFunctor(E, E, dict(H.ob_map), dict(H.mor_map), dict(H.e_fun_t))
    sub = functor_category_on(E, E, [H, F, H2, F])
    assert sub.functors == [H, F] and sub.functor_index(H2) == 0
    old = [2, 0]
    for a, b in itertools.product(range(2), repeat=2):
        assert sub.enrichment.hom(a, b) == full.enrichment.hom(old[a], old[b])
        assert [t.component for t in sub.transformations[(a, b)]] == [
            t.component for t in full.transformations[(old[a], old[b])]
        ]
    assert check_enrichment(sub.enrichment).ok
    with pytest.raises(StructuralError):
        functor_category_on(bool_preorder_enrichment(boolb, rel, 2), E, [F])


def test_functor_category_needs_capabilities(boolb):
    V = bool_base()
    V.symmetry_t = None
    E = bool_preorder_enrichment(V, {(0, 0)}, 1)
    with pytest.raises(CapabilityError):
        functor_category_enrichment(E, E)


# ---------------------------------------------------------------------------
# change of base
# ---------------------------------------------------------------------------

def bool_to_cost_functor(boolb, costn):
    inf = costn.n_objects - 1
    ob = {0: inf, 1: 0}
    mor = {}
    for f in boolb.mors():
        mor[f] = MorRef(ob[f.src], ob[f.dst], 0)
    mult = {}
    for x, y in itertools.product(range(2), repeat=2):
        src = costn.tensor_obj(ob[x], ob[y])
        mult[(x, y)] = MorRef(src, ob[boolb.tensor_obj(x, y)], 0)
    return LaxMonoidalFunctor(boolb, costn, ob, mor, MorRef(0, 0, 0), mult, name="embed")


def collapse_functor(V):
    T = terminal_base()
    ob = {x: 0 for x in V.objects()}
    mor = {f: MorRef(0, 0, 0) for f in V.mors()}
    mult = {(x, y): MorRef(0, 0, 0) for x in V.objects() for y in V.objects()}
    return LaxMonoidalFunctor(V, T, ob, mor, MorRef(0, 0, 0), mult, name="collapse")


def test_identity_lax_functor_preserves(boolb):
    F = LaxMonoidalFunctor(
        boolb, boolb,
        {x: x for x in boolb.objects()},
        {f: f for f in boolb.mors()},
        boolb.id_of(boolb.unit),
        {(x, y): boolb.id_of(boolb.tensor_obj(x, y)) for x in range(2) for y in range(2)},
    )
    assert check_lax_monoidal(F).ok
    assert check_preserves_underlying(F).ok
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    E2 = change_of_base(F, E)
    assert E2.data_equal(E)


def test_bool_to_cost_change_of_base(boolb, cost5):
    F = bool_to_cost_functor(boolb, cost5)
    assert check_lax_monoidal(F).ok
    assert check_preserves_underlying(F).ok
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    E2 = change_of_base(F, E)
    assert check_enrichment(E2).ok
    inf = 6
    assert E2.hom(0, 1) == 0 and E2.hom(1, 0) == inf
    # underlying category objects/morphisms unchanged
    assert E2.under.hom_size_t == E.under.hom_size_t


def test_collapse_refused(boolb):
    F = collapse_functor(boolb)
    assert check_lax_monoidal(F).ok
    rep = check_preserves_underlying(F)
    assert not rep.ok  # bool(1, 0) is empty but the terminal hom is not
    rel = {(0, 0), (1, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    with pytest.raises(CapabilityError):
        change_of_base(F, E)


def test_collapse_of_finset_refused(finset2):
    F = collapse_functor(finset2)
    rep = check_preserves_underlying(F)
    assert not rep.ok  # |finset(1, 2)| = 2 > 1 collapses
    bad = {f.instance for f in rep.failures}
    assert (2,) in bad


def test_change_of_base_rechecks_a_functor_changed_after_its_check(finset2):
    """A functor whose tables change after a passing check is refused, as a
    fresh functor with the same tables is: change_of_base trusts no earlier
    verdict."""
    from ecat.vbase import FinCat

    V = finset2
    F = LaxMonoidalFunctor(
        V, V,
        {x: x for x in V.objects()},
        {f: f for f in V.mors()},
        V.id_of(V.unit),
        {(x, y): V.id_of(V.tensor_obj(x, y)) for x in V.objects() for y in V.objects()},
    )
    assert check_preserves_underlying(F).ok
    F.mor_map[MorRef(1, 2, 1)] = MorRef(1, 2, 0)  # the two points of 2 now agree
    assert not check_preserves_underlying(F).ok
    # two objects with two parallel arrows 0 -> 1
    ident = {0: MorRef(0, 0, 0), 1: MorRef(1, 1, 0)}
    then = {}
    for f in [*ident.values(), MorRef(0, 1, 0), MorRef(0, 1, 1)]:
        then[ident[f.src], f] = then[f, ident[f.dst]] = f
    C = FinCat(2, {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}, ident, then)
    E = canonical_set_enrichment(C, V)
    fresh = LaxMonoidalFunctor(V, V, dict(F.ob_map), dict(F.mor_map), F.unit_cell, dict(F.mult_cell))
    for G in (F, fresh):
        with pytest.raises(CapabilityError, match=r"underlying categories not preserved at \(2,\)"):
            change_of_base(G, E)


class _Rule(dict):
    """A functor table that answers every key it does not hold by ``rule``."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        return self.rule(key)


def _identity_lax_functor(V) -> LaxMonoidalFunctor:
    """The identity on V, with identity unit and multiplication cells, on
    every object and morphism the scan reaches (tensors and coherence maps
    leave the window)."""
    return LaxMonoidalFunctor(V, V, _Rule(lambda x: x), _Rule(lambda f: f), V.id_of(V.unit),
                              _Rule(lambda xy: V.id_of(V.tensor_obj(*xy))), name="id")


@pytest.mark.parametrize("table, key, value, laws", [
    # id_2 sent to the swap of 2
    ("mor_map", MorRef(2, 2, 1), MorRef(2, 2, 2),
     {"functor-identity", "functor-composition", "mult-natural", "lax-left-unit", "lax-right-unit",
      "lax-associativity"}),
    # the constant map 2 -> 2 at 1 sent to the constant at 0
    ("mor_map", MorRef(2, 2, 3), MorRef(2, 2, 0), {"functor-composition", "mult-natural"}),
    # the multiplication cell at (2, 2), an endomap of 4, made constant
    ("mult_cell", (2, 2), MorRef(4, 4, 0), {"mult-natural", "lax-associativity"}),
], ids=["identity", "constant", "mult"])
def test_lax_monoidal_names_each_broken_law(finset2, table, key, value, laws):
    """One entry of the identity lax functor on finset(2), a base whose homs
    are not thin, replaced by another morphism of its hom: the report names
    each law the change breaks, and no other."""
    F = _identity_lax_functor(finset2)
    assert check_lax_monoidal(F).ok
    getattr(F, table)[key] = value
    assert {f.law for f in check_lax_monoidal(F).failures} == laws


@pytest.mark.parametrize("table, key, message", [
    ("ob_map", 0, "lax functor undefined on object 0"),
    ("mor_map", MorRef(0, 0, 0), r"lax functor undefined on morphism \(0,0,0\)"),
    ("mult_cell", (0, 0), r"lax functor missing mult cell at \(0,0\)"),
], ids=["ob_map", "mor_map", "mult_cell"])
def test_lax_monoidal_refuses_a_missing_entry(finset2, table, key, message):
    V = finset2
    objs = list(V.objects())
    F = LaxMonoidalFunctor(V, V, {x: x for x in objs}, {f: f for f in V.mors()}, V.id_of(V.unit),
                           {(x, y): V.id_of(V.tensor_obj(x, y)) for x in objs for y in objs})
    del getattr(F, table)[key]
    with pytest.raises(StructuralError, match=message):
        check_lax_monoidal(F)


# ---------------------------------------------------------------------------
# set-enrichment canonicity
# ---------------------------------------------------------------------------

def test_monoid_set_enrichment(finset3):
    from helpers import cyclic_monoid_category, idempotent_monoid_category

    for C in (cyclic_monoid_category(3), idempotent_monoid_category()):
        E = canonical_set_enrichment(C, finset3)
        assert check_enrichment(E).ok


def test_set_enrichment_uniqueness_iso(finset3):
    from ecat.core import Enrichment
    from helpers import cyclic_monoid_category

    C = cyclic_monoid_category(2)
    E1 = canonical_set_enrichment(C, finset3)
    # a differently-permuted encoding: conjugate every table through the
    # nontrivial automorphism of the hom object
    swap = finset3.mor(2, 2, (1, 0))
    swapped = finset3.compose_all(finset3.tensor_mor(swap, swap), E1.e_comp_t[(0, 0, 0)], swap)
    E2 = Enrichment(
        finset3, C, dict(E1.hom_obj_t),
        {x: finset3.compose(m, swap) for x, m in E1.e_id_t.items()},
        {(0, 0, 0): swapped},
        {f: finset3.compose(m, swap) for f, m in E1.from_arr_t.items()},
    )
    assert check_enrichment(E2).ok
    iso = set_enrichment_unique(E1, E2)
    assert check_functor_enrichment(iso).ok
    from ecat.factor import is_fully_faithful

    assert is_fully_faithful(iso).ok


def test_set_enrichment_empty(finset2):
    from ecat.vbase import FinCat

    C = FinCat(0, {}, {}, {})
    E = canonical_set_enrichment(C, finset2)
    assert check_enrichment(E).ok


def test_set_enrichment_overflow_guard(finset2):
    from helpers import cyclic_monoid_category

    C = cyclic_monoid_category(3)
    E = canonical_set_enrichment(C, builtin_base("finset", k=3))
    assert check_enrichment(E).ok
    with pytest.raises(CapabilityError):
        canonical_set_enrichment(C, finset2)


# ---------------------------------------------------------------------------
# cartesian structures
# ---------------------------------------------------------------------------

def test_structure_axioms():
    assert check_structure(TrivialStructure(), 2).ok
    assert check_structure(PosetStructure(), 2).ok
    assert check_structure(PointedPosetStructure(), 2).ok
    assert check_structure(PointedPosetStructure(), 3).ok


CHAIN2 = frozenset({(0, 0), (0, 1), (1, 1)})


class _NoChainIdentity(PosetStructure):
    """Monotone maps, less the identity of the 2-chain: ``maps`` leaves it
    out though ``is_map`` accepts it, so a composite of listed maps (the
    swap from the 2-chain to its opposite, then back) is not listed and
    composition-closure breaks."""

    def maps(self, nx, sx, ny, sy):
        return [g for g in super().maps(nx, sx, ny, sy) if not (sx == sy == CHAIN2 and g == (0, 1))]


class _DiscreteProduct(PosetStructure):
    """Posets whose product carries the discrete order: every map out of a
    discrete poset is monotone, so the projections hold, but a pairing of
    monotone maps is not, and pairing breaks."""

    def prod(self, nx, sx, ny, sy):
        return frozenset((i, i) for i in range(nx * ny))


class _SelfMapRefused(PosetStructure):
    """A structure value refuses the maps to itself, though an equal value
    built apart (a product's) does not: identities break."""

    def is_map(self, nx, sx, ny, sy, graph):
        return sx is not sy and super().is_map(nx, sx, ny, sy, graph)


class _IrreflexiveUnit(PosetStructure):
    """The one-point poset with no pairs as the unit: the maps to it from a
    non-empty poset, which relates each point to itself, break."""

    def unit_structure(self):
        return frozenset()


class _EveryMapPreserves(PosetStructure):
    """Posets where every graph counts as a map: two orders on one carrier
    are isomorphic through the identity, and antisymmetry breaks."""

    def is_map(self, nx, sx, ny, sy, graph):
        return True


class _FirstFactorIgnored(PosetStructure):
    """Posets whose product relates two pairs whenever their second
    coordinates are related: projection 1 breaks, and the projection 2 and
    pairings, whose maps into it only grow, hold."""

    def prod(self, nx, sx, ny, sy):
        return frozenset((a * ny + b, c * ny + d) for a in range(nx) for c in range(nx) for b, d in sy)


class _SecondFactorIgnored(PosetStructure):
    """The mirror image of ``_FirstFactorIgnored``: projection 2 breaks."""

    def prod(self, nx, sx, ny, sy):
        return frozenset((a * ny + b, c * ny + d) for a, c in sx for b in range(ny) for d in range(ny))


_BROKEN_STRUCTURES = [
    (_NoChainIdentity(), "composition-closure", 1),
    (_DiscreteProduct(), "pairing", 64),
    (_SelfMapRefused(), "identity-preserving", 5),
    (_IrreflexiveUnit(), "terminal-map", 4),
    (_EveryMapPreserves(), "structure-antisymmetry", 6),
    (_FirstFactorIgnored(), "projection-1", 12),
    (_SecondFactorIgnored(), "projection-2", 12),
]


@pytest.mark.parametrize("struct, law, count", _BROKEN_STRUCTURES, ids=[law for _, law, _ in _BROKEN_STRUCTURES])
def test_check_structure_names_the_one_broken_axiom(struct, law, count):
    """Each broken structure fails exactly one axiom, at every carrier
    instance (up to size 2) where it breaks."""
    laws = [f.law for f in check_structure(struct, 2).failures]
    assert laws == [law] * count


def test_broken_structure_is_refused_where_it_is_used():
    """A base built on a structure that breaks an axiom is not refused when
    it is built, but each scan that meets a non-preserving graph raises
    StructuralError."""
    assert not check_structure(_NoChainIdentity(), 2).ok
    assert not check_structure(_DiscreteProduct(), 2).ok
    families = list(base_law_checks(StructCat(_NoChainIdentity(), 2)))
    assert [family for family, _ in families] == ["category", "monoidal", "symmetric", "closed"]
    for _, check in families:
        with pytest.raises(StructuralError):
            check(StructCat(_NoChainIdentity(), 2))
    for check in (check_monoidal, check_closed):
        with pytest.raises(StructuralError):
            check(StructCat(_DiscreteProduct(), 2))


def test_struct_cat_does_not_decide_the_structure_axioms(monkeypatch):
    """Building a structure base runs no check_structure, and the base scans
    lawful without it."""
    def refuse(*args):
        raise AssertionError("check_structure ran")

    monkeypatch.setattr("ecat.structures.check_structure", refuse)
    V = StructCat(PosetStructure(), 2)
    assert all(check(V).ok for _, check in base_law_checks(V))


@pytest.mark.parametrize("struct, skips", [
    (PosetStructure(), {"category": 0, "monoidal": 156, "symmetric": 8, "closed": 0}),
    (PointedPosetStructure(), {"category": 0, "monoidal": 12, "symmetric": 1, "closed": 0}),
])
def test_struct_maps_match_reference_filter_on_law_scans(struct, skips):
    """Every hom the four law scans number on a fresh base of cap 2, listed
    or ranked by arithmetic, equals the generate-and-test reference, list
    order included; so do the points of every hom object they form, which
    are the hom's own numbering. Each hom object has one element per point,
    and its structure value is ``hom_structure`` on the reference listing.
    Each scan skips the same number of instances outside the window, as its
    report counts them."""
    seen = {}
    ranked = 0
    for family, check in base_law_checks(StructCat(struct, 2)):
        V = StructCat(struct, 2)
        rep = check(V)
        assert rep.ok
        assert sum(rep.skipped.values()) == skips.pop(family)
        for (x, y), listed in V._homs.items():
            graphs = [V.graph(MorRef(x, y, k)) for k in range(V.hom_size(x, y))]
            if listed is None:
                ranked += 1
            else:
                assert graphs == listed
            seen[V._objs[x], V._objs[y]] = graphs
        for (y, z), h in V._homobj.items():
            (ny, sy), (nz, sz) = V._objs[y], V._objs[z]
            points = list(V.hom_graphs(y, z))
            assert V.obj_size(h) == len(points)
            reference = CartesianStructure.maps(struct, ny, sy, nz, sz)
            assert V.obj_value(h) == struct.hom_structure(ny, sy, nz, sz, reference)
            seen[V._objs[y], V._objs[z]] = points
    assert not skips
    assert ranked > 0
    for ((nx, sx), (ny, sy)), graphs in seen.items():
        assert graphs == CartesianStructure.maps(struct, nx, sx, ny, sy)


@pytest.mark.parametrize("name", ["finposet_struct", "finpointedposet_struct"])
def test_free_homs_ranked_by_arithmetic_match_reference_filter(name):
    """On the window objects and their binary products, every hom within
    ``mor_bound`` whose source imposes no constraint is numbered by
    ``graph_rank``, never listed, and its k-th morphism is the k-th graph of
    the generate-and-test reference."""
    V = builtin_base(name, max_size=2)
    window = list(V.objects())
    objs = sorted(set(window) | {V.tensor_obj(a, b) for a in window for b in window})
    free = 0
    for x, y in itertools.product(objs, repeat=2):
        (nx, sx), (ny, sy) = V._objs[x], V._objs[y]
        if ny ** nx > V.mor_bound or not V.struct.is_free(nx, sx, ny, sy):
            continue
        free += 1
        graphs = [V.graph(MorRef(x, y, k)) for k in range(V.hom_size(x, y))]
        assert graphs == CartesianStructure.maps(V.struct, nx, sx, ny, sy)
        assert V._homs[(x, y)] is None
        assert all(V.mor(x, y, g) == MorRef(x, y, k) for k, g in enumerate(graphs))
    assert free > 0


def test_poset_maps_match_reference_filter_on_random_relations():
    """Arbitrary relations, reflexive or not, on 0 to 4 points each side."""
    S = PosetStructure()
    rng = random.Random(11)
    for nx, ny in itertools.product(range(5), repeat=2):
        for _ in range(12):
            rx = frozenset(p for p in itertools.product(range(nx), repeat=2) if rng.random() < 0.4)
            ry = frozenset(p for p in itertools.product(range(ny), repeat=2) if rng.random() < 0.7)
            assert S.maps(nx, rx, ny, ry) == CartesianStructure.maps(S, nx, rx, ny, ry)
    assert S.maps(0, frozenset(), 0, frozenset()) == [()]
    assert S.maps(0, frozenset(), 2, frozenset({(0, 0)})) == [()]
    assert S.maps(2, frozenset({(0, 1)}), 0, frozenset()) == []
    # the diagonal pair (0, 0) asks for g[0] in {v : (v, v) in ry}
    assert S.maps(1, frozenset({(0, 0)}), 3, frozenset({(1, 1), (0, 2)})) == [(1,)]


def test_trivial_structure_matches_finset(finset2):
    """Homs and hom objects have finset's sizes, and the closed laws hold."""
    V = StructCat(TrivialStructure(), 2)
    for x in V.objects():
        for y in V.objects():
            nx, ny = V.obj_size(x), V.obj_size(y)
            assert V.hom_size(x, y) == finset2.hom_size(nx, ny)
            assert V._objs[V.hom_obj(x, y)] == (finset2.hom_obj(nx, ny), ())
    assert check_closed(V).ok


def test_poset_struct_products_componentwise():
    V = StructCat(PosetStructure(), 2)
    chain = next(
        i for i in V.objects()
        if V.obj_size(i) == 2 and len(V.obj_value(i)) == 3
    )
    p = V.tensor_obj(chain, chain)
    assert V.obj_size(p) == 4
    rel = V.obj_value(p)
    # diamond: (0,0) <= (0,1),(1,0) <= (1,1) in pairing coordinates
    assert (0, 3) in rel and (1, 3) in rel and (2, 3) in rel and (0, 1) in rel


def test_prop_3_12_round_trip(boolb):
    # a two-object category with a 2-element hom carrying the chain order
    from helpers import free_dag_category
    import random as _r

    rng = _r.Random(3)
    while True:
        C = free_dag_category(rng, max_objects=2, max_hom=2)
        if any(v == 2 for v in C.hom_size_t.values()):
            break
    V = StructCat(PosetStructure(), 2)
    structs = {}
    for (x, y), n in sorted(C.hom_size_t.items()):
        if n == 2:
            structs[(x, y)] = frozenset({(0, 0), (1, 1), (0, 1)})
        else:
            structs[(x, y)] = frozenset({(i, i) for i in range(n)})
    E = struct_data_to_enrichment(C, structs, V)
    assert check_enrichment(E).ok
    back = struct_enrichment_to_data(E)
    assert back == structs


def test_prop_3_12_trivial_reduces_to_set(finset2):
    from helpers import free_dag_category
    import random as _r

    rng = _r.Random(3)
    while True:
        C = free_dag_category(rng, max_objects=2, max_hom=2)
        if any(v == 2 for v in C.hom_size_t.values()):
            break
    V = StructCat(TrivialStructure(), 2)
    structs = {key: () for key in C.hom_size_t}
    E = struct_data_to_enrichment(C, structs, V)
    assert check_enrichment(E).ok
    Eset = canonical_set_enrichment(C, finset2)
    for key in C.hom_size_t:
        assert V.obj_size(E.hom(*key)) == Eset.hom(*key)


def test_prop_3_12_refusal_names_witness():
    # order the single 2-element hom so that composition is NOT monotone:
    # in Z/2, composition with the swap exchanges the two elements, so the
    # only monotone order is discrete; a chain must be refused
    from helpers import cyclic_monoid_category

    C = cyclic_monoid_category(2)
    V = StructCat(PosetStructure(), 2)
    structs = {(0, 0): frozenset({(0, 0), (1, 1), (0, 1)})}
    with pytest.raises(CapabilityError) as err:
        struct_data_to_enrichment(C, structs, V)
    assert "(0,0,0)" in str(err.value).replace(" ", "")


def test_pointed_poset_enrichment():
    # pointed-poset enrichments need every hom carrier pointed (nonempty);
    # the codiscrete category is the natural small fixture
    V = StructCat(PointedPosetStructure(), 2)
    n = 2
    hom = {(i, j): 1 for i in range(n) for j in range(n)}
    ident = {i: MorRef(i, i, 0) for i in range(n)}
    then = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                then[(MorRef(i, j, 0), MorRef(j, k, 0))] = MorRef(i, k, 0)
    from ecat.vbase import FinCat

    C = FinCat(n, hom, ident, then)
    structs = {key: (frozenset({(0, 0)}), 0) for key in hom}
    E = struct_data_to_enrichment(C, structs, V)
    assert check_enrichment(E).ok
    assert struct_enrichment_to_data(E) == structs


def test_underlying_of_self_enrichment_is_the_base(finset2):
    from ecat.core import underlying_category

    S = self_enrichment(finset2)
    U = underlying_category(S)
    # hom(1, [x,y]) has exactly as many points as there are maps x -> y
    for x in range(3):
        for y in range(3):
            assert U.hom_size(x, y) == finset2.hom_size(x, y)
    iso = __import__("ecat.core", fromlist=["kelly_round_trip_iso"]).kelly_round_trip_iso(S)
    assert check_functor_enrichment(iso).ok


def cost_truncation_functor(big, small):
    """cost(m) -> cost(n) for m > n: truncate finite values past n to inf."""
    m_inf = big.n_objects - 1
    n = small.n_objects - 2
    n_inf = small.n_objects - 1

    def f(x):
        if x == m_inf or x > n:
            return n_inf
        return x

    ob = {x: f(x) for x in big.objects()}
    mor = {g: MorRef(ob[g.src], ob[g.dst], 0) for g in big.mors()}
    mult = {
        (x, y): MorRef(small.tensor_obj(ob[x], ob[y]), ob[big.tensor_obj(x, y)], 0)
        for x in big.objects() for y in big.objects()
    }
    return LaxMonoidalFunctor(big, small, ob, mor, MorRef(0, 0, 0), mult)


def test_composite_change_of_base(boolb, cost3, cost5):
    inf5, inf3 = 6, 4
    ob1 = {0: inf5, 1: 0}
    F1 = LaxMonoidalFunctor(
        boolb, cost5, ob1,
        {f: MorRef(ob1[f.src], ob1[f.dst], 0) for f in boolb.mors()},
        MorRef(0, 0, 0),
        {(x, y): MorRef(cost5.tensor_obj(ob1[x], ob1[y]), ob1[boolb.tensor_obj(x, y)], 0)
         for x in range(2) for y in range(2)},
    )
    F2 = cost_truncation_functor(cost5, cost3)
    assert check_lax_monoidal(F1).ok and check_lax_monoidal(F2).ok
    assert check_preserves_underlying(F1).ok and check_preserves_underlying(F2).ok
    ob_direct = {0: inf3, 1: 0}
    direct = LaxMonoidalFunctor(
        boolb, cost3, ob_direct,
        {f: MorRef(ob_direct[f.src], ob_direct[f.dst], 0) for f in boolb.mors()},
        MorRef(0, 0, 0),
        {(x, y): MorRef(cost3.tensor_obj(ob_direct[x], ob_direct[y]), ob_direct[boolb.tensor_obj(x, y)], 0)
         for x in range(2) for y in range(2)},
    )
    assert check_preserves_underlying(direct).ok
    rel = {(0, 0), (1, 1), (0, 1)}
    E = bool_preorder_enrichment(boolb, rel, 2)
    step = change_of_base(F2, change_of_base(F1, E))
    once = change_of_base(direct, E)
    assert check_enrichment(step).ok and check_enrichment(once).ok
    assert step.hom_obj_t == once.hom_obj_t
    assert step.e_comp_t == once.e_comp_t


def test_pointed_poset_equalizer_edge():
    V = StructCat(PointedPosetStructure(), 2)
    chain = next(i for i in V.objects() if V.obj_size(i) == 2)
    const0 = V.mor(chain, chain, (0, 0))
    const1 = V.mor(chain, chain, (1, 1))
    ident = V.mor(chain, chain, (0, 1))
    # agreeing on the top point only: the subset is pointed, equalizer exists
    eq = V.equalizer(ident, const1)
    assert V.obj_size(eq.obj) == 1
    # agreeing nowhere: no least element, no equalizer
    with pytest.raises(CapabilityError):
        V.equalizer(const0, const1)


# ---------------------------------------------------------------------------
# construction outputs, byte for byte
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

# pinned output under golden/constructed/ -> the CLI arguments producing it;
# the last argument names an input file under golden/
PINNED_CONSTRUCTIONS = {
    "bool_chain2.opposite.ecat": ["construct", "opposite", "bool_chain2.ecat"],
    "bool_chain2.full_sub_0.ecat": ["construct", "full-sub", "--keep", "0", "bool_chain2.ecat"],
    "bool_chain2.functor_category.ecat": ["construct", "functor-category", "bool_chain2.ecat"],
    "monad_toppoint.kleisli_raw.ecat": ["kleisli", "monad_toppoint.ecat"],
    "monad_toppoint.kleisli_univalent.ecat": ["kleisli", "--variant", "univalent", "monad_toppoint.ecat"],
    "bool_two_iso_points.rezk.ecat": ["rezk", "bool_two_iso_points.ecat"],
    "set_idem.opposite.ecat": ["construct", "opposite", "set_idem.ecat"],
    "set_z3.functor_category.ecat": ["construct", "functor-category", "set_z3.ecat"],
}


@pytest.mark.parametrize("name", sorted(PINNED_CONSTRUCTIONS))
def test_construction_output_bytes_pinned(name, capsys):
    """The morphism numbering and composition tables the constructions emit."""
    *argv, source = PINNED_CONSTRUCTIONS[name]
    assert run_cli([*argv, str(GOLDEN / source)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "constructed" / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(construction_cases.cases()))
def test_construction_tables_pinned(name):
    """The tables of every constructed enrichment and functor, as written
    by ``construction_cases.py`` into golden/constructions/."""
    pinned = (construction_cases.OUT / f"{name}.json").read_text(encoding="utf-8")
    assert construction_cases.cases()[name] == pinned


def test_every_construction_pin_is_generated():
    pins = sorted(p.stem for p in construction_cases.OUT.glob("*.json"))
    assert pins == sorted(construction_cases.cases())
