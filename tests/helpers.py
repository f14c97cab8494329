"""Corpus generators and independent oracles shared by the test suites.

Random categories come from free categories on acyclic multigraphs, optionally
quotiented by a random congruence, plus a few hand-built monoid categories;
associativity holds by construction and is still re-verified by a direct
triple-loop oracle where a test calls for one.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re

from ecat import dsl
from ecat.construct import full_sub_enrichment
from ecat.core import (
    Enrichment,
    EnrichedFunctor,
    EnrichedTransformation,
    bool_preorder_enrichment,
    check_nat_trans_enrichment,
    compose_functors,
    cost_space_enrichment,
    enumerate_enriched_functors,
    enumerate_enriched_transformations,
    find_inverse,
    id_functor,
    invertible_2cell,
    postcompose_mor,
    precompose_mor,
    thin_under_category,
    vcompose,
    whisker_left,
    whisker_right,
)
from ecat.dsl import _SCHEMA, NAME
from ecat.factor import (
    AdjointEquivalence,
    LiftSquare,
    is_essentially_surjective,
    is_fully_faithful,
    iso_arrows,
    orthogonal_lift,
    underlying_hom_inverse,
)
from ecat.report import CapabilityError, CheckReport, Collector, StructuralError, WindowExceeded, law_scan
from ecat.rezk import extend_functor, rezk_completion, transport_transformation
from ecat.vbase import (
    DEFAULT_HOM_CAP,
    EqualizerResult,
    FinCat,
    MonBase,
    MorRef,
    ProductResult,
    _check_iso_pair,
    _window_homs,
    label_ref,
    label_refs,
    require_mor_shape,
    thin_category,
)


# ---------------------------------------------------------------------------
# independent law oracles
# ---------------------------------------------------------------------------

def assoc_oracle(C: FinCat) -> list:
    """Direct triple-loop associativity scan; returns violating triples."""
    bad = []
    for f in C.mors():
        for g in C.mors():
            if f.dst != g.src:
                continue
            fg = C.compose(f, g)
            for h in C.mors():
                if g.dst != h.src:
                    continue
                if C.compose(fg, h) != C.compose(f, C.compose(g, h)):
                    bad.append((f, g, h))
    return bad


def identity_oracle(C: FinCat) -> list:
    bad = []
    for f in C.mors():
        if C.compose(C.id_of(f.src), f) != f or C.compose(f, C.id_of(f.dst)) != f:
            bad.append(f)
    return bad


def preorder_oracle(relation: set, n: int) -> bool:
    if any((x, x) not in relation for x in range(n)):
        return False
    return all(
        (x, z) in relation
        for (x, y) in relation
        for (y2, z) in relation
        if y == y2
    )


def cost_value(base, idx: int) -> float:
    """Object index to numeric value for a cost base (last index is inf)."""
    return float("inf") if idx == base.n_objects - 1 else idx


def triangle_oracle(base, d: dict, n: int) -> bool:
    """Triangle inequality in the truncated quantale: sums past the largest
    finite value are infinite."""
    top = base.n_objects - 2
    val = lambda i: cost_value(base, i)

    def plus(a, b):
        s = val(a) + val(b)
        return s if s <= top else float("inf")

    if any(val(d[(x, x)]) != 0 for x in range(n)):
        return False
    return all(
        val(d[(x, z)]) <= plus(d[(x, y)], d[(y, z)])
        for x, y, z in itertools.product(range(n), repeat=3)
    )


def kleisli_oracle(T) -> FinCat:
    """Textbook Kleisli category from the monad's underlying tables."""
    cat = T.carrier.under
    n = cat.n_objects
    hom_size = {}
    identity = {}
    then = {}
    for x, y in itertools.product(range(n), repeat=2):
        hom_size[(x, y)] = cat.hom_size(x, T.t_ob(y))
    for x in range(n):
        identity[x] = MorRef(x, x, T.eta(x).k)
    for x, y, z in itertools.product(range(n), repeat=3):
        for f in cat.hom(x, T.t_ob(y)):
            for g in cat.hom(y, T.t_ob(z)):
                comp = cat.compose(cat.compose(f, T.t_mor(g)), T.mu(z))
                then[(MorRef(x, y, f.k), MorRef(y, z, g.k))] = MorRef(x, z, comp.k)
    return FinCat(n, hom_size, identity, then)


def em_oracle(T) -> tuple[list, dict]:
    """Direct Eilenberg-Moore enumeration: algebra objects and hom lists."""
    cat = T.carrier.under
    algebras = []
    for x in cat.objects():
        for a in cat.hom(T.t_ob(x), x):
            if cat.compose(T.eta(x), a) != cat.id_of(x):
                continue
            if cat.compose(T.mu(x), a) != cat.compose(T.t_mor(a), a):
                continue
            algebras.append((x, a))
    homs = {}
    for i, (x, a) in enumerate(algebras):
        for j, (y, b) in enumerate(algebras):
            homs[(i, j)] = [
                h for h in cat.hom(x, y)
                if cat.compose(T.t_mor(h), b) == cat.compose(a, h)
            ]
    return algebras, homs


def count_monotone_maps(rel1: set, n1: int, rel2: set, n2: int) -> int:
    count = 0
    for graph in itertools.product(range(n2), repeat=n1):
        if all((graph[x], graph[y]) in rel2 for (x, y) in rel1):
            count += 1
    return count


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

def free_dag_category(rng: random.Random, max_objects: int = 4, max_hom: int = 3) -> FinCat:
    """Free category on a random acyclic multigraph, rejecting path explosions."""
    while True:
        n = rng.randint(1, max_objects)
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                edges[(i, j)] = rng.randint(0, 2)
        # paths[i][j]: list of edge-label tuples
        paths = {(i, j): [] for i in range(n) for j in range(n)}
        for i in range(n):
            paths[(i, i)].append(())
        order_ok = True
        for i in range(n):
            for j in range(i + 1, n):
                acc = []
                for k in range(i, j):
                    for p in paths[(i, k)]:
                        for e in range(edges.get((k, j), 0)):
                            acc.append(p + ((k, j, e),))
                paths[(i, j)] = acc
                if len(acc) > max_hom:
                    order_ok = False
                    break
            if not order_ok:
                break
        if not order_ok:
            continue
        hom_size = {(i, j): len(paths[(i, j)]) for i in range(n) for j in range(n)}
        identity = {i: MorRef(i, i, 0) for i in range(n)}
        index = {
            (i, j, tuple(p)): k
            for (i, j), ps in paths.items()
            for k, p in enumerate(ps)
        }
        then = {}
        for (i, j), ps in paths.items():
            for (j2, l), qs in paths.items():
                if j != j2:
                    continue
                for k1, p in enumerate(ps):
                    for k2, q in enumerate(qs):
                        then[(MorRef(i, j, k1), MorRef(j, l, k2))] = MorRef(
                            i, l, index[(i, l, tuple(p) + tuple(q))]
                        )
        return FinCat(n, hom_size, identity, then)


def quotient_category(C: FinCat, pairs: list) -> FinCat:
    """Quotient by the congruence closure of the given parallel pairs."""
    cls = {f: f for f in C.mors()}

    def find(f):
        while cls[f] != f:
            cls[f] = cls[cls[f]]
            f = cls[f]
        return f

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            cls[max(ra, rb)] = min(ra, rb)

    for a, b in pairs:
        if a.src == b.src and a.dst == b.dst:
            union(a, b)
    changed = True
    while changed:
        changed = False
        mors = list(C.mors())
        for f in mors:
            for g in mors:
                if f.dst != g.src:
                    continue
                for f2 in C.hom(f.src, f.dst):
                    if find(f2) != find(f):
                        continue
                    for g2 in C.hom(g.src, g.dst):
                        if find(g2) != find(g):
                            continue
                        a = C.compose(f, g)
                        b = C.compose(f2, g2)
                        if find(a) != find(b):
                            union(a, b)
                            changed = True
    reps = {}
    for f in C.mors():
        reps.setdefault((f.src, f.dst), [])
        r = find(f)
        if r not in reps[(f.src, f.dst)]:
            reps[(f.src, f.dst)].append(r)
    for key in reps:
        reps[key].sort()
    new_index = {
        r: MorRef(r.src, r.dst, reps[(r.src, r.dst)].index(r))
        for rs in reps.values()
        for r in rs
    }
    hom_size = {key: len(rs) for key, rs in reps.items()}
    for i in range(C.n_objects):
        for j in range(C.n_objects):
            hom_size.setdefault((i, j), 0)
    identity = {x: new_index[find(C.id_of(x))] for x in C.objects()}
    then = {}
    for f in C.mors():
        for g in C.mors():
            if f.dst != g.src:
                continue
            then[(new_index[find(f)], new_index[find(g)])] = new_index[find(C.compose(f, g))]
    return FinCat(C.n_objects, hom_size, identity, then)


def cyclic_monoid_category(k: int) -> FinCat:
    """One object, morphisms the cyclic group of order k."""
    hom_size = {(0, 0): k}
    identity = {0: MorRef(0, 0, 0)}
    then = {
        (MorRef(0, 0, a), MorRef(0, 0, b)): MorRef(0, 0, (a + b) % k)
        for a in range(k)
        for b in range(k)
    }
    return FinCat(1, hom_size, identity, then)


def idempotent_monoid_category() -> FinCat:
    """One object, morphisms {1, e} with e.e = e."""
    hom_size = {(0, 0): 2}
    identity = {0: MorRef(0, 0, 0)}
    comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    then = {
        (MorRef(0, 0, a), MorRef(0, 0, b)): MorRef(0, 0, comp[(a, b)])
        for a in range(2)
        for b in range(2)
    }
    return FinCat(1, hom_size, identity, then)


def random_category(rng: random.Random, max_objects: int = 4, max_hom: int = 3) -> FinCat:
    roll = rng.random()
    if roll < 0.15:
        return cyclic_monoid_category(rng.choice([2, 3]))
    if roll < 0.25:
        return idempotent_monoid_category()
    C = free_dag_category(rng, max_objects, max_hom)
    if roll < 0.6:
        return C
    mors = list(C.mors())
    pairs = []
    for _ in range(rng.randint(1, 3)):
        f = rng.choice(mors)
        par = [g for g in C.hom(f.src, f.dst)]
        if len(par) > 1:
            pairs.append((f, rng.choice(par)))
    return quotient_category(C, pairs) if pairs else C


def random_relation(rng: random.Random, n: int, density: float = 0.5) -> set:
    rel = {(x, x) for x in range(n)}
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < density:
                rel.add((x, y))
    return rel


def random_preorder(rng: random.Random, n: int, density: float = 0.4) -> set:
    rel = random_relation(rng, n, density)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def random_poset(rng: random.Random, n: int, density: float = 0.3) -> set:
    """Antisymmetric preorder built over the natural order of indices."""
    rel = {(x, x) for x in range(n)}
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                rel.add((x, y))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def random_metric_table(rng: random.Random, base, n: int) -> dict:
    """A valid distance table over a cost base (triangle-closed truncated)."""
    top = base.n_objects - 2  # largest finite value
    d = {}
    for x in range(n):
        for y in range(n):
            d[(x, y)] = 0 if x == y else rng.randint(0, base.n_objects - 1)
    # close under triangle inequality in value space
    changed = True
    while changed:
        changed = False
        for x, y, z in itertools.product(range(n), repeat=3):
            a = cost_value(base, d[(x, y)])
            b = cost_value(base, d[(y, z)])
            c = cost_value(base, d[(x, z)])
            s = a + b
            if s > top:
                s = float("inf")
            if c > s:
                d[(x, z)] = d[(x, y)] if s == a else (
                    base.n_objects - 1 if s == float("inf") else int(s)
                )
                changed = True
    return d


def random_monotone_ob_map(rng: random.Random, rel1: set, n1: int, rel2: set, n2: int):
    maps = [
        graph for graph in itertools.product(range(n2), repeat=n1)
        if all((graph[x], graph[y]) in rel2 for (x, y) in rel1)
    ]
    if not maps:
        return None
    return rng.choice(maps)


def thin_functor(E1: Enrichment, E2: Enrichment, ob_graph) -> EnrichedFunctor:
    """The enriched functor over a hom-dominating object map between thin
    enrichments (components forced)."""
    base = E1.base
    ob_map = dict(enumerate(ob_graph))
    mor_map = {}
    for f in E1.under.mors():
        mor_map[f] = MorRef(ob_map[f.src], ob_map[f.dst], 0)
    e_fun = {}
    for x, y in itertools.product(E1.objects(), repeat=2):
        src = E1.hom(x, y)
        dst = E2.hom(ob_map[x], ob_map[y])
        if base.hom_size(src, dst) == 0:
            raise ValueError(f"object map is not hom-dominating at ({x},{y})")
        e_fun[(x, y)] = MorRef(src, dst, 0)
    return EnrichedFunctor(E1, E2, ob_map, mor_map, e_fun)


def bool_functor_candidates(E1: Enrichment, E2: Enrichment) -> list[EnrichedFunctor]:
    """All hom-dominating maps between Bool-style thin enrichments."""
    out = []
    n1, n2 = E1.n_objects, E2.n_objects
    for graph in itertools.product(range(n2), repeat=n1):
        try:
            out.append(thin_functor(E1, E2, graph))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# the reference structural pass, closure and limit searches
# ---------------------------------------------------------------------------

def reference_validate_and_shape(E: Enrichment) -> None:
    """The structural pass ``check_enrichment`` ran on every call before
    tables were checked where they enter: the full ``FinCat.validate`` scan
    of the underlying category, then the shape of every hom object and
    present entry. It reads the public tables only, so it checks an object
    whatever its record says. Raises StructuralError."""
    C = E.under
    for (x, y), n in C.hom_size_t.items():
        if not (C.contains_obj(x) and C.contains_obj(y)) or n < 0:
            raise StructuralError(f"bad hom size entry ({x},{y})={n}")
    for x in C.objects():
        require_mor_shape(C, C.id_of(x), x, x)
    for f, g in C.then_t:
        if f.dst != g.src:
            raise StructuralError(f"composition defined on non-composable {f};{g}")
    out = {x: [(y, C.hom(x, y)) for y in C.objects() if C.hom_size(x, y)] for x in C.objects()}
    composable = 0
    for x, row in out.items():
        for y, fs in row:
            for z, gs in out[y]:
                composable += len(fs) * len(gs)
                for f, g in itertools.product(fs, gs):
                    require_mor_shape(C, C.compose(f, g), x, z)
    if len(C.then_t) != composable:
        f, g = next(key for key in C.then_t if not all(0 <= m.k < C.hom_size(m.src, m.dst) for m in key))
        raise StructuralError(f"composition defined on {f};{g}, outside their homs")

    V = E.base
    I = V.unit
    for x in E.objects():
        for y in E.objects():
            h = E.hom(x, y)
            if not V.contains_obj(h):
                raise StructuralError(f"hom object {h} at ({x},{y}) is not a base object")
    for x, m in E.e_id_t.items():
        require_mor_shape(V, m, I, E.hom(x, x))
    for (x, y, z), m in E.e_comp_t.items():
        require_mor_shape(V, m, V.tensor_obj(E.hom(y, z), E.hom(x, y)), E.hom(x, z))
    for f, m in E.from_arr_t.items():
        require_mor_shape(V, m, I, E.hom(f.src, f.dst))


def reference_scan_unit_assoc(K, objs, col: Collector) -> None:
    """The unit and associativity scan ``check_enrichment`` and
    ``check_kelly`` ran before it memoized: every diagram evaluated afresh
    at every instance whose data is present, in the same order."""
    V = K.base
    for x, y in itertools.product(objs, repeat=2):
        e_xy = K.hom(x, y)
        ei_y, ei_x = K.eid(y), K.eid(x)
        ec_l = K.ecomp(x, y, y)
        ec_r = K.ecomp(x, x, y)
        if ei_y is not None and ec_l is not None:
            lhs = V.compose(V.tensor_mor(ei_y, V.id_of(e_xy)), ec_l)
            rhs = V.lunitor(e_xy)
            if lhs != rhs:
                col.add("left-unit", (x, y), lhs, rhs)
        if ei_x is not None and ec_r is not None:
            lhs = V.compose(V.tensor_mor(V.id_of(e_xy), ei_x), ec_r)
            rhs = V.runitor(e_xy)
            if lhs != rhs:
                col.add("right-unit", (x, y), lhs, rhs)

    for w, x, y, z in itertools.product(objs, repeat=4):
        c_wxy = K.ecomp(w, x, y)
        c_wyz = K.ecomp(w, y, z)
        c_xyz = K.ecomp(x, y, z)
        c_wxz = K.ecomp(w, x, z)
        if None in (c_wxy, c_wyz, c_xyz, c_wxz):
            continue
        e_yz, e_xy, e_wx = K.hom(y, z), K.hom(x, y), K.hom(w, x)
        lhs = V.compose_all(
            V.associator(e_yz, e_xy, e_wx),
            V.tensor_mor(V.id_of(e_yz), c_wxy),
            c_wyz,
        )
        rhs = V.compose(V.tensor_mor(c_xyz, V.id_of(e_wx)), c_wxz)
        if lhs != rhs:
            col.add("associativity", (w, x, y, z), lhs, rhs)


def reference_thin_closure(n: int, arrows: set) -> FinCat:
    """The thin category on the reflexive-transitive closure of ``arrows``,
    by repeated sweeps over all pairs of related pairs until none adds one."""
    rel = set(arrows) | {(x, x) for x in range(n)}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return thin_category(n, rel)


def reference_search_equalizer(V, f, g) -> EqualizerResult:
    """The equalizer search before the hom-wise bijection test: for each
    candidate inclusion, the equalizing cones are enumerated again and each
    is factored by a scan of all of hom(c, e)."""
    def equalizing_cones():
        for c in V.objects():
            for h in V.hom(c, f.src):
                if V.compose(h, f) == V.compose(h, g):
                    yield h

    if f.src != g.src or f.dst != g.dst:
        raise StructuralError(f"equalizer needs a parallel pair, got {f} {g}")
    for e in V.objects():
        for inc in V.hom(e, f.src):
            if V.compose(inc, f) != V.compose(inc, g):
                continue
            table = {}
            good = True
            for h in equalizing_cones():
                us = [u for u in V.hom(h.src, e) if V.compose(u, inc) == h]
                if len(us) != 1:
                    good = False
                    break
                table[h] = us[0]
            if good:
                def factor(h, _table=table):
                    try:
                        return _table[h]
                    except KeyError:
                        raise StructuralError(f"{h} does not equalize the pair") from None

                return EqualizerResult(e, inc, factor)
    raise CapabilityError(f"no equalizer found for {f}, {g}")


def reference_search_product(V, objs: list[int]) -> ProductResult:
    """The product search before the hom-wise bijection test: for each
    candidate, every cone is paired by a scan of all of hom(c, p)."""
    objs = list(objs)
    for p in V.objects():
        for projs in itertools.product(*(V.hom(p, x) for x in objs)):
            table = {}
            good = True
            for c in V.objects():
                for cone in itertools.product(*(V.hom(c, x) for x in objs)):
                    us = [
                        u
                        for u in V.hom(c, p)
                        if all(V.compose(u, pr) == h for pr, h in zip(projs, cone))
                    ]
                    if len(us) != 1:
                        good = False
                        break
                    table[(c, cone)] = us[0]
                if not good:
                    break
            if good:
                def pair(src, cone, _table=table):
                    try:
                        return _table[(src, tuple(cone))]
                    except KeyError:
                        raise StructuralError("bad cone for product pairing") from None

                return ProductResult(p, tuple(projs), pair)
    raise CapabilityError(f"no product found for {objs}")


def reference_fincat_tabulate(n: int, homs: dict, identity, compose) -> FinCat:
    """``FinCat.tabulate`` as it was before it paired each hom with the homs
    out of its target once: every hom probes all n targets, and the
    constructor copies the tables it built."""
    objs = range(n)
    for a, b in homs:
        if a not in objs or b not in objs:
            raise StructuralError(f"bad hom size entry ({a},{b})={len(homs[a, b])}")
    refs = label_refs(homs)
    identity_t = {a: label_ref(refs, a, a, identity(a)) for a in range(n)}
    then = {}
    for (a, b), fs in refs.items():
        for c in range(n):
            gs = refs.get((b, c))
            if gs is None:
                continue
            hs = refs.get((a, c), {})
            for f, fm in fs.items():
                for g, gm in gs.items():
                    h = compose(a, b, c, f, g)
                    then[fm, gm] = hs.get(h) or label_ref(refs, a, c, h)
    C = FinCat(n, {ab: len(labels) for ab, labels in homs.items()}, identity_t, then)
    C._homs = {ab: tuple(refs[ab].values()) if labels else () for ab, labels in homs.items()}
    C._valid = True
    return C


def reference_tabulate(base, under: FinCat, hom_obj, eid, ecomp, farr, name: str = "") -> Enrichment:
    """``Enrichment.tabulate`` as it was before it checked the composition
    entries inline: one checking frame per entry, the tensor of the hom pair
    computed again for every composition entry, and the constructor copying
    the tables it built. The rules run in the same order."""
    V, I = base, base.unit
    under.validate()
    objs = under.objects()
    hom_obj_t = {(x, y): hom_obj(x, y) for x in objs for y in objs}
    for (x, y), h in hom_obj_t.items():
        if not V.contains_obj(h):
            raise StructuralError(f"hom object {h} at ({x},{y}) is not a base object")
    known = set()

    def shaped(m, src, dst):
        if m.__class__ is not MorRef or m not in known or m.src != src or m.dst != dst:
            require_mor_shape(V, m, src, dst)
            known.add(m)
        return m

    tensor = V.tensor_obj
    e_id_t = {x: shaped(m, I, hom_obj_t[x, x]) for x in objs if (m := eid(x)) is not None}
    e_comp_t = {(x, y, z): shaped(m, tensor(hom_obj_t[y, z], hom_obj_t[x, y]), hom_obj_t[x, z])
                for x in objs for y in objs for z in objs if (m := ecomp(x, y, z)) is not None}
    from_arr_t = {f: shaped(m, I, hom_obj_t[f.src, f.dst]) for f in under.mors() if (m := farr(f)) is not None}
    E = Enrichment(base, under, hom_obj_t, e_id_t, e_comp_t, from_arr_t, name=name)
    E._checked = True
    return E


def reference_thin_enrichment(base, n: int, hom_obj: dict, name: str = "") -> Enrichment:
    """``core.thin_enrichment`` as it was before it read hom objects from row
    lists: each point and arrow a new MorRef after a ``hom_size`` test, built
    through ``reference_tabulate``."""
    I = base.unit
    points = {h: MorRef(I, h, 0) for h in {hom_obj[x, y] for x in range(n) for y in range(n)}
              if base.hom_size(I, h) > 0}
    arrows = {(x, y) for x in range(n) for y in range(n) if hom_obj[x, y] in points}

    @functools.cache
    def arrow(h_yz, h_xy, h_xz):
        src = base.tensor_obj(h_yz, h_xy)
        return MorRef(src, h_xz, 0) if base.hom_size(src, h_xz) > 0 else None

    return reference_tabulate(
        base, thin_under_category(n, arrows),
        lambda x, y: hom_obj[x, y],
        lambda x: points.get(hom_obj[x, x]),
        lambda x, y, z: arrow(hom_obj[y, z], hom_obj[x, y], hom_obj[x, z]),
        lambda f: points.get(hom_obj[f.src, f.dst]),
        name=name,
    )


def enrichments_in(value) -> list[Enrichment]:
    """The enrichments a construction result holds: itself, a functor's
    domain and codomain, a transformation's functors' ones."""
    if isinstance(value, Enrichment):
        return [value]
    if isinstance(value, EnrichedFunctor):
        return [value.dom, value.cod]
    if isinstance(value, EnrichedTransformation):
        return [*enrichments_in(value.src), *enrichments_in(value.dst)]
    return []


# ---------------------------------------------------------------------------
# mutation wrapper
# ---------------------------------------------------------------------------

_TABLE_METHODS = {
    "hom_size": 2,
    "id_of": 1,
    "compose": 2,
    "tensor_obj": 2,
    "tensor_mor": 2,
    "lunitor": 1,
    "lunitor_inv": 1,
    "runitor": 1,
    "runitor_inv": 1,
    "associator": 3,
    "associator_inv": 3,
    "symmetry": 2,
    "hom_obj": 2,
    "ev": 2,
}


class Mutated:
    """View of a base with a single table entry replaced.

    Used by the mutation-testing suites; works uniformly for table-backed and
    computed bases. Deliberately not a MonBase subclass: delegation must reach
    the wrapped base for every attribute that is not intercepted.
    """

    # A mutated view certifies nothing, so it must not inherit a wrapped
    # thin base's certificate through __getattr__.
    thin = False

    def __init__(self, base, table: str, key: tuple, value):
        if table not in _TABLE_METHODS and table != "lam":
            raise ValueError(f"unknown table {table!r}")
        self._base = base
        self._table = table
        self._key = key
        self._value = value
        # a table that is not mutated is read from the base without a
        # delegating frame; the mutated one goes through its method below
        for name in (*_TABLE_METHODS, "lam"):
            if name != table:
                setattr(self, name, getattr(base, name))

    def __getattr__(self, name):
        return getattr(self._base, name)

    def compose_all(self, *ms):
        out = ms[0]
        for m in ms[1:]:
            out = self.compose(out, m)
        return out

    def mors(self):
        for x in self.objects():
            for y in self.objects():
                yield from self.hom(x, y)

    def unlam(self, x, y, z, g):
        require_mor_shape(self, g, x, self.hom_obj(y, z))
        return self.compose(self.tensor_mor(g, self.id_of(y)), self.ev(y, z))

    def _hit(self, table, args):
        return self._table == table and tuple(args) == self._key

    def objects(self):
        return self._base.objects()

    def hom_size(self, x, y):
        return self._value if self._hit("hom_size", (x, y)) else self._base.hom_size(x, y)

    def hom(self, x, y):
        return [MorRef(x, y, k) for k in range(self.hom_size(x, y))]

    def id_of(self, x):
        return self._value if self._hit("id_of", (x,)) else self._base.id_of(x)

    def compose(self, f, g):
        if self._hit("compose", (f, g)):
            return self._value
        if f.dst != g.src:
            raise StructuralError(f"non-composable pair {f} {g}")
        return self._base.compose(f, g)

    def tensor_obj(self, x, y):
        return self._value if self._hit("tensor_obj", (x, y)) else self._base.tensor_obj(x, y)

    def tensor_mor(self, f, g):
        return self._value if self._hit("tensor_mor", (f, g)) else self._base.tensor_mor(f, g)

    # the batched calls loop over the intercepted per-entry ones, so a
    # mutated entry reaches a scan whichever call reads it
    def compose_each(self, f, gs):
        return list(map(self.compose, itertools.repeat(f), gs))

    def each_compose(self, fs, g):
        return list(map(self.compose, fs, itertools.repeat(g)))

    def tensor_each(self, f, gs):
        return list(map(self.tensor_mor, itertools.repeat(f), gs))

    def each_tensor(self, fs, g):
        return list(map(self.tensor_mor, fs, itertools.repeat(g)))

    def lunitor(self, x):
        return self._value if self._hit("lunitor", (x,)) else self._base.lunitor(x)

    def lunitor_inv(self, x):
        return self._value if self._hit("lunitor_inv", (x,)) else self._base.lunitor_inv(x)

    def runitor(self, x):
        return self._value if self._hit("runitor", (x,)) else self._base.runitor(x)

    def runitor_inv(self, x):
        return self._value if self._hit("runitor_inv", (x,)) else self._base.runitor_inv(x)

    def associator(self, x, y, z):
        return self._value if self._hit("associator", (x, y, z)) else self._base.associator(x, y, z)

    def associator_inv(self, x, y, z):
        return self._value if self._hit("associator_inv", (x, y, z)) else self._base.associator_inv(x, y, z)

    @property
    def symmetric(self):
        return self._base.symmetric

    def symmetry(self, x, y):
        return self._value if self._hit("symmetry", (x, y)) else self._base.symmetry(x, y)

    @property
    def closed(self):
        return self._base.closed

    def hom_obj(self, y, z):
        return self._value if self._hit("hom_obj", (y, z)) else self._base.hom_obj(y, z)

    def ev(self, y, z):
        return self._value if self._hit("ev", (y, z)) else self._base.ev(y, z)

    def lam(self, x, y, z, f):
        if self._table == "lam" and (x, y, z, f) == self._key:
            return self._value
        return self._base.lam(x, y, z, f)


MUTATION_TABLES = (
    "hom_size", "compose", "tensor_obj", "tensor_mor",
    "lunitor", "runitor", "associator", "symmetry", "hom_obj", "ev",
)


def random_mutation(rng, V):
    """A random single-entry mutation of a law-relevant window table.

    Rolls that cannot produce a different in-window value (or that would need
    an oversized halo enumeration just to read the current entry) are
    re-rolled.
    """
    objs = list(V.objects())
    mors = [m for m in V.mors()]
    for _ in range(500):
        table = rng.choice(MUTATION_TABLES)
        try:
            mut = _mutation_for(rng, V, table, objs, mors)
        except WindowExceeded:
            continue
        if mut is not None:
            return mut
    raise AssertionError("could not build a mutation")


def _mutation_for(rng, V, table, objs, mors):
    if table == "hom_size":
        x, y = rng.choice(objs), rng.choice(objs)
        n = V.hom_size(x, y)
        return Mutated(V, table, (x, y), n + 1 if n == 0 or rng.random() < 0.5 else n - 1)
    if table == "compose":
        f = rng.choice(mors)
        gs = [g for g in mors if g.src == f.dst]
        if not gs:
            return None
        g = rng.choice(gs)
        wrong = _wrong_mor(rng, V, mors, V.compose(f, g))
        return Mutated(V, table, (f, g), wrong) if wrong else None
    if table == "tensor_obj":
        x, y = rng.choice(objs), rng.choice(objs)
        right = V.tensor_obj(x, y)
        others = [o for o in objs if o != right]
        return Mutated(V, table, (x, y), rng.choice(others)) if others else None
    if table == "tensor_mor":
        f, g = rng.choice(mors), rng.choice(mors)
        wrong = _wrong_mor(rng, V, mors, V.tensor_mor(f, g))
        return Mutated(V, table, (f, g), wrong) if wrong else None
    if table in ("lunitor", "runitor"):
        x = rng.choice(objs)
        wrong = _wrong_mor(rng, V, mors, getattr(V, table)(x))
        return Mutated(V, table, (x,), wrong) if wrong else None
    if table == "associator":
        x, y, z = rng.choice(objs), rng.choice(objs), rng.choice(objs)
        wrong = _wrong_mor(rng, V, mors, V.associator(x, y, z))
        return Mutated(V, table, (x, y, z), wrong) if wrong else None
    if table == "symmetry" and V.symmetric:
        x, y = rng.choice(objs), rng.choice(objs)
        wrong = _wrong_mor(rng, V, mors, V.symmetry(x, y))
        return Mutated(V, table, (x, y), wrong) if wrong else None
    if table == "hom_obj" and V.closed:
        y, z = rng.choice(objs), rng.choice(objs)
        right = V.hom_obj(y, z)
        others = [o for o in objs if o != right]
        return Mutated(V, table, (y, z), rng.choice(others)) if others else None
    if table == "ev" and V.closed:
        y, z = rng.choice(objs), rng.choice(objs)
        wrong = _wrong_mor(rng, V, mors, V.ev(y, z))
        return Mutated(V, table, (y, z), wrong) if wrong else None
    return None


def _wrong_mor(rng, V, mors, right):
    n = V.hom_size(right.src, right.dst)
    if n >= 2:
        k = rng.randrange(n - 1)
        if k >= right.k:
            k += 1
        return MorRef(right.src, right.dst, k)
    others = [m for m in mors if m != right]
    return rng.choice(others) if others else None


# ---------------------------------------------------------------------------
# the reference row-at-a-time readers and text writer
# ---------------------------------------------------------------------------

# each shape's value from the integers of one row, as the readers built it
# before they decoded a table at a time
_REFERENCE_BUILD = {
    dsl.INT: lambda a: a[0],
    dsl.PAIR: tuple,
    dsl.TRIPLE: tuple,
    dsl.MOR: lambda a: MorRef(*a),
    dsl.MOR_PAIR: lambda a: (MorRef(*a[:3]), MorRef(*a[3:])),
    dsl.LAM: lambda a: (*a[:3], MorRef(*a[3:])),
}


def _reference_value(shape, v):
    """The value of a shape's JSON form ``v``; ValueError if ``v`` is not
    nested like ``shape.nesting`` in non-negative integers."""
    parts = None if type(shape.nesting) is not list else [
        len(n) if type(n) is list else None for n in shape.nesting]
    if parts is None:
        ints = [v]
    elif type(v) is not list or len(v) != len(parts):
        raise ValueError(v)
    else:
        ints = []
        for part, x in zip(parts, v):
            if part is None:
                ints.append(x)
            elif type(x) is list and len(x) == part:
                ints += x
            else:
                raise ValueError(x)
    if any(type(i) is not int for i in ints) or min(ints) < 0:
        raise ValueError(v)
    return _REFERENCE_BUILD[shape](ints)


def _reference_put_row(d, res, keyword: str, key, value, location) -> None:
    table = d.values.setdefault(keyword, {})
    if key in table:
        res.error(d.where(keyword, location), f"repeated {keyword!r} entry at {key}")
    else:
        table[key] = value
        d.rows.setdefault(keyword, {})[key] = location


def _reference_strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def reference_parse(text: str):
    """``dsl.parse`` reading one body line at a time, each matched alone by
    its entry's pattern and its integers read by ``int``: the Document and
    the diagnostics that ``dsl.parse`` must reproduce."""
    res = dsl._Resolver()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = _reference_strip(raw)
        i += 1
        if not line:
            continue
        span = dsl._span(i, raw, None)
        m = dsl._BUILTIN_HEADER.match(line)
        if m:
            params = [(k, int(v)) for k, v in re.findall(r"(\w+)\s*=\s*([0-9]+)", m.group(3))]
            res.builtin(m.group(1), m.group(2), params, span)
            continue
        for kind, schema in _SCHEMA.items():
            m = schema.header_re.match(line)
            if m:
                break
        else:
            res.error(span, f"unrecognized declaration: {line!r}",
                      "expected base/enrichment/functor/transformation/monad/cocone")
            continue
        body = []
        while i < len(lines):
            line = _reference_strip(lines[i])
            i += 1
            if line == "}":
                break
            if line:
                body.append((i, line))
        else:
            res.error(span, "unterminated block (missing '}')")
            continue
        d = dsl._Decl(kind, m.group(1), span, dict(zip(schema.header_refs, m.groups()[1:])),
                      lambda keyword, line_no: dsl._span(line_no, lines[line_no - 1], None))
        for line_no, line in body:
            keyword = line.split()[0]
            entry = schema.by_keyword.get(keyword)
            if entry is None:
                res.error(d.where(keyword, line_no), f"unexpected entry {keyword!r} in this block")
                continue
            m = entry.pattern.match(line)
            if not m:
                res.error(d.where(keyword, line_no), f"malformed {keyword!r} entry: {line!r}")
            elif entry.key is not None:
                ints = [*map(int, m.groups())]
                size = entry.key.size
                key, value = _REFERENCE_BUILD[entry.key](ints[:size]), _REFERENCE_BUILD[entry.value](ints[size:])
                _reference_put_row(d, res, keyword, key, value, line_no)
            elif keyword in d.refs or keyword in d.values:
                res.error(d.where(keyword, line_no), f"repeated {keyword!r} entry")
            elif entry.value is NAME:
                d.refs[keyword] = m.group(1)
            else:
                d.values[keyword] = int(m.group(1))
        res.resolve(d)
    return res.result()


def reference_from_json(text: str):
    """``dsl.from_json`` reading each table one row at a time: the Document
    and the diagnostics that ``dsl.from_json`` must reproduce."""
    res = dsl._Resolver()
    try:
        payload = json.loads(text, object_pairs_hook=dsl._JsonObject)
    except json.JSONDecodeError as exc:
        col = max(exc.colno, 1)
        res.error(dsl.Span(exc.lineno, col, col + 1), f"invalid JSON: {exc}")
        return res.result()
    items = payload.get("items") if isinstance(payload, dict) else None
    if not isinstance(items, list):
        res.error(dsl.Span(pointer="items"), "machine format needs an items list")
        return res.result()
    for key in payload.repeated:
        res.error(dsl.Span(pointer=key), f"repeated {key!r} entry")
    for i, entry in enumerate(items):
        d = _reference_json_decl(entry, f"items[{i}]", res)
        if d is not None:
            res.resolve(d)
    return res.result()


def _reference_json_decl(entry, at: str, res):
    def fail(where: str, message: str) -> None:
        res.error(dsl.Span(pointer=where), message)

    if not isinstance(entry, dict):
        return fail(at, "an item must be a JSON object")
    for key in entry.repeated:
        fail(f"{at}.{key}", f"repeated {key!r} entry")
    kind, name = entry.get("kind"), entry.get("name")
    if kind not in _SCHEMA:
        return fail(f"{at}.kind", f"unknown item kind {kind!r}")
    if not dsl._is_name(name):
        return fail(f"{at}.name", f"invalid name {name!r}")
    span = dsl.Span(pointer=at)
    if kind == "base" and "builtin" in entry:
        params = entry.get("params", [])
        if not (dsl._is_name(entry["builtin"]) and isinstance(params, list)
                and all(isinstance(p, list) and len(p) == 2 and dsl._is_name(p[0])
                        and type(p[1]) is int and p[1] >= 0 for p in params)):
            return fail(at, "a builtin base needs a builtin name and [name, integer] params")
        res.builtin(name, entry["builtin"], params, span)
        return None
    schema = _SCHEMA[kind]
    refs = {}
    for ref in schema.refs:
        if not dsl._is_name(entry.get(ref)):
            return fail(f"{at}.{ref}", f"a {kind} needs a {ref!r} reference")
        refs[ref] = entry[ref]
    tables = entry.get("tables")
    if not isinstance(tables, dict):
        return fail(f"{at}.tables", f"a {kind} needs a tables object")
    for keyword in tables.repeated:
        fail(f"{at}.tables.{keyword}", f"repeated {keyword!r} entry")
    d = dsl._Decl(kind, name, span, refs, lambda keyword, j: dsl.Span(pointer=f"{at}.tables.{keyword}[{j}]"))
    for keyword, rows in tables.items():
        where = f"{at}.tables.{keyword}"
        entry_schema = schema.by_keyword.get(keyword)
        if entry_schema is None or entry_schema.value is NAME:
            fail(where, f"unexpected entry {keyword!r} in this block")
        elif rows is None:
            continue
        elif entry_schema.key is None:
            if type(rows) is int and rows >= 0:
                d.values[keyword] = rows
            else:
                fail(where, f"malformed {keyword!r} entry: {json.dumps(rows)}")
        elif not isinstance(rows, list):
            fail(where, f"malformed {keyword!r} table: expected a list of [key, value] rows")
        else:
            for j, row in enumerate(rows):
                try:
                    k, v = row
                    key, value = _reference_value(entry_schema.key, k), _reference_value(entry_schema.value, v)
                except (TypeError, ValueError):
                    res.error(d.where(keyword, j), f"malformed {keyword!r} entry: {json.dumps(row)}")
                else:
                    _reference_put_row(d, res, keyword, key, value, j)
    return d


def _paths(nesting, prefix: str = "") -> list[str]:
    """Index paths of the integers in a nesting, in order: ``[3][0]`` etc."""
    if type(nesting) is list:
        return [p for i, n in enumerate(nesting) for p in _paths(n, f"{prefix}[{i}]")]
    return [prefix]


def _reference_row(entry) -> str:
    """A table entry's text row as a ``str.format`` template whose fields
    read the key (argument 0) and the value (argument 1): ``{0[1]}`` etc."""
    fields = [f"{{0{p}}}" for p in _paths(entry.key.nesting)] + [f"{{1{p}}}" for p in _paths(entry.value.nesting)]
    return f"  {entry.keyword} {entry.key.template} = {entry.value.template}".replace("%s", "{}").format(*fields)


def reference_serialize(doc) -> str:
    """``dsl.serialize`` filling one row at a time into ``str.format``
    templates, rows sorted by ``(key, value)``: the bytes that
    ``dsl.serialize`` must reproduce."""
    out = []
    for item in doc.items:
        refs = item.refs
        if "builtin" in refs:
            params = "".join(f", {k}={v}" for k, v in refs["params"])
            out.append(f"base {item.name} = builtin({refs['builtin']}{params})\n")
            continue
        lines = [_SCHEMA[item.kind].header.format(name=item.name, **refs) + " {"]
        for entry in _SCHEMA[item.kind].entries:
            if entry.value is NAME:
                lines.append(f"  {entry.keyword} {refs[entry.keyword]}")
            elif entry.key is None:
                lines.append(f"  {entry.keyword} {entry.get(item.value)}")
            else:
                table = sorted((entry.get(item.value) or {}).items())
                lines.extend(itertools.starmap(_reference_row(entry).format, table))
        lines.append("}")
        out.append("\n".join(lines) + "\n")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# the reference machine writer
# ---------------------------------------------------------------------------

def _encode(x):
    """JSON form of a table key or value: morphisms and tuples become lists."""
    if isinstance(x, MorRef):
        return [x.src, x.dst, x.k]
    if isinstance(x, tuple):
        return [_encode(e) for e in x]
    return x


def reference_to_json(doc) -> str:
    """The machine export of ``doc`` built as one dict, rows sorted by the
    ``repr`` of their keys, and written by ``json.dumps(indent=2,
    sort_keys=True)``: the bytes that ``dsl.to_json`` must reproduce."""
    items = []
    for item in doc.items:
        entry: dict = {"kind": item.kind, "name": item.name}
        entry.update({k: list(v) if isinstance(v, tuple) else v for k, v in item.refs.items()})
        if "builtin" not in item.refs:
            tables = entry["tables"] = {}
            for e in _SCHEMA[item.kind].entries:
                if e.value is not NAME:
                    v = e.get(item.value)
                    tables[e.keyword] = v if e.key is None or v is None else [
                        [_encode(k), _encode(x)] for k, x in sorted(v.items(), key=lambda kv: repr(kv[0]))]
        items.append(entry)
    return json.dumps({"items": items}, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the reference Rezk unit, extension, adjoint equivalence and transport
# ---------------------------------------------------------------------------

def identity_glue(F: EnrichedFunctor) -> EnrichedTransformation:
    """The identity-component 2-cell F.id => id.F, the glue of F's identity
    square."""
    return EnrichedTransformation(
        compose_functors(F, id_functor(F.cod)),
        compose_functors(id_functor(F.dom), F),
        {x: F.cod.under.id_of(F.ob(x)) for x in F.dom.objects()},
        name="identity-glue",
    )


def reference_rezk_unit(E: Enrichment) -> tuple[Enrichment, EnrichedFunctor]:
    """The skeleton of E and the Rezk unit by their own rules: each object
    goes to the least isomorphic object r along the first iso r -> x, and a
    morphism and a hom object are conjugated by those isos directly. The
    tables that ``rezk.rezk_completion`` must reproduce."""
    cat = E.under
    rep = {}
    iso_to = {}
    for x in E.objects():
        rep[x], iso_to[x] = next((r, isos[0]) for r in range(x + 1) if (isos := iso_arrows(cat, r, x)))
    completion, inclusion = full_sub_enrichment(E, lambda x: rep[x] == x)
    new_of = {old: new for new, old in inclusion.ob_map.items()}
    V = E.base

    def mor(f):
        m = cat.compose(cat.compose(iso_to[f.src], f), find_inverse(cat, iso_to[f.dst]))
        return MorRef(new_of[rep[f.src]], new_of[rep[f.dst]], m.k)

    def e_fun(x, y):
        m = postcompose_mor(E, y, iso_to[x])
        return V.compose(m, precompose_mor(E, rep[x], find_inverse(cat, iso_to[y])))

    unit = EnrichedFunctor.tabulate(E, completion, lambda x: new_of[rep[x]], mor, e_fun, name="rezk-unit")
    return completion, unit


def reference_extend_functor(
    F: EnrichedFunctor, G: EnrichedFunctor
) -> tuple[EnrichedFunctor, EnrichedTransformation]:
    """The extension of G along a weak equivalence F by its own rules: a
    family phi of isos G w -> H x for every witness (w, i: F w ~ x), checked
    coherent, and the hom component checked equal through every pair of
    witnesses. The tables that ``rezk.extend_functor`` must reproduce."""
    ffw = is_fully_faithful(F)
    eso = is_essentially_surjective(F)
    if not ffw.ok or not eso.ok:
        raise CapabilityError("extension needs a weak equivalence")
    E1, E2, E3 = F.dom, F.cod, G.cod
    V = E1.base
    cat1, cat2, cat3 = E1.under, E2.under, E3.under

    def f_inv(g: MorRef, w1: int, w2: int) -> MorRef:
        return underlying_hom_inverse(F, ffw, g, w1, w2)

    chosen = eso.preimage

    def phi(x: int, w: int, i: MorRef) -> MorRef:
        w0, i0 = chosen[x]
        return G.mor(f_inv(cat2.compose(i, find_inverse(cat2, i0)), w, w0))

    for x in E2.objects():
        for w1, w2 in itertools.product(E1.objects(), repeat=2):
            for i1 in iso_arrows(cat2, F.ob(w1), x):
                for i2 in iso_arrows(cat2, F.ob(w2), x):
                    for k in cat1.hom(w1, w2):
                        if cat2.compose(F.mor(k), i2) != i1:
                            continue
                        if cat3.compose(G.mor(k), phi(x, w2, i2)) != phi(x, w1, i1):
                            raise StructuralError(f"phi family incoherent at {x}")

    def mor(h):
        (w1, i1), (w2, i2) = chosen[h.src], chosen[h.dst]
        return G.mor(f_inv(cat2.compose(cat2.compose(i1, h), find_inverse(cat2, i2)), w1, w2))

    def hom_component(x: int, y: int, w1: int, i1: MorRef, w2: int, i2: MorRef) -> MorRef:
        m = postcompose_mor(E2, y, i1)
        m = V.compose(m, precompose_mor(E2, F.ob(w1), find_inverse(cat2, i2)))
        m = V.compose(m, ffw.inverses[(w1, w2)])
        return V.compose(m, G.e_fun(w1, w2))

    H = EnrichedFunctor.tabulate(
        E2, E3,
        lambda x: G.ob(chosen[x][0]),
        mor,
        lambda x, y: hom_component(x, y, *chosen[x], *chosen[y]),
        name="extension",
    )

    for x, y in itertools.product(E2.objects(), repeat=2):
        for w1 in E1.objects():
            for i1 in iso_arrows(cat2, F.ob(w1), x):
                for w2 in E1.objects():
                    for i2 in iso_arrows(cat2, F.ob(w2), y):
                        m = hom_component(x, y, w1, i1, w2, i2)
                        m = V.compose(m, postcompose_mor(E3, G.ob(w2), find_inverse(cat3, phi(x, w1, i1))))
                        m = V.compose(m, precompose_mor(E3, H.ob(x), phi(y, w2, i2)))
                        if m != H.e_fun(x, y):
                            raise StructuralError(f"extension hom component at ({x},{y}) depends on the witnesses")

    comp = {w: find_inverse(cat3, phi(F.ob(w), w, cat2.id_of(F.ob(w)))) for w in E1.objects()}
    return H, EnrichedTransformation(compose_functors(F, H), G, comp, name="extension-cell")


def reference_adjoint_equivalence(F: EnrichedFunctor) -> AdjointEquivalence:
    """The adjoint equivalence of a weak equivalence F by lifting F's
    identity square, with the triangle identities checked on whiskered
    composites. The tables that
    ``factor.weak_equivalence_to_adjoint_equivalence`` must reproduce."""
    ffw = is_fully_faithful(F)
    eso = is_essentially_surjective(F)
    if not ffw.ok:
        raise CapabilityError(f"not fully faithful at {ffw.failing}")
    if not eso.ok:
        raise CapabilityError(f"not essentially surjective at {eso.missed}")
    E1, E2 = F.dom, F.cod
    sq = LiftSquare(F, F, id_functor(E1), id_functor(E2), identity_glue(F))
    L, upper, lower = orthogonal_lift(sq)
    unit = invertible_2cell(upper)
    if unit is None:
        raise StructuralError("unit candidate is not invertible")
    counit = lower
    col1 = Collector()
    t1 = vcompose(whisker_right(unit, F), whisker_left(F, counit))
    for x in E1.objects():
        expect = E2.under.id_of(F.ob(x))
        if t1.at(x) != expect:
            col1.add("triangle-fwd", (x,), t1.at(x), expect)
    col2 = Collector()
    t2 = vcompose(whisker_left(L, unit), whisker_right(counit, L))
    for y in E2.objects():
        expect = E1.under.id_of(L.ob(y))
        if t2.at(y) != expect:
            col2.add("triangle-bwd", (y,), t2.at(y), expect)
    return AdjointEquivalence(F, L, unit, counit, (col1.report(), col2.report()))


def reference_transport_transformation(
    F: EnrichedFunctor,
    G1: EnrichedFunctor,
    G2: EnrichedFunctor,
    tau: EnrichedTransformation,
) -> EnrichedTransformation:
    """The transport of tau: F.G1 => F.G2 along an eso F by scanning every
    candidate component against every iso witness, refusing when none or
    more than one fits. The components that ``rezk.transport_transformation``
    must reproduce."""
    eso = is_essentially_surjective(F)
    if not eso.ok:
        raise CapabilityError(f"transport needs an essentially surjective functor; missed {eso.missed}")
    cat2, cat3 = F.cod.under, G1.cod.under
    comp = {}
    for x in F.cod.objects():
        candidates = [
            cand for cand in cat3.hom(G1.ob(x), G2.ob(x))
            if all(
                cat3.compose(tau.at(w), G2.mor(i)) == cat3.compose(G1.mor(i), cand)
                for w in F.dom.objects()
                for i in iso_arrows(cat2, F.ob(w), x)
            )
        ]
        if not candidates:
            raise StructuralError(f"no transported component at {x}")
        if len(candidates) > 1:
            raise StructuralError(f"transport component at {x} is not unique: {len(candidates)} candidates")
        comp[x] = candidates[0]
    theta = EnrichedTransformation(G1, G2, comp, name="transported")
    check_nat_trans_enrichment(theta).require("transported transformation fails enrichment")
    if whisker_left(F, theta).component != tau.component:
        raise StructuralError("transported transformation does not whisker back to tau")
    return theta


def reference_lift_2cell(
    sq: LiftSquare,
    l1: EnrichedFunctor,
    l2: EnrichedFunctor,
    tau1: EnrichedTransformation,
    tau2: EnrichedTransformation,
) -> EnrichedTransformation:
    """The 2-cell zeta: l1 => l2 lifting tau1 through G, with its uniqueness
    verified by exhausting the candidate components that G sends to tau1.
    The components and refusals that ``factor.lift_2cell`` must reproduce."""
    F, G = sq.F, sq.G
    ff = is_fully_faithful(G)
    if not ff.ok:
        raise CapabilityError("lift_2cell needs a fully faithful right leg")
    comp = {}
    for y in l1.dom.objects():
        comp[y] = underlying_hom_inverse(G, ff, tau1.at(y), l1.ob(y), l2.ob(y))
    zeta = EnrichedTransformation(l1, l2, comp, name="lifted-2cell")
    got1 = whisker_right(zeta, G)
    if got1.component != tau1.component:
        raise StructuralError("lifted 2-cell does not whisker to tau1")
    got2 = whisker_left(F, zeta)
    if got2.component != tau2.component:
        raise StructuralError("incompatible 2-cell pair: F into zeta differs from tau2")
    # uniqueness: any other component table satisfying the whisker equations
    cod = l1.cod.under
    for y in l1.dom.objects():
        for cand in cod.hom(l1.ob(y), l2.ob(y)):
            if cand == comp[y]:
                continue
            if G.mor(cand) == tau1.at(y):
                raise StructuralError(f"2-cell component at {y} is not unique")
    return zeta


def reference_precomp_equivalence(
    F: EnrichedFunctor, E3: Enrichment, cap: int = 10_000
) -> CheckReport:
    """Precomposition with F as an equivalence of functor categories, with
    every transformation set enumerated where it is needed and F's
    certificates re-derived by each transport and extension. The report
    that ``rezk.check_precomp_equivalence`` must reproduce."""
    col = Collector()
    E1, E2 = F.dom, F.cod
    fun2 = enumerate_enriched_functors(E2, E3, cap=cap)
    fun1 = enumerate_enriched_functors(E1, E3, cap=cap)
    keys1 = {G.table_key(): i for i, G in enumerate(fun1)}

    def precomp(G: EnrichedFunctor) -> int:
        got = compose_functors(F, G)
        key = got.table_key()
        if key not in keys1:
            raise StructuralError("precomposition leaves the enumerated functor category")
        return keys1[key]

    images = [precomp(G) for G in fun2]

    # fully faithful: whiskering is a bijection on each transformation set
    for a, b in itertools.product(range(len(fun2)), repeat=2):
        src = enumerate_enriched_transformations(fun2[a], fun2[b], cap=cap)
        tgt = enumerate_enriched_transformations(fun1[images[a]], fun1[images[b]], cap=cap)
        whiskered = []
        for tau in src:
            w = whisker_left(F, tau)
            whiskered.append(tuple(sorted(w.component.items())))
        if len(set(whiskered)) != len(whiskered):
            col.add("precomp-faithful", (a, b), len(set(whiskered)), len(whiskered))
        if len(whiskered) != len(tgt):
            col.add("precomp-full", (a, b), len(whiskered), len(tgt))
        else:
            # cross-validate fullness via the transport construction
            for tau1 in tgt:
                glue = EnrichedTransformation(
                    compose_functors(F, fun2[a]), compose_functors(F, fun2[b]), tau1.component
                )
                theta = transport_transformation(F, fun2[a], fun2[b], glue)
                w = whisker_left(F, theta)
                if w.component != tau1.component:
                    col.add("precomp-transport-roundtrip", (a, b))

    # essentially surjective: every functor out of E1 is isomorphic to a precomposite
    for j, H in enumerate(fun1):
        hit = False
        for i, G in enumerate(fun2):
            if images[i] == j:
                hit = True
                break
            # isomorphism in the functor category suffices
            for tau in enumerate_enriched_transformations(fun1[images[i]], H, cap=cap):
                if invertible_2cell(tau) is not None:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            col.add("precomp-eso", (j,))
            continue
        ext, cell = extend_functor(F, H)
        ei = precomp(ext)
        iso_found = any(
            invertible_2cell(tau) is not None
            for tau in enumerate_enriched_transformations(fun1[ei], H, cap=cap)
        )
        if not iso_found:
            col.add("precomp-extension-isomorphic", (j,))
    return col.report()


def precomp_triples(boolb, cost3, rng: random.Random):
    """The (weak equivalence, target) pairs on which precomposition is
    checked to be an equivalence: the codiscrete Bool pair's Rezk unit into
    the 3-chain and four small preorders, a zero-distance cost(3) pair's
    unit into two cost spaces, then Rezk units of random Bool preorders into
    those preorders, drawn from ``rng``, until there are ten. Last come the
    two units into their own non-skeletal domains, the codiscrete pair and
    the zero-distance pair: there a functor out of E1 is isomorphic to a
    precomposite without being one, which only the iso branch of the check
    finds."""
    codisc = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (0, 1), (1, 0)}, 2)
    collapse = rezk_completion(codisc).unit_functor
    chain3 = bool_preorder_enrichment(boolb, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}, 3)
    yield collapse, chain3
    targets = [
        bool_preorder_enrichment(boolb, rel, max((x for p in rel for x in p), default=-1) + 1)
        for rel in [
            {(0, 0)},
            {(0, 0), (1, 1)},
            {(0, 0), (1, 1), (0, 1)},
            {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)},
        ]
    ]
    for E3 in targets:
        yield collapse, E3
    Ec = cost_space_enrichment(cost3, {(0, 0): 0, (1, 1): 0, (0, 1): 0, (1, 0): 0}, 2)
    Fc = rezk_completion(Ec).unit_functor
    for d3 in ({(0, 0): 0}, {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}):
        n3 = max(x for p in d3 for x in p) + 1
        yield Fc, cost_space_enrichment(cost3, d3, n3)
    for _ in range(10 - 1 - len(targets) - 2):
        n = rng.randint(1, 2)
        E = bool_preorder_enrichment(boolb, random_preorder(rng, n), n)
        yield rezk_completion(E).unit_functor, rng.choice(targets)
    yield collapse, codisc
    yield Fc, Ec


# ---------------------------------------------------------------------------
# the reference law scans: one instance at a time
# ---------------------------------------------------------------------------

# check_category, check_monoidal, check_symmetric and check_closed as they
# scanned before the base's batched calls: every instance is evaluated entry
# by entry, and each instance an evaluation outside the window skips counts
# once, under the label the batched scans use. The differential tests hold
# the batched scans to these reports.

@law_scan
def reference_check_category(col: Collector, C) -> None:
    """Exhaustive identity and associativity scan over the window, one
    composite at a time, with the composition tables held as index lists.

    Malformed tables (out-of-range indices, non-composable entries) raise
    StructuralError; law violations are reported. A base certified thin
    (``C.thin``) is not scanned.
    """
    if isinstance(C, FinCat):
        C.validate()
    elif C.thin:
        return
    objs, homs = _window_homs(C)

    # identity laws, plus shape validation of every identity component
    for x in objs:
        i = C.id_of(x)
        require_mor_shape(C, i, x, x)
    for (a, b), fs in homs.items():
        if fs is None:
            continue
        ida, idb = C.id_of(a), C.id_of(b)
        for f in fs:
            lhs = C.compose(ida, f)
            require_mor_shape(C, lhs, a, b)
            if lhs != f:
                col.add("identity-left", (f,), lhs, f)
            rhs = C.compose(f, idb)
            require_mor_shape(C, rhs, a, b)
            if rhs != f:
                col.add("identity-right", (f,), rhs, f)

    # memoized composition index tables: comp[(a,b,c)][i][j] = k index in hom(a,c)
    comp: dict = {}
    for a, b, c in itertools.product(objs, repeat=3):
        fs, gs = homs[(a, b)], homs[(b, c)]
        if fs is None or gs is None or not fs or not gs:
            continue
        rows = []
        for f in fs:
            row = []
            for g in gs:
                h = C.compose(f, g)
                require_mor_shape(C, h, a, c)
                row.append(h.k)
            rows.append(row)
        comp[(a, b, c)] = rows

    for a, b, c, d in itertools.product(objs, repeat=4):
        T1 = comp.get((a, b, c))
        U1 = comp.get((b, c, d))
        if T1 is None or U1 is None:
            continue
        T2 = comp.get((a, c, d))
        U2 = comp.get((a, b, d))
        if T2 is None or U2 is None:
            continue
        for i, T1_i in enumerate(T1):
            U2_i = U2[i]
            for j, t in enumerate(T1_i):
                lhs_row = T2[t]
                rhs_row = list(map(U2_i.__getitem__, U1[j]))
                if lhs_row != rhs_row:
                    for k, (l, r) in enumerate(zip(lhs_row, rhs_row)):
                        if l != r:
                            f = MorRef(a, b, i)
                            g = MorRef(b, c, j)
                            h = MorRef(c, d, k)
                            col.add(
                                "associativity",
                                (f, g, h),
                                MorRef(a, d, l),
                                MorRef(a, d, r),
                            )


@law_scan
def reference_check_monoidal(col: Collector, V: MonBase) -> None:
    """Bifunctoriality of the tensor, unitor/associator invertibility and
    naturality, triangle and pentagon, over every window instance.

    Bifunctoriality is checked through its generating family (identity
    preservation, both whisker decompositions, slotwise functoriality), which
    is equivalent to full interchange and quadratically cheaper. A base
    certified thin (``V.thin``) is not scanned: each diagram compares two
    parallel, well-shaped morphisms in a hom with at most one element.
    """
    if V.thin:
        return
    objs, homs = _window_homs(V)
    I = V.unit

    def windowed(ab):
        fs = homs.get(ab)
        return fs if fs is not None else []

    # tensor-with-identity whiskers recur in every law family; memoize them
    _tr: dict = {}
    _tl: dict = {}

    def t_right(f, y):
        m = _tr.get((f, y))
        if m is None:
            m = _tr[(f, y)] = V.tensor_mor(f, V.id_of(y))
        return m

    def t_left(y, f):
        m = _tl.get((y, f))
        if m is None:
            m = _tl[(y, f)] = V.tensor_mor(V.id_of(y), f)
        return m

    # tensor preserves identities
    for x, y in itertools.product(objs, repeat=2):
        try:
            xy = V.tensor_obj(x, y)
            t = V.tensor_mor(V.id_of(x), V.id_of(y))
            require_mor_shape(V, t, xy, xy)
            if t != V.id_of(xy):
                col.add("tensor-id", (x, y), t, V.id_of(xy))
        except WindowExceeded:
            col.skip("tensor-id")

    # whisker decompositions over all window pairs
    for a, b in itertools.product(objs, repeat=2):
        for f in windowed((a, b)):
            for c, d in itertools.product(objs, repeat=2):
                for g in windowed((c, d)):
                    try:
                        fg = V.tensor_mor(f, g)
                        require_mor_shape(V, fg, V.tensor_obj(a, c), V.tensor_obj(b, d))
                        left = V.compose(t_right(f, c), t_left(b, g))
                        if fg != left:
                            col.add("tensor-left-decomp", (f, g), fg, left)
                        right = V.compose(t_left(a, g), t_right(f, d))
                        if fg != right:
                            col.add("tensor-right-decomp", (f, g), fg, right)
                    except WindowExceeded:
                        col.skip("tensor-decomp")

    # slotwise functoriality over composable pairs and window objects
    for a, b, c in itertools.product(objs, repeat=3):
        for f in windowed((a, b)):
            for f2 in windowed((b, c)):
                ff2 = V.compose(f, f2)
                for y in objs:
                    try:
                        lhs = t_right(ff2, y)
                        rhs = V.compose(t_right(f, y), t_right(f2, y))
                        if lhs != rhs:
                            col.add("tensor-left-funct", (f, f2, y), lhs, rhs)
                        lhs = t_left(y, ff2)
                        rhs = V.compose(t_left(y, f), t_left(y, f2))
                        if lhs != rhs:
                            col.add("tensor-right-funct", (f, f2, y), lhs, rhs)
                    except WindowExceeded:
                        col.skip("tensor-funct")

    # unitor and associator invertibility
    for x in objs:
        try:
            _check_iso_pair(V, col, "lunitor-iso", (x,), V.lunitor(x), V.lunitor_inv(x), V.tensor_obj(I, x), x)
            _check_iso_pair(V, col, "runitor-iso", (x,), V.runitor(x), V.runitor_inv(x), V.tensor_obj(x, I), x)
        except WindowExceeded:
            col.skip("unitor-iso")
    for x, y, z in itertools.product(objs, repeat=3):
        try:
            _check_iso_pair(
                V, col, "associator-iso", (x, y, z),
                V.associator(x, y, z), V.associator_inv(x, y, z),
                V.tensor_obj(V.tensor_obj(x, y), z), V.tensor_obj(x, V.tensor_obj(y, z)),
            )
        except WindowExceeded:
            col.skip("associator-iso")

    # unitor naturality
    for (a, b), fs in homs.items():
        if fs is None:
            continue
        for f in fs:
            try:
                lhs = V.compose(t_left(I, f), V.lunitor(b))
                rhs = V.compose(V.lunitor(a), f)
                if lhs != rhs:
                    col.add("lunitor-natural", (f,), lhs, rhs)
                lhs = V.compose(t_right(f, I), V.runitor(b))
                rhs = V.compose(V.runitor(a), f)
                if lhs != rhs:
                    col.add("runitor-natural", (f,), lhs, rhs)
            except WindowExceeded:
                col.skip("unitor-natural")

    # associator naturality, one slot at a time
    for (a, b), fs in homs.items():
        if fs is None:
            continue
        for f in fs:
            for y, z in itertools.product(objs, repeat=2):
                try:
                    yz = V.tensor_obj(y, z)
                    lhs = V.compose(t_right(t_right(f, y), z), V.associator(b, y, z))
                    rhs = V.compose(V.associator(a, y, z), t_right(f, yz))
                    if lhs != rhs:
                        col.add("associator-natural-1", (f, y, z), lhs, rhs)
                    lhs = V.compose(t_right(t_left(y, f), z), V.associator(y, b, z))
                    rhs = V.compose(V.associator(y, a, z), t_left(y, t_right(f, z)))
                    if lhs != rhs:
                        col.add("associator-natural-2", (y, f, z), lhs, rhs)
                    lhs = V.compose(t_left(yz, f), V.associator(y, z, b))
                    rhs = V.compose(V.associator(y, z, a), t_left(y, t_left(z, f)))
                    if lhs != rhs:
                        col.add("associator-natural-3", (y, z, f), lhs, rhs)
                except WindowExceeded:
                    col.skip("associator-natural")

    # triangle
    for x, y in itertools.product(objs, repeat=2):
        try:
            lhs = V.compose(V.associator(x, I, y), V.tensor_mor(V.id_of(x), V.lunitor(y)))
            rhs = V.tensor_mor(V.runitor(x), V.id_of(y))
            if lhs != rhs:
                col.add("triangle", (x, y), lhs, rhs)
        except WindowExceeded:
            col.skip("triangle")

    # pentagon
    for w, x, y, z in itertools.product(objs, repeat=4):
        try:
            lhs = V.compose_all(
                V.tensor_mor(V.associator(w, x, y), V.id_of(z)),
                V.associator(w, V.tensor_obj(x, y), z),
                V.tensor_mor(V.id_of(w), V.associator(x, y, z)),
            )
            rhs = V.compose(
                V.associator(V.tensor_obj(w, x), y, z),
                V.associator(w, x, V.tensor_obj(y, z)),
            )
            if lhs != rhs:
                col.add("pentagon", (w, x, y, z), lhs, rhs)
        except WindowExceeded:
            col.skip("pentagon")



@law_scan
def reference_check_symmetric(col: Collector, V: MonBase) -> None:
    """Symmetry involution, naturality, and the hexagon, over the window. A
    base certified thin (``V.thin``) is not scanned, as in check_monoidal."""
    if not V.symmetric:
        raise CapabilityError("base has no symmetry")
    if V.thin:
        return
    objs, homs = _window_homs(V)

    _sym: dict = {}

    def sym(x, y):
        s = _sym.get((x, y))
        if s is None:
            s = _sym[(x, y)] = V.symmetry(x, y)
        return s

    for x, y in itertools.product(objs, repeat=2):
        try:
            s = sym(x, y)
            s_back = sym(y, x)
            require_mor_shape(V, s, V.tensor_obj(x, y), V.tensor_obj(y, x))
            roundtrip = V.compose(s, s_back)
            if roundtrip != V.id_of(V.tensor_obj(x, y)):
                col.add("symmetry-inverse", (x, y), roundtrip, V.id_of(V.tensor_obj(x, y)))
        except WindowExceeded:
            col.skip("symmetry-inverse")

    for (a, b), fs in homs.items():
        if fs is None:
            continue
        for f in fs:
            for (c, d), gs in homs.items():
                if gs is None:
                    continue
                for g in gs:
                    try:
                        lhs = V.compose(V.tensor_mor(f, g), sym(b, d))
                        rhs = V.compose(sym(a, c), V.tensor_mor(g, f))
                        if lhs != rhs:
                            col.add("symmetry-natural", (f, g), lhs, rhs)
                    except WindowExceeded:
                        col.skip("symmetry-natural")

    for x, y, z in itertools.product(objs, repeat=3):
        try:
            lhs = V.compose_all(
                V.associator(x, y, z),
                V.symmetry(x, V.tensor_obj(y, z)),
                V.associator(y, z, x),
            )
            rhs = V.compose_all(
                V.tensor_mor(V.symmetry(x, y), V.id_of(z)),
                V.associator(y, x, z),
                V.tensor_mor(V.id_of(y), V.symmetry(x, z)),
            )
            if lhs != rhs:
                col.add("hexagon", (x, y, z), lhs, rhs)
        except WindowExceeded:
            col.skip("hexagon")


def identity_sided(V, failure) -> bool:
    """Whether a ``symmetry-natural`` failure lies at a pair (f, g) one of
    whose sides is an identity of V, the pairs ``check_symmetric`` checks
    naturality at; a failure of any other law always is."""
    return failure.law != "symmetry-natural" or any(m == V.id_of(m.src) for m in failure.instance)


@law_scan
def reference_check_closed(col: Collector, V: MonBase) -> None:
    """lam bijectivity (both round trips) and naturality in the abstraction
    variable, at every window instance whose hom enumeration fits the cap.

    A base certified thin (``V.thin``) is not scanned. Its homs have at most
    one morphism, and ``FinMonCat._require_well_shaped`` makes hom(x (x) y, z)
    and hom(x, [y,z]) both empty or both one-element: lam of any f: x (x) y
    -> z has shape x -> [y,z], and for any g: x -> [y,z] the composite of
    ``tensor_mor(g, id_y)`` and ``ev(y, z)`` is a map x (x) y -> z. So the
    sizes agree, and every round trip and naturality square lies in a hom
    with at most one morphism.
    """
    if not V.closed:
        raise CapabilityError("base has no closed structure")
    if V.thin:
        return
    objs, _ = _window_homs(V)
    # lam of one argument recurs across the round trips and the naturality
    # instances; memoize it, through V.lam so that a mutated view is read
    _lam: dict = {}

    def lam(x, y, z, f):
        m = _lam.get((x, y, z, f))
        if m is None:
            m = _lam[(x, y, z, f)] = V.lam(x, y, z, f)
        return m

    for x, y, z in itertools.product(objs, repeat=3):
        try:
            xy = V.tensor_obj(x, y)
            h = V.hom_obj(y, z)
            e = V.ev(y, z)
            require_mor_shape(V, e, V.tensor_obj(h, y), z)
            n_src = V.hom_size(xy, z)
            n_dst = V.hom_size(x, h)
            if n_src != n_dst:
                col.add("lam-bijective", (x, y, z), n_src, n_dst)
                continue
            if n_src > DEFAULT_HOM_CAP:
                continue  # deterministically skipped: enumeration beyond the cap
            # the beta round trips unlam every lam(f), which for a bijective
            # lam are the g the eta round trips unlam again: memoize unlam
            # within the instance, through V.unlam so a mutated view is read
            _unlam: dict = {}

            def unlam(g):
                m = _unlam.get(g)
                if m is None:
                    m = _unlam[g] = V.unlam(x, y, z, g)
                return m

            for k in range(n_src):
                f = MorRef(xy, z, k)
                lf = lam(x, y, z, f)
                require_mor_shape(V, lf, x, h)
                back = unlam(lf)
                if back != f:
                    col.add("lam-beta", (x, y, z, f), back, f)
            for k in range(n_dst):
                g = MorRef(x, h, k)
                forth = lam(x, y, z, unlam(g))
                if forth != g:
                    col.add("lam-eta", (x, y, z, g), forth, g)
        except WindowExceeded:
            col.skip("lam-bijection")

    # naturality of the bijection in the abstraction variable; the instance
    # space is the product of two homs, so the cap bounds the product. The
    # whiskers h (x) id_y do not depend on z: build them once per (x, x2, y),
    # at the first z within the cap
    for x, x2, y in itertools.product(objs, repeat=3):
        whiskers = None
        for z in objs:
            try:
                n_h = V.hom_size(x2, x)
                xy = V.tensor_obj(x, y)
                n_f = V.hom_size(xy, z)
                if n_h * n_f > DEFAULT_HOM_CAP:
                    continue
                if whiskers is None:
                    whiskers = [
                        V.tensor_mor(MorRef(x2, x, hk), V.id_of(y)) for hk in range(n_h)
                    ]
                for fk in range(n_f):
                    f = MorRef(xy, z, fk)
                    lam_f = lam(x, y, z, f)
                    for hk in range(n_h):
                        h = MorRef(x2, x, hk)
                        lhs = lam(x2, y, z, V.compose(whiskers[hk], f))
                        rhs = V.compose(h, lam_f)
                        if lhs != rhs:
                            col.add("lam-natural", (h, f), lhs, rhs)
            except WindowExceeded:
                col.skip("lam-natural")
