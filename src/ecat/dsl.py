"""Text and JSON formats for bases, enrichments, functors, transformations,
monads and cocones, with source-located diagnostics and canonical writers.

The text format is line-oriented; ``#`` starts a comment. Morphisms are
written as ``(src,dst,k)`` triples everywhere, objects as bare indices.
Declarations are named and may reference earlier declarations only. ``to_arr``
tables are never written: they are derived from ``fromarr`` by inversion at
parse time, and a non-bijective ``fromarr`` is a resolve-time diagnostic.

The JSON format carries the same tables as ``[key, value]`` rows. One schema
(``_SCHEMA``) lists each kind's entries; the text line patterns, the text
serializer and both JSON directions are generated from it, and both readers
hand the same tables to one resolver. Both directions work a table at a
time on its integer columns (``_Shape.columns`` and ``_columns_of``). The
text reader matches each run of consecutive rows with one keyword by one
``findall``; the JSON reader checks a table's nesting at once. A run or
table that is malformed or repeats a key stores nothing and is read again a
row at a time, to name each bad row. Readers keep where each row was read
and build its ``Span`` only when a diagnostic names it. The writers fill
``%`` row templates that the schema generates once per entry; the JSON
writer sorts rows by their key's ``repr`` and uses ``json.dumps`` only for
item-level strings and scalars, so its bytes are those of
``json.dumps(indent=2, sort_keys=True)`` on the same data.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

from .core import Enrichment, EnrichedFunctor, EnrichedTransformation, compose_functors, id_functor
from .monad import EnrichedMonad, KleisliCocone
from .report import EcatError
from .vbase import ClosedData, FinCat, FinMonCat, MorRef, builtin_base, new_mor

BUILTIN_NAMES = ("bool", "cost", "finset", "finposet_struct", "finpointedposet_struct")


@dataclass(frozen=True)
class Span:
    """A line and column range in a text file, or a JSON path such as
    ``items[1].tables.eid[0]`` in a machine file; ``path`` names the file."""

    line: int = 0
    col: int = 0
    end_col: int = 0
    path: str | None = None
    pointer: str | None = None

    def __str__(self) -> str:
        where = self.pointer if self.pointer is not None else f"{self.line}:{self.col}"
        return f"{self.path}:{where}" if self.path else where


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: Span
    suggestion: str | None = None

    def describe(self) -> str:
        text = f"{self.span}: {self.severity}: {self.message}"
        if self.suggestion:
            text += f" (hint: {self.suggestion})"
        return text


@dataclass(eq=False)
class Item:
    kind: str
    name: str
    value: object
    refs: dict
    span: Span

    def structurally_equal(self, other: "Item") -> bool:
        """Same kind, name and references, and equal schema entries."""
        if (self.kind, self.name, self.refs) != (other.kind, other.name, other.refs):
            return False
        if "builtin" in self.refs:
            return True  # identity is the builtin name plus parameters
        return all(e.get(self.value) == e.get(other.value) for e in _SCHEMA[self.kind].entries if e.get)


@dataclass
class Document:
    items: list = field(default_factory=list)

    def get(self, name: str):
        for item in self.items:
            if item.name == name:
                return item
        return None

    def of_kind(self, kind: str) -> list:
        return [item for item in self.items if item.kind == kind]

    def structurally_equal(self, other: "Document") -> bool:
        if len(self.items) != len(other.items):
            return False
        return all(a.structurally_equal(b) for a, b in zip(self.items, other.items))


class ParseFailure(EcatError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(d.describe() for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# the table schema
# ---------------------------------------------------------------------------

def _nesting(x):
    """The list nesting of a value's JSON form, with its integers in place."""
    return [_nesting(e) for e in x] if isinstance(x, tuple) else x


def _layout(nesting, indent: str) -> str:
    """How ``json.dumps(indent=2)`` lays out a value nested like ``nesting``
    that starts at ``indent``, with a ``%s`` field at each integer."""
    if type(nesting) is not list:
        return "%s"
    inner = indent + "  "
    return "[\n" + ",\n".join(inner + _layout(n, inner) for n in nesting) + f"\n{indent}]"


def _none(values):
    return ()


def _same(values):
    return values


_flat = itertools.chain.from_iterable
_first, _second = operator.itemgetter(0), operator.itemgetter(1)
_INT_TYPE, _LIST_TYPE = {int}, {list}


def _columns_of(nesting: list, values, check: bool = False) -> list:
    """The integer columns of a table's ``values``, nested like ``nesting``,
    in the order their integers are written (none for no values). With
    ``check`` the values are JSON forms, and a ValueError is raised unless
    each is nested like ``nesting`` in non-negative integers (a ``bool`` is
    not one)."""
    if check and (set(map(type, values)) != _LIST_TYPE or set(map(len, values)) != {len(nesting)}):
        raise ValueError(values)
    columns = []
    for n, column in zip(nesting, zip(*values)):
        if type(n) is list:
            columns += _columns_of(n, column, check)
        elif check and (set(map(type, column)) != _INT_TYPE or min(column) < 0):
            raise ValueError(values)
        else:
            columns.append(column)
    return columns


class _Shape:
    """How a table key or value is written: a text pattern with one group per
    integer, a ``%s`` template of its text and one of its ``repr``.
    ``columns`` builds a table's values from their integer columns, which
    ``_columns_of`` takes apart again by the JSON form's ``nesting``.
    ``objects`` and ``morphisms`` map values of the shape to the objects and
    the morphisms they name."""

    def __init__(self, regex: str, template: str, columns: Callable, objects=_none, morphisms=_none):
        self.regex, self.template, self.columns = regex, template, columns
        self.objects, self.morphisms = objects, morphisms
        self.size = template.count("%s")  # one per group of the pattern
        sample = [*columns([[i] for i in range(self.size)])][0]
        self.nesting = _nesting(sample)
        self.repr = re.sub("[0-9]+", "%s", repr(sample))


_S = r"[^\S\n]"  # whitespace within one line of a joined run of lines
_N = r"([0-9]+)"
_T = r"\(([0-9]+),([0-9]+),([0-9]+)\)"
INT = _Shape(_N, "%s", _first, objects=_same)
NAME = _Shape(r"(\w+)", "%s", _first)
PAIR = _Shape(rf"\({_N},{_N}\)", "(%s,%s)", lambda c: zip(*c), objects=_flat)
TRIPLE = _Shape(_T, "(%s,%s,%s)", lambda c: zip(*c), objects=_flat)
MOR = _Shape(_T, "(%s,%s,%s)", lambda c: map(new_mor, zip(*c)), morphisms=_same)
MOR_PAIR = _Shape(_T + _T, "(%s,%s,%s)(%s,%s,%s)", lambda c: zip(map(new_mor, zip(*c[:3])), map(new_mor, zip(*c[3:]))),
                  morphisms=_flat)
LAM = _Shape(_T + _S + "*" + _T, "(%s,%s,%s) (%s,%s,%s)", lambda c: zip(*c[:3], map(new_mor, zip(*c[3:]))),
             objects=lambda vs: _flat(v[:3] for v in vs), morphisms=lambda vs: (v[3] for v in vs))

# an item table's rows sit at items[i].tables.<keyword>[j] of the JSON layout
_ROW_INDENT = " " * 10


class _Entry:
    """One body entry of a kind. Without a key shape it is a single value
    (``objects 3``; a NAME value is a reference such as ``endo T``);
    otherwise it is a table of ``keyword key = value`` rows. ``get`` reads the
    entry off a resolved value. ``pattern`` matches a row, alone or in a run
    of rows joined by newlines; ``row`` is its text form and ``json_row`` the
    layout of one JSON row, both filled by ``%`` with the row's integers."""

    def __init__(self, keyword: str, key: _Shape | None, value: _Shape, get: Callable | None = None):
        self.keyword, self.key, self.value, self.get = keyword, key, value, get
        if key is None:
            self.pattern = re.compile(rf"^{keyword}{_S}+{value.regex}$", re.M)
            self.row = f"  {keyword} {value.template}"
        else:
            # findall returns a tuple per row only for two or more groups
            assert key.size + value.size >= 2, keyword
            self.pattern = re.compile(rf"^{keyword}{_S}+{key.regex}{_S}*={_S}*{value.regex}$", re.M)
            self.row = f"  {keyword} {key.template} = {value.template}"
            # the JSON form of a row, and of a table's (key, value) items
            self.nesting = [key.nesting, value.nesting]
            self.json_row = _ROW_INDENT + _layout(self.nesting, _ROW_INDENT)

    def decode(self, columns: list) -> tuple[list, object]:
        """The keys and the values of a table from the integer columns of its
        rows: the key's columns, then the value's."""
        size = self.key.size
        return [*self.key.columns(columns[:size])], self.value.columns(columns[size:])


class _Kind:
    """A declaration kind: its header, with ``{name}`` and the header
    references as placeholders, and its body entries in canonical order."""

    def __init__(self, header: str, entries: list[_Entry]):
        self.header = header
        self.entries = entries
        self.tables = [e for e in entries if e.key is not None]
        # the entries of a JSON item's tables object, in its key order
        self.json_tables = sorted((e for e in entries if e.value is not NAME), key=lambda e: e.keyword)
        self.by_keyword = {e.keyword: e for e in entries}
        self.header_refs = re.findall(r"\{(\w+)\}", header)[1:]
        self.refs = self.header_refs + [e.keyword for e in entries if e.value is NAME]
        # whitespace is required between adjacent words and optional elsewhere
        regex, prev = "", None
        for token in header.split() + ["{"]:
            placeholder = token != "{" and token.startswith("{")
            word = placeholder or token[0].isalpha()
            if prev is not None:
                regex += r"\s+" if word and prev else r"\s*"
            regex += r"(\w+)" if placeholder else re.escape(token)
            prev = word
        self.header_re = re.compile(f"^{regex}$")


def _closed(attr: str) -> Callable:
    return lambda V: getattr(V.closed_data, attr) if V.closed_data else None


_SCHEMA = {
    "base": _Kind("base {name}", [
        _Entry("objects", None, INT, lambda V: V.cat.n_objects),
        _Entry("unit", None, INT, lambda V: V.unit),
        _Entry("hom", PAIR, INT, lambda V: V.cat.hom_size_t),
        _Entry("id", INT, MOR, lambda V: V.cat.identity_t),
        _Entry("then", MOR_PAIR, MOR, lambda V: V.cat.then_t),
        _Entry("tensorobj", PAIR, INT, lambda V: V.tensor_obj_t),
        _Entry("tensormor", MOR_PAIR, MOR, lambda V: V.tensor_mor_t),
        _Entry("lunitor", INT, MOR, lambda V: V.lunitor_t),
        _Entry("lunitorinv", INT, MOR, lambda V: V.lunitor_inv_t),
        _Entry("runitor", INT, MOR, lambda V: V.runitor_t),
        _Entry("runitorinv", INT, MOR, lambda V: V.runitor_inv_t),
        _Entry("assoc", TRIPLE, MOR, lambda V: V.associator_t),
        _Entry("associnv", TRIPLE, MOR, lambda V: V.associator_inv_t),
        _Entry("sym", PAIR, MOR, lambda V: V.symmetry_t),
        _Entry("homobj", PAIR, INT, _closed("hom_obj_t")),
        _Entry("eval", PAIR, MOR, _closed("eval_t")),
        _Entry("lam", LAM, MOR, _closed("lam_t")),
    ]),
    "enrichment": _Kind("enrichment {name} over {over}", [
        _Entry("objects", None, INT, lambda E: E.under.n_objects),
        _Entry("hom", PAIR, INT, lambda E: E.under.hom_size_t),
        _Entry("id", INT, MOR, lambda E: E.under.identity_t),
        _Entry("then", MOR_PAIR, MOR, lambda E: E.under.then_t),
        _Entry("homobj", PAIR, INT, lambda E: E.hom_obj_t),
        _Entry("eid", INT, MOR, lambda E: E.e_id_t),
        _Entry("ecomp", TRIPLE, MOR, lambda E: E.e_comp_t),
        _Entry("fromarr", MOR, MOR, lambda E: E.from_arr_t),
    ]),
    "functor": _Kind("functor {name} : {dom} -> {cod}", [
        _Entry("ob", INT, INT, lambda F: F.ob_map),
        _Entry("mor", MOR, MOR, lambda F: F.mor_map),
        _Entry("efun", PAIR, MOR, lambda F: F.e_fun_t),
    ]),
    "transformation": _Kind("transformation {name} : {src} => {dst}", [
        _Entry("at", INT, MOR, lambda t: t.component),
    ]),
    "monad": _Kind("monad {name} on {on}", [
        _Entry("endo", None, NAME),
        _Entry("unit", INT, MOR, lambda T: T.unit.component),
        _Entry("mult", INT, MOR, lambda T: T.mult.component),
    ]),
    "cocone": _Kind("cocone {name} for {for}", [
        _Entry("apex", None, NAME),
        _Entry("leg", None, NAME),
        _Entry("cell", INT, MOR, lambda q: q.cell.component),
    ]),
}

# the kind of declaration each reference names
_REF_KINDS = {"over": "base", "dom": "enrichment", "cod": "enrichment", "src": "functor", "dst": "functor",
              "on": "enrichment", "endo": "functor", "for": "monad", "apex": "enrichment", "leg": "functor"}
_BUILTIN_HEADER = re.compile(r"^base\s+(\w+)\s*=\s*builtin\(\s*(\w+)\s*((?:,\s*\w+\s*=\s*[0-9]+\s*)*)\)$")
_NAME_RE = re.compile(r"\w+")


# ---------------------------------------------------------------------------
# resolution: one path for both formats
# ---------------------------------------------------------------------------

@dataclass
class _Decl:
    """A declaration as read from either format, before resolution: its
    references, its single values and tables by keyword, and where each
    table row was read (``rows``, by keyword and key: a line number in text,
    an index into the JSON table). ``where(keyword, location)`` makes the
    Span of a row, only when a diagnostic names it."""

    kind: str
    name: str
    span: Span
    refs: dict
    where: Callable
    values: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)

    def table(self, keyword: str) -> dict:
        return self.values.get(keyword) or {}

    def span_of(self, keyword: str, key) -> Span:
        """The span of the ``keyword`` row at ``key``."""
        return self.where(keyword, self.rows[keyword][key])

    def put_rows(self, entry: "_Entry", columns: list, locations) -> bool:
        """Add the rows of a table from their integer columns, at once. Adds
        no row and returns False if a key repeats, among the rows or against
        the rows already added, so that they can be read one at a time."""
        keys, values = entry.decode(columns)
        rows = dict(zip(keys, values))
        table = self.values.setdefault(entry.keyword, {})
        if len(rows) < len(keys) or not table.keys().isdisjoint(rows):
            return False
        table.update(rows)
        self.rows.setdefault(entry.keyword, {}).update(zip(keys, locations))
        return True

    def put_row(self, res: "_Resolver", entry: "_Entry", columns: list, location) -> None:
        """Add one table row from its integer columns; a repeated key is a
        diagnostic at the repeat."""
        if not self.put_rows(entry, columns, (location,)):
            (key,), _ = entry.decode(columns)
            res.error(self.where(entry.keyword, location), f"repeated {entry.keyword!r} entry at {key}")


class _Resolver:
    """Validates declarations and builds their values in one namespace."""

    def __init__(self):
        self.diags: list[Diagnostic] = []
        self.items: list[Item] = []
        self.named: dict = {}

    def error(self, span: Span, message: str, suggestion: str | None = None):
        self.diags.append(Diagnostic("error", message, span, suggestion))

    def result(self) -> tuple[Document | None, list[Diagnostic]]:
        if self.diags:
            return None, self.diags
        return Document(self.items), []

    def _register(self, kind, name, value, refs, span):
        if name in self.named:
            self.error(span, f"duplicate name {name!r}")
            return
        item = Item(kind, name, value, refs, span)
        self.items.append(item)
        self.named[name] = item

    def _lookup(self, name, kind, span):
        item = self.named.get(name)
        if item is None:
            self.error(span, f"unknown reference {name!r}")
            return None
        if item.kind != kind:
            self.error(span, f"{name!r} is a {item.kind}, expected a {kind}")
            return None
        return item

    def builtin(self, name: str, builtin_name: str, params: list, span: Span):
        """Build a builtin base from its (name, integer) parameter pairs."""
        if builtin_name not in BUILTIN_NAMES:
            self.error(span, f"unknown builtin base {builtin_name!r}",
                       f"one of {', '.join(BUILTIN_NAMES)}")
            return
        repeated = [k for i, (k, _) in enumerate(params) if k in dict(params[:i])]
        for k in dict.fromkeys(repeated):
            self.error(span, f"repeated {k!r} parameter")
        if repeated:
            return
        params = dict(params)
        try:
            base = builtin_base(builtin_name, **params)
        except (ValueError, TypeError, EcatError) as exc:
            self.error(span, f"cannot construct builtin base: {exc}")
            return
        self._register("base", name, base, {"builtin": builtin_name, "params": tuple(sorted(params.items()))}, span)

    def resolve(self, d: _Decl):
        """Look up the references, then validate and build the value."""
        refs = {}
        for ref in _SCHEMA[d.kind].refs:
            if ref not in d.refs:
                self.error(d.span, f"{d.kind} {d.name!r} is missing its {ref!r} entry")
            else:
                refs[ref] = self._lookup(d.refs[ref], _REF_KINDS[ref], d.span)
        if len(refs) < len(_SCHEMA[d.kind].refs) or None in refs.values():
            return
        value = getattr(self, f"_resolve_{d.kind}")(d, *(item.value for item in refs.values()))
        if value is not None:
            self._register(d.kind, d.name, value, d.refs, d.span)

    def _check_rows(self, d: _Decl, keyword: str, ok: Callable, message: str) -> bool:
        """Report each row of a table whose value fails ``ok`` at the row;
        ``message`` is formatted with the key and the value. Callers combine
        checks with ``all([...])`` so that every table is reported."""
        bad = [(k, v) for k, v in d.table(keyword).items() if not ok(v)]
        for k, v in bad:
            self.error(d.span_of(keyword, k), message.format(k, v))
        return not bad

    def _check_keys(self, d: _Decl, keyword: str, keys) -> bool:
        """Report a table whose keys are not exactly ``keys``: once at the
        declaration, naming the first missing key, and at each extra row."""
        table, keys = d.table(keyword), list(keys)
        missing = next((k for k in keys if k not in table), None)
        if missing is not None:
            self.error(d.span, f"{d.kind} {d.name!r} has no {keyword!r} entry at {missing}")
        expected = set(keys)
        extra = [k for k in table if k not in expected]
        for k in extra:
            self.error(d.span_of(keyword, k), f"{keyword} entry at {k} is outside the domain")
        return missing is None and not extra

    def _check_in_range(self, d: _Decl, n: int, keywords) -> bool:
        """Report each row of the named tables that references an object
        outside 0..n-1 or a morphism outside its hom, by the table's own
        ``hom`` sizes; hom values are sizes, not objects, and fromarr, eid
        and ecomp values are base morphisms, so only their keys are checked.
        A table is checked whole, by its shapes: one maximum over the objects
        and one hom-size test per distinct morphism. Only a table that fails
        is checked row by row, to name its bad rows."""
        hom = d.table("hom")
        entries = _SCHEMA[d.kind].by_keyword

        def fits(entry: _Entry, keys, values) -> bool:
            shapes = [(entry.key, keys)]
            if entry.keyword not in ("hom", "fromarr", "eid", "ecomp"):
                shapes.append((entry.value, values))
            objects = _flat(shape.objects(vs) for shape, vs in shapes)
            morphisms = set(_flat(shape.morphisms(vs) for shape, vs in shapes))
            return max(objects, default=-1) < n and all(
                m.src < n and m.dst < n and m.k < hom.get(m[:2], 0) for m in morphisms)

        bad = []
        for keyword in keywords:
            table, entry = d.table(keyword), entries[keyword]
            if not fits(entry, table.keys(), table.values()):
                bad += [(keyword, k) for k, v in table.items() if not fits(entry, (k,), (v,))]
        for keyword, k in bad:
            self.error(d.span_of(keyword, k), f"{keyword} entry at {k} references an out-of-range object or morphism")
        return not bad

    def _check_arrow_shapes(self, d: _Decl, keyword: str, ends: Callable) -> bool:
        """Report each ``keyword`` row whose morphism is not ``src -> dst``
        for ``(src, dst) = ends(key)``; a row with an undefined (None) end is
        left to the law checks."""
        bad = [(k, m, e) for k, m in d.table(keyword).items()
               if None not in (e := ends(k)) and (m.src, m.dst) != e]
        for k, m, (src, dst) in bad:
            self.error(d.span_of(keyword, k), f"{keyword} entry at {k} is {m}, not a morphism {src} -> {dst}")
        return not bad

    def _check_category_shapes(self, d: _Decl) -> bool:
        """Report each ``id`` row that is not a morphism x -> x and each
        ``then`` row whose morphisms do not compose or whose value does not
        go from the first's source to the second's target."""
        ok = self._check_arrow_shapes(d, "id", lambda x: (x, x))
        bad = []
        for (f, g), h in d.table("then").items():
            if f.dst != g.src:
                message = f"then entry at ({f}, {g}): {f} ends at {f.dst} and {g} starts at {g.src}"
            elif (h.src, h.dst) != (f.src, g.dst):
                message = f"then entry at ({f}, {g}) is {h}, not a morphism {f.src} -> {g.dst}"
            else:
                continue
            bad.append((d.span_of("then", (f, g)), message))
        for span, message in bad:
            self.error(span, message)
        return ok and not bad

    def _check_enrichment_shapes(self, d: _Decl, base) -> bool:
        """Report each ``eid`` row that is not a morphism I -> homobj(x,x),
        each ``ecomp`` row that is not homobj(y,z) (x) homobj(x,y) ->
        homobj(x,z) and each ``fromarr`` row that is not I -> homobj(a,b) for
        its key a -> b. A row whose hom objects are not all declared, or whose
        tensor the base cannot form, is left to the enrichment check."""
        hom_obj = d.table("homobj")

        def tensor(x, y, z):
            if (y, z) in hom_obj and (x, y) in hom_obj:
                try:
                    return base.tensor_obj(hom_obj[y, z], hom_obj[x, y])
                except EcatError:
                    pass
            return None

        return all([
            self._check_arrow_shapes(d, "eid", lambda x: (base.unit, hom_obj.get((x, x)))),
            self._check_arrow_shapes(d, "ecomp", lambda k: (tensor(*k), hom_obj.get((k[0], k[2])))),
            self._check_arrow_shapes(d, "fromarr", lambda f: (base.unit, hom_obj.get((f.src, f.dst)))),
        ])

    def _resolve_base(self, d: _Decl):
        n, unit = d.values.get("objects"), d.values.get("unit")
        if n is None:
            self.error(d.span, f"base {d.name!r} is missing an 'objects' entry")
            return None
        if unit is None:
            self.error(d.span, f"base {d.name!r} is missing a 'unit' entry")
            return None
        ok = unit < n
        if not ok:
            self.error(d.span, f"unit object {unit} out of range in base {d.name!r}")
        in_range = self._check_in_range(d, n, [e.keyword for e in _SCHEMA["base"].tables])
        t = d.table
        is_closed = bool(t("homobj") or t("eval") or t("lam"))
        if in_range and is_closed:
            # a closed base answers hom_obj and eval at every object pair
            pairs = list(itertools.product(range(n), repeat=2))
            in_range = all([self._check_keys(d, keyword, pairs) for keyword in ("homobj", "eval")])
        if not (in_range and self._check_category_shapes(d) and ok):
            return None
        closed = ClosedData(t("homobj"), t("eval"), t("lam")) if is_closed else None
        return FinMonCat(
            FinCat(n, t("hom"), t("id"), t("then")), unit, t("tensorobj"), t("tensormor"),
            t("lunitor"), t("lunitorinv"), t("runitor"), t("runitorinv"),
            t("assoc"), t("associnv"), t("sym") or None, closed, name=d.name,
        )

    def _resolve_enrichment(self, d: _Decl, base):
        n = d.values.get("objects")
        if n is None:
            self.error(d.span, f"enrichment {d.name!r} is missing an 'objects' entry")
            return None
        hom_obj, from_arr = d.table("homobj"), d.table("fromarr")
        under = FinCat(n, d.table("hom"), d.table("id"), d.table("then"))
        ok = all([
            self._check_in_range(d, n, ("hom", "id", "then", "fromarr", "eid", "ecomp"))
            and self._check_category_shapes(d),
            self._check_keys(d, "homobj", itertools.product(range(n), repeat=2)),
            self._check_rows(d, "homobj", base.contains_obj, "hom object {1} is not a base object"),
            *(self._check_rows(d, table, lambda v: _base_mor_ok(base, v), table + " entry {1} is out of base range")
              for table in ("eid", "ecomp", "fromarr")),
        ]) and self._check_enrichment_shapes(d, base)
        # from_arr must be bijective per hom pair onto base(I, E(x,y))
        for x in range(n):
            for y in range(n):
                pts = {}
                for f in under.hom(x, y):
                    v = from_arr.get(f)
                    if v is None:
                        self.error(d.span, f"fromarr missing for morphism {f} in {d.name!r}")
                        ok = False
                        continue
                    if v in pts:
                        self.error(d.span_of("fromarr", f), f"fromarr is not injective at ({x},{y})")
                        ok = False
                    pts[v] = f
                expected = None
                if (x, y) in hom_obj:
                    try:
                        expected = base.hom_size(base.unit, hom_obj[(x, y)])
                    except EcatError:
                        expected = None
                if expected is not None and len(pts) != expected:
                    self.error(d.span, f"fromarr at ({x},{y}) is not a bijection "
                                       f"({len(pts)} of {expected} unit points hit)")
                    ok = False
        if not ok:
            return None
        return Enrichment(base, under, hom_obj, d.table("eid"), d.table("ecomp"), from_arr, name=d.name)

    def _resolve_functor(self, d: _Decl, dom, cod):
        ob = d.table("ob")
        in_range = all([
            self._check_keys(d, "ob", dom.objects()),
            self._check_keys(d, "mor", dom.under.mors()),
            self._check_keys(d, "efun", itertools.product(dom.objects(), repeat=2)),
            self._check_rows(d, "ob", lambda y: y < cod.n_objects, "object image {1} out of range"),
            self._check_rows(d, "mor", lambda m: _fincat_mor_ok(cod.under, m), "morphism image {1} out of range"),
            self._check_rows(d, "efun", lambda m: _base_mor_ok(dom.base, m),
                             "enrichment component {1} is out of base range"),
        ])
        if not (in_range and self._check_arrow_shapes(d, "mor", lambda f: (ob.get(f.src), ob.get(f.dst)))):
            return None
        return EnrichedFunctor(dom, cod, ob, d.table("mor"), d.table("efun"), name=d.name)

    def _resolve_transformation(self, d: _Decl, src, dst):
        if not (self._check_keys(d, "at", src.dom.objects())
                and self._check_rows(d, "at", lambda m: _fincat_mor_ok(src.cod.under, m), "component {1} out of range")
                and self._check_arrow_shapes(d, "at", lambda x: (src.ob_map.get(x), dst.ob_map.get(x)))):
            return None
        return EnrichedTransformation(src, dst, d.table("at"), name=d.name)

    def _resolve_monad(self, d: _Decl, carrier, endo):
        if not (_same(endo.dom, carrier) and _same(endo.cod, carrier)):
            self.error(d.span, f"monad {d.name!r}: {d.refs['endo']!r} is not an endofunctor of {d.refs['on']!r}")
            return None
        t = endo.ob_map.get
        in_range = all([self._check_keys(d, table, carrier.objects()) for table in ("unit", "mult")]
                       + [self._check_rows(d, table, lambda m: _fincat_mor_ok(carrier.under, m),
                                           "monad component {1} out of range") for table in ("unit", "mult")])
        if not (in_range and all([
            self._check_arrow_shapes(d, "unit", lambda x: (x, t(x))),
            self._check_arrow_shapes(d, "mult", lambda x: (t(t(x)), t(x))),
        ])):
            return None
        unit = EnrichedTransformation(id_functor(carrier), endo, d.table("unit"), name=f"{d.name}-unit")
        mult = EnrichedTransformation(compose_functors(endo, endo), endo, d.table("mult"), name=f"{d.name}-mult")
        return EnrichedMonad(carrier, endo, unit, mult, name=d.name)

    def _resolve_cocone(self, d: _Decl, monad, apex, leg):
        if not (_same(leg.dom, monad.carrier) and _same(leg.cod, apex)):
            self.error(d.span, f"cocone {d.name!r}: {d.refs['leg']!r} does not go from the carrier of "
                               f"{d.refs['for']!r} to {d.refs['apex']!r}")
            return None
        q = leg.ob_map.get
        if not (self._check_keys(d, "cell", monad.carrier.objects())
                and self._check_rows(d, "cell", lambda m: _fincat_mor_ok(apex.under, m), "cell component {1} out of range")
                and self._check_arrow_shapes(d, "cell", lambda x: (q(monad.endo.ob_map.get(x)), q(x)))):
            return None
        cell = EnrichedTransformation(compose_functors(monad.endo, leg), leg, d.table("cell"), name=f"{d.name}-cell")
        return KleisliCocone(apex, leg, cell, name=d.name)


def _same(E1: Enrichment, E2: Enrichment) -> bool:
    return E1 is E2 or E1.data_equal(E2)


def _base_mor_ok(base, m: MorRef) -> bool:
    if not (base.contains_obj(m.src) and base.contains_obj(m.dst)):
        return False
    try:
        return 0 <= m.k < base.hom_size(m.src, m.dst)
    except EcatError:
        return False


def _fincat_mor_ok(cat: FinCat, m: MorRef) -> bool:
    return m.k < cat.hom_size(m.src, m.dst)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def _span(line_no: int, raw: str, path: str | None) -> Span:
    stripped = raw.rstrip()
    lead = len(raw) - len(raw.lstrip())
    return Span(line_no, lead + 1, max(len(stripped), lead + 1) + 1, path)


_KEYWORD = re.compile(r"^\S+", re.M)


class _Numerals(dict):
    """The integer of each numeral read so far from one document."""

    def __missing__(self, numeral: str) -> int:
        self[numeral] = n = int(numeral)
        return n


def _read_text(text: str, path: str | None, res: _Resolver) -> None:
    lines = text.splitlines()
    # each line without its comment and its surrounding whitespace
    stripped = [line[: line.index("#")].strip() if "#" in line else line.strip() for line in lines]
    numerals = _Numerals()
    i = 0
    while i < len(lines):
        line = stripped[i]
        i += 1
        if not line:
            continue
        span = _span(i, lines[i - 1], path)
        m = _BUILTIN_HEADER.match(line)
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
        try:
            end = stripped.index("}", i)
        except ValueError:
            res.error(span, "unterminated block (missing '}')")
            return
        d = _Decl(kind, m.group(1), span, dict(zip(schema.header_refs, m.groups()[1:])),
                  lambda keyword, line_no: _span(line_no, lines[line_no - 1], path))
        # the body's non-empty lines and their line numbers
        line_nos = [j + 1 for j in range(i, end) if stripped[j]]
        body = [stripped[j - 1] for j in line_nos]
        start = 0
        for keyword, run in itertools.groupby(_KEYWORD.findall("\n".join(body))):
            stop = start + len([*run])
            entry = schema.by_keyword.get(keyword)
            if entry is None or entry.key is None or not _read_text_run(
                    d, entry, body[start:stop], line_nos[start:stop], numerals):
                for j in range(start, stop):
                    _read_text_row(schema.by_keyword, d, res, line_nos[j], body[j])
            start = stop
        i = end + 1
        res.resolve(d)


def _read_text_run(d: _Decl, entry: _Entry, lines: list, line_nos: list, numerals: _Numerals) -> bool:
    """Add a run of consecutive rows of one table, decoded at once; False,
    adding nothing, if a row is malformed or a key repeats."""
    rows = entry.pattern.findall("\n".join(lines))
    if len(rows) < len(lines):
        return False
    ints, size = [*map(numerals.__getitem__, _flat(rows))], len(rows[0])
    return d.put_rows(entry, [ints[i::size] for i in range(size)], line_nos)


def _read_text_row(entries: dict, d: _Decl, res: _Resolver, line_no: int, line: str) -> None:
    """Read one body line, reporting at it what is wrong with it."""
    keyword = line.split()[0]
    entry = entries.get(keyword)
    if entry is None:
        res.error(d.where(keyword, line_no), f"unexpected entry {keyword!r} in this block")
        return
    m = entry.pattern.match(line)
    if not m:
        res.error(d.where(keyword, line_no), f"malformed {keyword!r} entry: {line!r}")
    elif entry.key is not None:
        d.put_row(res, entry, [[int(g)] for g in m.groups()], line_no)
    elif keyword in d.refs or keyword in d.values:
        res.error(d.where(keyword, line_no), f"repeated {keyword!r} entry")
    elif entry.value is NAME:
        d.refs[keyword] = m.group(1)
    else:
        d.values[keyword] = int(m.group(1))


def _is_name(v) -> bool:
    return isinstance(v, str) and _NAME_RE.fullmatch(v) is not None


def _read_json(text: str, path: str | None, res: _Resolver) -> None:
    try:
        payload = json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        col = max(exc.colno, 1)
        res.error(Span(exc.lineno, col, col + 1, path), f"invalid JSON: {exc}")
        return
    items = payload.get("items") if isinstance(payload, dict) else None
    if not isinstance(items, list):
        res.error(Span(path=path, pointer="items"), "machine format needs an items list")
        return
    for key in payload.repeated:
        res.error(Span(path=path, pointer=key), f"repeated {key!r} entry")
    for i, entry in enumerate(items):
        d = _json_decl(entry, f"items[{i}]", path, res)
        if d is not None:
            res.resolve(d)


class _JsonObject(dict):
    """A JSON object that keeps the keys it holds more than once in
    ``repeated``; the value is the first one."""

    def __init__(self, pairs):
        super().__init__()
        self.repeated = []
        for k, v in pairs:
            if k in self:
                self.repeated.append(k)
            else:
                self[k] = v


def _json_decl(entry, at: str, path: str | None, res: _Resolver) -> _Decl | None:
    """The declaration of one JSON item, or None after reporting why not."""
    def fail(where: str, message: str) -> None:
        res.error(Span(path=path, pointer=where), message)

    if not isinstance(entry, dict):
        return fail(at, "an item must be a JSON object")
    for key in entry.repeated:
        fail(f"{at}.{key}", f"repeated {key!r} entry")
    kind, name = entry.get("kind"), entry.get("name")
    if kind not in _SCHEMA:
        return fail(f"{at}.kind", f"unknown item kind {kind!r}")
    if not _is_name(name):
        return fail(f"{at}.name", f"invalid name {name!r}")
    span = Span(path=path, pointer=at)
    if kind == "base" and "builtin" in entry:
        params = entry.get("params", [])
        if not (_is_name(entry["builtin"]) and isinstance(params, list)
                and all(isinstance(p, list) and len(p) == 2 and _is_name(p[0])
                        and type(p[1]) is int and p[1] >= 0 for p in params)):
            return fail(at, "a builtin base needs a builtin name and [name, integer] params")
        res.builtin(name, entry["builtin"], params, span)
        return None
    schema = _SCHEMA[kind]
    refs = {}
    for ref in schema.refs:
        if not _is_name(entry.get(ref)):
            return fail(f"{at}.{ref}", f"a {kind} needs a {ref!r} reference")
        refs[ref] = entry[ref]
    tables = entry.get("tables")
    if not isinstance(tables, dict):
        return fail(f"{at}.tables", f"a {kind} needs a tables object")
    for keyword in tables.repeated:
        fail(f"{at}.tables.{keyword}", f"repeated {keyword!r} entry")
    d = _Decl(kind, name, span, refs, lambda keyword, j: Span(path=path, pointer=f"{at}.tables.{keyword}[{j}]"))
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
        elif rows:
            try:
                columns = _columns_of(entry_schema.nesting, rows, True)
            except ValueError:
                columns = None
            if columns is not None and d.put_rows(entry_schema, columns, range(len(rows))):
                continue
            # read again one row at a time, to report each bad row
            for j, row in enumerate(rows):
                try:
                    columns = _columns_of(entry_schema.nesting, [row], True)
                except ValueError:
                    res.error(d.where(keyword, j), f"malformed {keyword!r} entry: {json.dumps(row)}")
                else:
                    d.put_row(res, entry_schema, columns, j)
    return d


def parse(text: str) -> tuple[Document | None, list[Diagnostic]]:
    """Parse a text document; returns (Document, []) or (None, diagnostics)."""
    res = _Resolver()
    _read_text(text, None, res)
    return res.result()


def from_json(text: str) -> tuple[Document | None, list[Diagnostic]]:
    """Parse the machine format; returns (Document, []) or (None, diagnostics)."""
    res = _Resolver()
    _read_json(text, None, res)
    return res.result()


def load(paths: list[str]) -> tuple[Document | None, list[Diagnostic]]:
    """Read text files and ``.json`` machine files, in order, into one
    namespace: a later file may reference an earlier file's declarations."""
    res = _Resolver()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        (_read_json if path.endswith(".json") else _read_text)(text, path, res)
    return res.result()


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _serialize_item(item: Item) -> str:
    refs = item.refs
    if "builtin" in refs:
        params = "".join(f", {k}={v}" for k, v in refs["params"])
        return f"base {item.name} = builtin({refs['builtin']}{params})\n"
    out = [_SCHEMA[item.kind].header.format(name=item.name, **refs) + " {"]
    for entry in _SCHEMA[item.kind].entries:
        if entry.value is NAME:
            out.append(entry.row % refs[entry.keyword])
        elif entry.key is None:
            out.append(entry.row % entry.get(item.value))
        else:
            # a row's integers, key first, sort as its key does
            rows = zip(*_columns_of(entry.nesting, [*(entry.get(item.value) or {}).items()]))
            out.extend(map(entry.row.__mod__, sorted(rows)))
    out.append("}")
    return "\n".join(out) + "\n"


def serialize(doc: Document) -> str:
    """Canonical text: declaration order preserved, tables sorted, fixed
    indentation; parse(serialize(doc)) structurally equals doc."""
    return "\n".join(_serialize_item(item) for item in doc.items)


def _json_value(v, indent: str) -> str:
    """``v`` as ``json.dumps(indent=2)`` writes it when it starts at ``indent``."""
    return json.dumps(v, indent=2).replace("\n", "\n" + indent)


def _json_entry(entry: _Entry, v) -> str:
    """A body entry's JSON: its single value, null, or its rows in the order
    of their keys' ``repr``, each filled into the entry's row template."""
    if entry.key is None or v is None:
        return json.dumps(v)
    if not v:
        return "[]"
    columns = _columns_of(entry.nesting, [*v.items()])
    rows = sorted(zip(map(entry.key.repr.__mod__, zip(*columns[:entry.key.size])), zip(*columns)))
    return "[\n" + ",\n".join(map(entry.json_row.__mod__, map(_second, rows))) + "\n        ]"


def _json_item(item: Item) -> str:
    """An item's JSON object: kind, name, references and tables, by key."""
    members = {key: _json_value(v, "      ") for key, v in [("kind", item.kind), ("name", item.name),
                                                          *item.refs.items()]}
    if "builtin" not in item.refs:
        tables = (f'        "{e.keyword}": {_json_entry(e, e.get(item.value))}'
                  for e in _SCHEMA[item.kind].json_tables)
        members["tables"] = "{\n" + ",\n".join(tables) + "\n      }"
    return "    {\n" + ",\n".join(f'      "{key}": {members[key]}' for key in sorted(members)) + "\n    }"


def to_json(doc: Document) -> str:
    """Machine export mirroring the DSL semantics item by item: the bytes of
    ``json.dumps(indent=2, sort_keys=True)`` on the items as JSON objects."""
    if not doc.items:
        return '{\n  "items": []\n}\n'
    return '{\n  "items": [\n' + ",\n".join(map(_json_item, doc.items)) + "\n  ]\n}\n"
