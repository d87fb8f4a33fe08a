"""Path constraints: representation, satisfiability, and SMT-LIB emission.

The supported fragment:

* atoms, by shape:

  * ``ConstCmp``: a variable compared with a constant. The constant's type
    is the atom's sort: an ``int`` (not a ``bool``) takes any of the six
    comparison operators, a ``str`` only ``==`` and ``!=``;
  * ``VarCmp``: two variables of one declared type, ``int`` or ``string``,
    compared with ``==`` or ``!=``;
  * ``BoolVar``: a bare boolean variable;
  * ``BoolConst``: a boolean literal;

* formulas: closed under and / or / not.

``check_sat`` is complete for this fragment: NNF -> DNF with a cube cap
(overflow answers Unknown), then per cube and per sort union-find over
equalities, a domain for each class (an integer interval minus forbidden
values, or a bound or fresh string), and a distinct-value assignment for
disequalities. Every Sat answer carries a witness; Unsat is only answered
when no cube has a model.

Flows whose guards fall outside the fragment are Skipped;
skipped and Unknown flows are retained downstream as potential findings,
only Unsat prunes.
"""

from __future__ import annotations

import itertools
import re
from typing import Union

from .minisrv import nodes
from .minisrv.parser import ParseError, parse_expression
from .model import Record

CUBE_CAP = 4096
INT_OPS = ("==", "!=", "<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")
CONST_OPS = {"int": INT_OPS, "string": EQ_OPS}  # operators by constant sort

# --- formula tree -------------------------------------------------------------


def _const_sort(value) -> str | None:
    """``int`` for an int that is not a bool, ``string`` for a str."""
    return {int: "int", str: "string"}.get(type(value))


class ConstCmp(Record):
    """A variable compared with a constant; its sort is the constant's type,
    and ``op`` is one of that sort's ``CONST_OPS``."""

    __slots__ = ("var", "op", "value")

    @property
    def sort(self) -> str | None:
        return _const_sort(self.value)


class VarCmp(Record):
    """Two variables of one declared sort compared for (in)equality:
    ``op`` is ``==`` or ``!=``."""

    __slots__ = ("left", "op", "right")


class BoolVar(Record):
    """A boolean variable, true as an atom."""

    __slots__ = ("var",)


class BoolConst(Record):
    """A boolean constant."""

    __slots__ = ("value",)


class And(Record):
    """Conjunction of its items."""

    __slots__ = ("items",)


class Or(Record):
    """Disjunction of its items."""

    __slots__ = ("items",)


class Not(Record):
    """Negation of its item."""

    __slots__ = ("item",)


Atom = Union[ConstCmp, VarCmp, BoolVar, BoolConst]


class PathConstraint(Record):
    """Typed variables plus a boolean combination of fragment atoms, valid
    once built: ``__init__`` raises ``ConstraintError`` otherwise."""

    __slots__ = ("variables", "formula")

    def __init__(self, variables: tuple[tuple[str, str], ...], formula) -> None:
        self.variables = variables  # (name, "int"|"string"|"bool")
        self.formula = formula
        validate_constraint(self)

    def var_types(self) -> dict[str, str]:
        return dict(self.variables)


class ConstraintError(ValueError):
    pass


def validate_constraint(c: PathConstraint) -> None:
    """Raise ConstraintError unless every atom references a declared
    variable of the right type."""
    types = c.var_types()
    for name, t in c.variables:
        if t not in ("int", "string", "bool"):
            raise ConstraintError(f"variable {name!r} has unsupported type {t!r}")
    _validate_formula(c.formula, types)


def _need(types: dict[str, str], var: str, t: str) -> None:
    actual = types.get(var)
    if actual is None:
        raise ConstraintError(f"atom references undeclared variable {var!r}")
    if actual != t:
        raise ConstraintError(f"variable {var!r} is {actual}, atom needs {t}")


def _validate_formula(f, types: dict[str, str]) -> None:
    if isinstance(f, ConstCmp):
        if f.sort is None:
            raise ConstraintError(f"unsupported constant {f.value!r}")
        if f.op not in CONST_OPS[f.sort]:
            raise ConstraintError(f"bad {f.sort} operator {f.op!r}")
        _need(types, f.var, f.sort)
    elif isinstance(f, VarCmp):
        if f.op not in EQ_OPS:
            raise ConstraintError(f"variables compare only with ==/!=, got {f.op!r}")
        sort = types.get(f.left)
        _need(types, f.left, sort if sort in ("int", "string") else "int or string")
        _need(types, f.right, sort)
    elif isinstance(f, BoolVar):
        _need(types, f.var, "bool")
    elif isinstance(f, BoolConst):
        pass
    elif isinstance(f, (And, Or)):
        for item in f.items:
            _validate_formula(item, types)
    elif isinstance(f, Not):
        _validate_formula(f.item, types)
    else:
        raise ConstraintError(f"unsupported formula node {f!r}")


# --- satisfiability ------------------------------------------------------------


class Sat(Record):
    """A satisfying assignment: variable name to value."""

    __slots__ = ("witness",)


class Unsat(Record):
    """The constraint has no satisfying assignment."""

    __slots__ = ()


class Unknown(Record):
    """The checker could not decide, and says why."""

    __slots__ = ("reason",)


SatResult = Union[Sat, Unsat, Unknown]


class _Overflow(Exception):
    pass


def _dnf(f, polarity: bool) -> list[list[tuple[Atom, bool]]]:
    """Cubes of the (possibly negated) formula; each literal is
    (atom, positive?)."""
    if isinstance(f, (And, Or)):
        conjunctive = isinstance(f, And) == polarity
        branches = [_dnf(item, polarity) for item in f.items]
        if conjunctive:
            cubes: list[list[tuple[Atom, bool]]] = [[]]
            for branch in branches:
                if len(cubes) * len(branch) > CUBE_CAP:
                    raise _Overflow()
                cubes = [a + b for a in cubes for b in branch]
            return cubes
        flat: list[list[tuple[Atom, bool]]] = []
        for branch in branches:
            flat.extend(branch)
            if len(flat) > CUBE_CAP:
                raise _Overflow()
        return flat if f.items else []  # empty Or is false
    if isinstance(f, Not):
        return _dnf(f.item, not polarity)
    return [[(f, polarity)]]


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic representative: lexicographically smallest
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


_NEG_OP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_INF = float("inf")


def _solve_cube(cube: list[tuple[Atom, bool]], types: dict[str, str]) -> dict | None:
    """Model of a conjunction of literals, or None if inconsistent."""
    bools: dict[str, bool] = {}
    solvers = {"int": _solve_ints, "string": _solve_strings}
    ufs = {sort: _UnionFind() for sort in solvers}
    consts: dict[str, list[tuple[str, str, object]]] = {sort: [] for sort in solvers}
    neqs: dict[str, list[tuple[str, str]]] = {sort: [] for sort in solvers}
    for name, t in types.items():
        if t in ufs:
            ufs[t].add(name)

    for atom, positive in cube:
        if isinstance(atom, BoolConst):
            if atom.value != positive:
                return None
        elif isinstance(atom, BoolVar):
            if bools.setdefault(atom.var, positive) != positive:
                return None
        elif isinstance(atom, ConstCmp):
            consts[atom.sort].append((atom.var, atom.op if positive else _NEG_OP[atom.op], atom.value))
        else:  # VarCmp: the right side has the left side's declared type
            sort = types[atom.left]
            if (atom.op == "==") == positive:
                ufs[sort].union(atom.left, atom.right)
            else:
                neqs[sort].append((atom.left, atom.right))

    witness: dict = dict(bools)
    for sort, solve in solvers.items():
        values = solve(ufs[sort], consts[sort], neqs[sort])
        if values is None:
            return None
        witness.update(values)

    for name, t in types.items():
        if name not in witness:
            witness[name] = {"int": 0, "string": "", "bool": False}[t]
    return witness


def _solve_ints(uf: _UnionFind, cmps: list, neqs: list[tuple[str, str]]) -> dict[str, int] | None:
    """Each class ranges over an interval minus its forbidden values, tried
    upward. An unbounded class tries 10,001 values, starting at its lower
    bound, 10,000 below its upper bound, or 0."""
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    forbidden: dict[str, set[int]] = {}
    for var, op, value in cmps:
        r = uf.find(var)
        if op == "!=":
            forbidden.setdefault(r, set()).add(value)
            continue
        if op in ("==", ">=", ">"):
            lo[r] = max(lo.get(r, -_INF), value + 1 if op == ">" else value)
        if op in ("==", "<=", "<"):
            hi[r] = min(hi.get(r, _INF), value - 1 if op == "<" else value)

    def domain(r: str):
        dlo, dhi, bad = lo.get(r, -_INF), hi.get(r, _INF), forbidden.get(r, set())
        if dlo == -_INF or dhi == _INF:
            size = _INF
        else:
            size = max(0, dhi - dlo + 1 - sum(1 for b in bad if dlo <= b <= dhi))
        if dlo != -_INF:
            start = int(dlo)
        elif dhi != _INF:
            start = int(dhi) - 10_000
        else:
            start = 0
        stop = int(dhi) if dhi != _INF else start + 10_000
        return size, (v for v in range(start, stop + 1) if v not in bad)

    return _assign_distinct(uf, neqs, domain)


def _solve_strings(uf: _UnionFind, binds: list, neqs: list[tuple[str, str]]) -> dict[str, str] | None:
    """A class that ``==`` binds ranges over its one literal (none when it
    is bound to two), any other over the unbounded ``fresh!i`` values; both
    minus the literals it is ``!=``."""
    bound: dict[str, set[str]] = {}
    banned: dict[str, set[str]] = {}
    for var, op, value in binds:
        (bound if op == "==" else banned).setdefault(uf.find(var), set()).add(value)

    def domain(r: str):
        bad = banned.get(r, set())
        if r not in bound:
            return _INF, (s for s in map("fresh!{}".format, itertools.count()) if s not in bad)
        values = list(bound[r] - bad) if len(bound[r]) == 1 else []
        return len(values), iter(values)

    return _assign_distinct(uf, neqs, domain)


def _neq_edges(uf: _UnionFind, neqs: list[tuple[str, str]]) -> dict[str, set[str]] | None:
    """The disequality graph over union-find classes, or None when a
    disequality joins a class to itself."""
    edges: dict[str, set[str]] = {}
    for a, b in neqs:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return None
        edges.setdefault(ra, set()).add(rb)
        edges.setdefault(rb, set()).add(ra)
    return edges


def _assign_distinct(uf: _UnionFind, neqs: list[tuple[str, str]], domain) -> dict | None:
    """A value for every variable of ``uf``, the same within a class and
    different across each disequality, or None when there is none.
    ``domain(r)`` gives class ``r``'s size and a fresh iterator over its
    values, in the order they are tried. Classes whose domain is no larger
    than their degree are searched exactly by backtracking; the rest, smallest
    domain first, greedily take their first free value, which a domain larger
    than the degree always leaves."""
    edges = _neq_edges(uf, neqs)
    if edges is None:
        return None
    classes = sorted({uf.find(v) for v in uf.parent})
    size = {r: domain(r)[0] for r in classes}
    if 0 in size.values():
        return None
    degree = {r: len(edges.get(r, ())) for r in classes}
    tight = [r for r in classes if size[r] <= degree[r]]
    flexible = sorted((r for r in classes if size[r] > degree[r]), key=lambda r: (size[r], r))
    assignment: dict = {}
    if not _backtrack(tight, 0, domain, edges, assignment):
        return None
    for r in flexible:
        value = next((v for v in domain(r)[1] if _free(edges, assignment, r, v)), None)
        if value is None:  # pragma: no cover - domain > degree leaves a value
            return None
        assignment[r] = value
    return {v: assignment[uf.find(v)] for v in uf.parent}


def _free(edges: dict[str, set[str]], assignment: dict, r: str, value) -> bool:
    """No neighbour of class ``r`` in the disequality graph has ``value``."""
    return all(assignment.get(n) != value for n in edges.get(r, ()))


def _backtrack(tight: list[str], idx: int, domain, edges: dict[str, set[str]], assignment: dict) -> bool:
    """Extend ``assignment`` to ``tight[idx:]``, each class its first value
    that leaves the rest assignable; False when none does."""
    if idx == len(tight):
        return True
    r = tight[idx]
    for value in domain(r)[1]:
        if _free(edges, assignment, r, value):
            assignment[r] = value
            if _backtrack(tight, idx + 1, domain, edges, assignment):
                return True
            del assignment[r]
    return False


def check_sat(c: PathConstraint) -> SatResult:
    """Decide the constraint within the fragment. Sat always carries a
    witness; Unsat only when no bounded cube has a model."""
    types = c.var_types()
    try:
        cubes = _dnf(c.formula, True)
    except _Overflow:
        return Unknown(f"cube expansion exceeded {CUBE_CAP}")
    for cube in cubes:
        witness = _solve_cube(cube, types)
        if witness is not None:
            return Sat(witness)
    return Unsat()


# --- SMT-LIB emission -----------------------------------------------------------


_SORTS = {"int": "Int", "string": "String", "bool": "Bool"}

#: SMT-LIB 2.6 reserved words and command names, and the symbols the Core,
#: Ints and Strings theories predefine (with the older string names solvers
#: still accept). Declaring one of them clashes with the standard.
_SMT_TAKEN = frozenset(
    """
    ! _ as BINARY DECIMAL HEXADECIMAL NUMERAL STRING exists forall let match par assert check-sat check-sat-assuming
    declare-const declare-datatype declare-datatypes declare-fun declare-sort define-fun define-fun-rec
    define-funs-rec define-sort echo exit get-assertions get-assignment get-info get-model get-option get-proof
    get-unsat-assumptions get-unsat-core get-value pop push reset reset-assertions set-info set-logic set-option
    Bool true false not => and or xor = distinct ite Int - + * div mod abs <= < >= > String RegLan char str.++
    str.len str.< str.<= str.at str.substr str.prefixof str.suffixof str.contains str.indexof str.replace
    str.replace_all str.replace_re str.replace_re_all str.is_digit str.to_code str.from_code str.to_int str.from_int
    str.to_re str.in_re re.none re.all re.allchar re.++ re.union re.inter re.* re.comp re.diff re.+ re.opt re.range
    re.^ re.loop str.to.re str.in.re str.to.int int.to.str
    """.split()
)
# A simple symbol; a digit cannot start one, and "@" or "." starts a solver's.
_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!$%^&*_+=<>?/-][0-9A-Za-z~!@$%^&*_+=<>.?/-]*")


def _symbol(name: str) -> str:
    """The variable's SMT-LIB symbol: the name itself when it is a simple
    symbol that SMT-LIB neither reserves nor predefines, else ``|v:NAME|``.
    A name kept as it is never contains ``:``, so distinct names stay
    distinct symbols."""
    if _SIMPLE_SYMBOL.fullmatch(name) and name not in _SMT_TAKEN:
        return name
    return f"|v:{name}|"


def _smt_str(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


_SMT_OPS = {"==": "=", "!=": "distinct"}


def _sexpr(f) -> str:
    if isinstance(f, ConstCmp):
        # an SMT-LIB numeral is non-negative: -3 is written (- 3)
        value = _smt_str(f.value) if f.sort == "string" else f.value if f.value >= 0 else f"(- {-f.value})"
        return f"({_SMT_OPS.get(f.op, f.op)} {_symbol(f.var)} {value})"
    if isinstance(f, VarCmp):
        return f"({_SMT_OPS[f.op]} {_symbol(f.left)} {_symbol(f.right)})"
    if isinstance(f, BoolVar):
        return _symbol(f.var)
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, And):
        return "true" if not f.items else f"(and {' '.join(_sexpr(i) for i in f.items)})"
    if isinstance(f, Or):
        return "false" if not f.items else f"(or {' '.join(_sexpr(i) for i in f.items)})"
    return f"(not {_sexpr(f.item)})"  # a Not: the constraint was validated when built


def emit_smtlib(c: PathConstraint) -> str:
    """SMT-LIB v2 text: sorted declarations, one assert per top-level
    conjunct, trailing check-sat. Deterministic. A variable whose name SMT-LIB
    reserves or predefines, or that is no simple symbol, is emitted as
    ``|v:NAME|``."""
    lines = [
        f"(declare-const {_symbol(name)} {_SORTS[t]})"
        for name, t in sorted(c.variables)
    ]
    if isinstance(c.formula, And):
        conjuncts = list(c.formula.items)
    else:
        conjuncts = [c.formula]
    lines.extend(f"(assert {_sexpr(f)})" for f in conjuncts)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# --- JSON decoding (remote-reasoner responses) --------------------------------


#: The reply format's comparison tags: the sort each compares in, and
#: whether its right side is a variable (else a constant of that sort).
_CMP_TAGS = {
    "int_cmp": ("int", False),
    "int_var_cmp": ("int", True),
    "str_lit_cmp": ("string", False),
    "str_var_cmp": ("string", True),
}


def formula_from_json(data, types: dict[str, str]) -> object:
    """The formula of a reply. ``types`` holds the declared variable types;
    a comparison over a declared variable of another sort than its tag's is
    rejected."""
    if not isinstance(data, list) or not data:
        raise ConstraintError(f"formula node must be a non-empty list, got {data!r}")
    tag, rest = data[0], data[1:]
    if isinstance(tag, str) and tag in _CMP_TAGS and len(rest) == 3:
        sort, of_vars = _CMP_TAGS[tag]
        var, op, other = str(rest[0]), str(rest[1]), rest[2]
        if of_vars or _const_sort(other) == sort:
            for name in (var, str(other)) if of_vars else (var,):
                if types.get(name, sort) != sort:
                    raise ConstraintError(f"variable {name!r} is {types[name]}, {tag} needs {sort}")
            return VarCmp(var, op, str(other)) if of_vars else ConstCmp(var, op, other)
    if tag == "bool_var" and len(rest) == 1:
        return BoolVar(str(rest[0]))
    if tag == "bool_const" and len(rest) == 1 and isinstance(rest[0], bool):
        return BoolConst(rest[0])
    if tag == "and":
        return And(tuple(formula_from_json(i, types) for i in rest))
    if tag == "or":
        return Or(tuple(formula_from_json(i, types) for i in rest))
    if tag == "not" and len(rest) == 1:
        return Not(formula_from_json(rest[0], types))
    raise ConstraintError(f"malformed formula node {data!r}")


def constraint_from_json(data: dict) -> PathConstraint:
    variables = data.get("variables")
    if not isinstance(variables, list):
        raise ConstraintError("constraint JSON needs a 'variables' list")
    pairs = []
    for v in variables:
        if not isinstance(v, dict) or "name" not in v or "type" not in v:
            raise ConstraintError(f"malformed variable entry {v!r}")
        name = str(v["name"])
        if "|" in name or "\\" in name:
            raise ConstraintError(f"variable name {name!r} has a character no SMT-LIB symbol can hold")
        pairs.append((name, str(v["type"])))
    declared = tuple(sorted(pairs))
    return PathConstraint(declared, formula_from_json(data.get("formula"), dict(declared)))


# --- MiniSrv guard translation (used by the scripted reasoner) -------------------


def translate_guards(guards) -> tuple[PathConstraint | None, str]:
    """Direct syntactic translation of MiniSrv comparison guards into the
    fragment. Any construct outside it (calls, member access, arithmetic,
    untypable variables) skips the whole extraction."""
    hints: dict[str, str] = {}
    for g in guards:
        for name, t in g.var_types:
            if t in ("int", "string", "bool"):
                hints[name] = t

    translation = _GuardTranslation(hints)
    conjuncts = []
    for g in guards:
        try:
            expr = parse_expression(g.source)
        except ParseError:
            return None, f"guard {g.source!r} is not a plain expression"
        formula = translation.formula(expr)
        if formula is None:
            return None, f"guard {g.source!r} falls outside the constraint fragment"
        conjuncts.append(formula)

    constraint = PathConstraint(
        variables=tuple(sorted(translation.types.items())),
        formula=And(tuple(conjuncts)),
    )
    return constraint, f"translated {len(conjuncts)} guard(s)"


class _GuardTranslation:
    """The state of one ``translate_guards`` call: the type each variable
    is fixed to so far, and the types the guards' variables are declared
    with. ``formula`` gives an expression's fragment formula, or None."""

    __slots__ = ("types", "hints")

    def __init__(self, hints: dict[str, str]) -> None:
        self.types: dict[str, str] = {}
        self.hints = hints

    def set_type(self, name: str, t: str) -> bool:
        known = self.types.get(name) or self.hints.get(name)
        if known is not None and known != t:
            return False
        self.types[name] = t
        return True

    def formula(self, expr):
        if isinstance(expr, nodes.BinOp) and expr.op in ("&&", "||"):
            left = self.formula(expr.lhs)
            right = self.formula(expr.rhs)
            if left is None or right is None:
                return None
            return And((left, right)) if expr.op == "&&" else Or((left, right))
        if isinstance(expr, nodes.BinOp) and expr.op in INT_OPS:
            return self.comparison(expr)
        if isinstance(expr, nodes.Name):
            if not self.set_type(expr.ident, self.hints.get(expr.ident, "bool")):
                return None
            if self.types.get(expr.ident) != "bool":
                return None
            return BoolVar(expr.ident)
        if isinstance(expr, nodes.BoolLit):
            return BoolConst(expr.value)
        return None

    def comparison(self, expr):
        lhs, rhs, op = expr.lhs, expr.rhs, expr.op
        if isinstance(rhs, nodes.Name) and not isinstance(lhs, nodes.Name):
            lhs, rhs = rhs, lhs  # normalize constant to the right
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not isinstance(lhs, nodes.Name):
            return None
        var = lhs.ident
        if isinstance(rhs, (nodes.IntLit, nodes.StrLit)):
            sort = _const_sort(rhs.value)
            if op not in CONST_OPS[sort] or not self.set_type(var, sort):
                return None
            return ConstCmp(var, op, rhs.value)
        if isinstance(rhs, nodes.BoolLit):
            if op not in EQ_OPS or not self.set_type(var, "bool"):
                return None
            positive = (op == "==") == rhs.value
            return BoolVar(var) if positive else Not(BoolVar(var))
        if isinstance(rhs, nodes.Name):
            if op not in EQ_OPS:
                return None
            types, hints = self.types, self.hints
            t = types.get(var) or hints.get(var) or types.get(rhs.ident) or hints.get(rhs.ident)
            if t not in ("int", "string"):
                return None
            if not (self.set_type(var, t) and self.set_type(rhs.ident, t)):
                return None
            return VarCmp(var, op, rhs.ident)
        return None
