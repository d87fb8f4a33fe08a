"""Path constraints: representation, satisfiability, and SMT-LIB emission.

The supported fragment:

* atoms: ``var <cmp> int-constant`` for the six comparison operators,
  ``int-var ==/!= int-var``, ``string-var ==/!= (string-literal | string-var)``,
  bare boolean variables and boolean literals;
* formulas: closed under and / or / not.

``check_sat`` is complete for this fragment: NNF -> DNF with a cube cap
(overflow answers Unknown), then per cube union-find over equalities,
interval narrowing for integers, and a distinct-representative assignment
for disequalities. Every Sat answer carries a witness; Unsat is only
answered when no cube has a model.

Flows whose guards fall outside the fragment are Skipped;
skipped and Unknown flows are retained downstream as potential findings,
only Unsat prunes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Union

from .search import service_index

CUBE_CAP = 4096
INT_OPS = ("==", "!=", "<", "<=", ">", ">=")
EQ_OPS = ("==", "!=")

# --- formula tree -------------------------------------------------------------


@dataclass(frozen=True)
class IntCmp:
    var: str
    op: str
    value: int


@dataclass(frozen=True)
class IntVarCmp:
    left: str
    op: str  # == or !=
    right: str


@dataclass(frozen=True)
class StrLitCmp:
    var: str
    op: str  # == or !=
    value: str


@dataclass(frozen=True)
class StrVarCmp:
    left: str
    op: str  # == or !=
    right: str


@dataclass(frozen=True)
class BoolVar:
    var: str


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


Atom = Union[IntCmp, IntVarCmp, StrLitCmp, StrVarCmp, BoolVar, BoolConst]


@dataclass(frozen=True)
class PathConstraint:
    """Typed variables plus a boolean combination of fragment atoms."""

    variables: tuple[tuple[str, str], ...]  # (name, "int"|"string"|"bool")
    formula: object

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

    def need(var: str, t: str) -> None:
        actual = types.get(var)
        if actual is None:
            raise ConstraintError(f"atom references undeclared variable {var!r}")
        if actual != t:
            raise ConstraintError(f"variable {var!r} is {actual}, atom needs {t}")

    def walk(f) -> None:
        if isinstance(f, IntCmp):
            if f.op not in INT_OPS:
                raise ConstraintError(f"bad int operator {f.op!r}")
            need(f.var, "int")
        elif isinstance(f, IntVarCmp):
            if f.op not in EQ_OPS:
                raise ConstraintError(f"int variables compare only with ==/!=, got {f.op!r}")
            need(f.left, "int")
            need(f.right, "int")
        elif isinstance(f, StrLitCmp):
            if f.op not in EQ_OPS:
                raise ConstraintError(f"strings compare only with ==/!=, got {f.op!r}")
            need(f.var, "string")
        elif isinstance(f, StrVarCmp):
            if f.op not in EQ_OPS:
                raise ConstraintError(f"strings compare only with ==/!=, got {f.op!r}")
            need(f.left, "string")
            need(f.right, "string")
        elif isinstance(f, BoolVar):
            need(f.var, "bool")
        elif isinstance(f, BoolConst):
            pass
        elif isinstance(f, (And, Or)):
            for item in f.items:
                walk(item)
        elif isinstance(f, Not):
            walk(f.item)
        else:
            raise ConstraintError(f"unsupported formula node {f!r}")

    walk(c.formula)


# --- satisfiability ------------------------------------------------------------


@dataclass(frozen=True)
class Sat:
    witness: dict


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str


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


_NEG_INT_OP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_INF = float("inf")


def _solve_cube(cube: list[tuple[Atom, bool]], types: dict[str, str]) -> dict | None:
    """Model of a conjunction of literals, or None if inconsistent."""
    bools: dict[str, bool] = {}
    int_uf = _UnionFind()
    str_uf = _UnionFind()
    int_cmps: list[IntCmp] = []
    int_neqs: list[tuple[str, str]] = []
    str_binds: list[StrLitCmp] = []
    str_neqs: list[tuple[str, str]] = []
    for name, t in types.items():
        if t == "int":
            int_uf.add(name)
        elif t == "string":
            str_uf.add(name)

    for atom, positive in cube:
        if isinstance(atom, BoolConst):
            if atom.value != positive:
                return None
        elif isinstance(atom, BoolVar):
            if bools.setdefault(atom.var, positive) != positive:
                return None
        elif isinstance(atom, IntCmp):
            op = atom.op if positive else _NEG_INT_OP[atom.op]
            int_cmps.append(IntCmp(atom.var, op, atom.value))
        elif isinstance(atom, IntVarCmp):
            eq = (atom.op == "==") == positive
            if eq:
                int_uf.union(atom.left, atom.right)
            else:
                int_neqs.append((atom.left, atom.right))
        elif isinstance(atom, StrLitCmp):
            eq = (atom.op == "==") == positive
            str_binds.append(StrLitCmp(atom.var, "==" if eq else "!=", atom.value))
        elif isinstance(atom, StrVarCmp):
            eq = (atom.op == "==") == positive
            if eq:
                str_uf.union(atom.left, atom.right)
            else:
                str_neqs.append((atom.left, atom.right))
        else:  # pragma: no cover
            raise ConstraintError(f"unexpected atom {atom!r}")

    witness: dict = dict(bools)

    int_values = _solve_ints(int_uf, int_cmps, int_neqs)
    if int_values is None:
        return None
    witness.update(int_values)

    str_values = _solve_strings(str_uf, str_binds, str_neqs)
    if str_values is None:
        return None
    witness.update(str_values)

    for name, t in types.items():
        if name not in witness:
            witness[name] = {"int": 0, "string": "", "bool": False}[t]
    return witness


def _solve_ints(
    uf: _UnionFind, cmps: list[IntCmp], neqs: list[tuple[str, str]]
) -> dict[str, int] | None:
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    forbidden: dict[str, set[int]] = {}

    def rep(v: str) -> str:
        return uf.find(v)

    for c in cmps:
        r = rep(c.var)
        lo.setdefault(r, -_INF)
        hi.setdefault(r, _INF)
        if c.op == "==":
            lo[r] = max(lo[r], c.value)
            hi[r] = min(hi[r], c.value)
        elif c.op == "!=":
            forbidden.setdefault(r, set()).add(c.value)
        elif c.op == "<":
            hi[r] = min(hi[r], c.value - 1)
        elif c.op == "<=":
            hi[r] = min(hi[r], c.value)
        elif c.op == ">":
            lo[r] = max(lo[r], c.value + 1)
        else:  # >=
            lo[r] = max(lo[r], c.value)

    neq_edges: dict[str, set[str]] = {}
    for a, b in neqs:
        ra, rb = rep(a), rep(b)
        if ra == rb:
            return None
        neq_edges.setdefault(ra, set()).add(rb)
        neq_edges.setdefault(rb, set()).add(ra)

    classes = sorted(set(rep(v) for v in uf.parent) | set(lo) | set(neq_edges))

    def domain(r: str) -> tuple[float, float, set[int]]:
        return (lo.get(r, -_INF), hi.get(r, _INF), forbidden.get(r, set()))

    def domain_size(r: str) -> float:
        dlo, dhi, bad = domain(r)
        if dlo == -_INF or dhi == _INF:
            return _INF
        return max(0, dhi - dlo + 1 - sum(1 for b in bad if dlo <= b <= dhi))

    for r in classes:
        if domain_size(r) == 0:
            return None

    # distinct-representative assignment: exact search over tightly bounded
    # classes, then greedy for classes whose domain exceeds their degree
    assignment: dict[str, int] = {}
    degree = {r: len(neq_edges.get(r, ())) for r in classes}
    tight = [r for r in classes if domain_size(r) <= degree[r]]
    flexible = sorted(
        (r for r in classes if r not in tight), key=lambda r: (domain_size(r), r)
    )

    def candidates(r: str, limit: int | None = None) -> Iterable[int]:
        dlo, dhi, bad = domain(r)
        if dlo != -_INF:
            start = int(dlo)
        elif dhi != _INF:
            start = int(dhi) - 10_000
        else:
            start = 0
        stop = int(dhi) if dhi != _INF else start + 10_000
        produced = 0
        for v in range(start, stop + 1):
            if v in bad:
                continue
            yield v
            produced += 1
            if limit is not None and produced >= limit:
                return

    def conflict(r: str, value: int) -> bool:
        return any(assignment.get(n) == value for n in neq_edges.get(r, ()))

    def backtrack(idx: int) -> bool:
        if idx == len(tight):
            return True
        r = tight[idx]
        for v in candidates(r):
            if conflict(r, v):
                continue
            assignment[r] = v
            if backtrack(idx + 1):
                return True
            del assignment[r]
        return False

    if not backtrack(0):
        return None
    for r in flexible:
        needed = degree[r] + 1
        for v in candidates(r, limit=needed + len(forbidden.get(r, ()))):
            if not conflict(r, v):
                assignment[r] = v
                break
        else:  # pragma: no cover - domain > degree guarantees a value
            return None

    return {v: assignment[rep(v)] for v in uf.parent if rep(v) in assignment}


def _solve_strings(
    uf: _UnionFind, binds: list[StrLitCmp], neqs: list[tuple[str, str]]
) -> dict[str, str] | None:
    bound: dict[str, str] = {}
    banned: dict[str, set[str]] = {}

    for b in binds:
        r = uf.find(b.var)
        if b.op == "==":
            if bound.setdefault(r, b.value) != b.value:
                return None
        else:
            banned.setdefault(r, set()).add(b.value)

    neq_edges: dict[str, set[str]] = {}
    for a, b in neqs:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return None
        neq_edges.setdefault(ra, set()).add(rb)
        neq_edges.setdefault(rb, set()).add(ra)

    classes = sorted(set(uf.find(v) for v in uf.parent) | set(bound) | set(neq_edges))
    for r in classes:
        if r in bound and bound[r] in banned.get(r, ()):
            return None
    for a, bs in neq_edges.items():
        for b in bs:
            if a in bound and b in bound and bound[a] == bound[b]:
                return None

    # unbound classes draw from an infinite domain: fresh distinct values
    assignment = dict(bound)
    for r in classes:
        if r in assignment:
            continue
        taken = banned.get(r, set()) | {
            assignment[n] for n in neq_edges.get(r, ()) if n in assignment
        }
        for i in itertools.count():
            fresh = f"fresh!{i}"
            if fresh not in taken:
                assignment[r] = fresh
                break
    return {v: assignment[uf.find(v)] for v in uf.parent if uf.find(v) in assignment}


def check_sat(c: PathConstraint) -> SatResult:
    """Decide the constraint within the fragment. Sat always carries a
    witness; Unsat only when no bounded cube has a model."""
    validate_constraint(c)
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


def _sexpr(f) -> str:
    if isinstance(f, IntCmp):
        op = {"==": "=", "!=": "distinct"}.get(f.op, f.op)
        return f"({op} {_symbol(f.var)} {f.value})"
    if isinstance(f, IntVarCmp):
        op = "=" if f.op == "==" else "distinct"
        return f"({op} {_symbol(f.left)} {_symbol(f.right)})"
    if isinstance(f, StrLitCmp):
        op = "=" if f.op == "==" else "distinct"
        return f"({op} {_symbol(f.var)} {_smt_str(f.value)})"
    if isinstance(f, StrVarCmp):
        op = "=" if f.op == "==" else "distinct"
        return f"({op} {_symbol(f.left)} {_symbol(f.right)})"
    if isinstance(f, BoolVar):
        return _symbol(f.var)
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, And):
        return "true" if not f.items else f"(and {' '.join(_sexpr(i) for i in f.items)})"
    if isinstance(f, Or):
        return "false" if not f.items else f"(or {' '.join(_sexpr(i) for i in f.items)})"
    if isinstance(f, Not):
        return f"(not {_sexpr(f.item)})"
    raise ConstraintError(f"unsupported formula node {f!r}")


def emit_smtlib(c: PathConstraint) -> str:
    """SMT-LIB v2 text: sorted declarations, one assert per top-level
    conjunct, trailing check-sat. Deterministic. A variable whose name SMT-LIB
    reserves or predefines, or that is no simple symbol, is emitted as
    ``|v:NAME|``."""
    validate_constraint(c)
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


def formula_from_json(data) -> object:
    if not isinstance(data, list) or not data:
        raise ConstraintError(f"formula node must be a non-empty list, got {data!r}")
    tag, rest = data[0], data[1:]
    if tag == "int_cmp" and len(rest) == 3 and isinstance(rest[2], int) and not isinstance(rest[2], bool):
        return IntCmp(str(rest[0]), str(rest[1]), rest[2])
    if tag == "int_var_cmp" and len(rest) == 3:
        return IntVarCmp(str(rest[0]), str(rest[1]), str(rest[2]))
    if tag == "str_lit_cmp" and len(rest) == 3 and isinstance(rest[2], str):
        return StrLitCmp(str(rest[0]), str(rest[1]), rest[2])
    if tag == "str_var_cmp" and len(rest) == 3:
        return StrVarCmp(str(rest[0]), str(rest[1]), str(rest[2]))
    if tag == "bool_var" and len(rest) == 1:
        return BoolVar(str(rest[0]))
    if tag == "bool_const" and len(rest) == 1 and isinstance(rest[0], bool):
        return BoolConst(rest[0])
    if tag == "and":
        return And(tuple(formula_from_json(i) for i in rest))
    if tag == "or":
        return Or(tuple(formula_from_json(i) for i in rest))
    if tag == "not" and len(rest) == 1:
        return Not(formula_from_json(rest[0]))
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
    constraint = PathConstraint(tuple(sorted(pairs)), formula_from_json(data.get("formula")))
    validate_constraint(constraint)
    return constraint


# --- guard extraction ------------------------------------------------------------


def extract_path_constraints(groups, reasoner):
    """Ask the reasoner to translate the conditional guards protecting a
    flow, read from its ``crossflow.path_functions`` groups and taken in
    source order. Returns the PathConstraint, or None when the reasoner
    skipped the extraction (a guard outside the fragment).
    """
    from .reasoner import ExtractConstraints, GuardDescriptor

    guards: dict[str, tuple] = {}
    for service, _, chain in groups:
        for guard in chain:
            guards.setdefault(guard.id, (service, guard))
    descriptors = tuple(
        GuardDescriptor(source=guard.source, var_types=service_index(service).guard_types[guard.id])
        for service, guard in sorted(
            guards.values(), key=lambda pair: (pair[1].location.file, pair[1].location.line, pair[1].location.col)
        )
    )
    verdict = reasoner.reason(ExtractConstraints(guards=descriptors))
    return None if verdict.skipped else verdict.constraint


# --- MiniSrv guard translation (used by the scripted reasoner) -------------------


def translate_guards(guards) -> tuple[PathConstraint | None, str]:
    """Direct syntactic translation of MiniSrv comparison guards into the
    fragment. Any construct outside it (calls, member access, arithmetic,
    untypable variables) skips the whole extraction."""
    from .minisrv.parser import ParseError, parse_expression
    from .minisrv import nodes

    types: dict[str, str] = {}
    hints: dict[str, str] = {}
    for g in guards:
        for name, t in g.var_types:
            if t in ("int", "string", "bool"):
                hints[name] = t

    def fail(reason: str) -> tuple[None, str]:
        return None, reason

    def set_type(name: str, t: str) -> bool:
        known = types.get(name) or hints.get(name)
        if known is not None and known != t:
            return False
        types[name] = t
        return True

    def tr(expr):
        if isinstance(expr, nodes.BinOp) and expr.op in ("&&", "||"):
            left = tr(expr.lhs)
            right = tr(expr.rhs)
            if left is None or right is None:
                return None
            return And((left, right)) if expr.op == "&&" else Or((left, right))
        if isinstance(expr, nodes.BinOp) and expr.op in INT_OPS:
            return tr_cmp(expr)
        if isinstance(expr, nodes.Name):
            if not set_type(expr.ident, hints.get(expr.ident, "bool")):
                return None
            if types.get(expr.ident) != "bool":
                return None
            return BoolVar(expr.ident)
        if isinstance(expr, nodes.BoolLit):
            return BoolConst(expr.value)
        return None

    def tr_cmp(expr):
        lhs, rhs, op = expr.lhs, expr.rhs, expr.op
        if isinstance(rhs, nodes.Name) and not isinstance(lhs, nodes.Name):
            lhs, rhs = rhs, lhs  # normalize constant to the right
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not isinstance(lhs, nodes.Name):
            return None
        var = lhs.ident
        if isinstance(rhs, nodes.IntLit):
            if not set_type(var, "int"):
                return None
            return IntCmp(var, op, rhs.value)
        if isinstance(rhs, nodes.StrLit):
            if op not in EQ_OPS or not set_type(var, "string"):
                return None
            return StrLitCmp(var, op, rhs.value)
        if isinstance(rhs, nodes.BoolLit):
            if op not in EQ_OPS or not set_type(var, "bool"):
                return None
            positive = (op == "==") == rhs.value
            return BoolVar(var) if positive else Not(BoolVar(var))
        if isinstance(rhs, nodes.Name):
            if op not in EQ_OPS:
                return None
            t = types.get(var) or hints.get(var) or types.get(rhs.ident) or hints.get(rhs.ident)
            if t not in ("int", "string"):
                return None
            if not (set_type(var, t) and set_type(rhs.ident, t)):
                return None
            cls = IntVarCmp if t == "int" else StrVarCmp
            return cls(var, op, rhs.ident)
        return None

    conjuncts = []
    for g in guards:
        try:
            expr = parse_expression(g.source)
        except ParseError:
            return fail(f"guard {g.source!r} is not a plain expression")
        formula = tr(expr)
        if formula is None:
            return fail(f"guard {g.source!r} falls outside the constraint fragment")
        conjuncts.append(formula)

    constraint = PathConstraint(
        variables=tuple(sorted(types.items())),
        formula=And(tuple(conjuncts)),
    )
    return constraint, f"translated {len(conjuncts)} guard(s)"
