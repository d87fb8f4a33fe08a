"""AST node types for MiniSrv.

Every node remembers its 1-based (line, col) start position and the half-open
``span`` of byte offsets it covers in the original text, so lowering can emit
verbatim source slices. Nodes are named tuples whose first three fields are
``line, col, span``; the lowering and the guard translator tell them apart by
type, never by comparing nodes of different types.
"""

from __future__ import annotations

from typing import NamedTuple

# --- expressions -----------------------------------------------------------


class IntLit(NamedTuple):
    """An integer literal."""

    line: int
    col: int
    span: tuple[int, int]  # (start offset, end offset) in the source text
    value: int


class StrLit(NamedTuple):
    """A string literal; ``value`` is its text without the quotes."""

    line: int
    col: int
    span: tuple[int, int]
    value: str


class BoolLit(NamedTuple):
    """``true`` or ``false``."""

    line: int
    col: int
    span: tuple[int, int]
    value: bool


class Name(NamedTuple):
    """A bare identifier used as a value."""

    line: int
    col: int
    span: tuple[int, int]
    ident: str


class Member(NamedTuple):
    """Dotted path used as a value, e.g. ``order.user_id``."""

    line: int
    col: int
    span: tuple[int, int]
    base: str
    path: tuple[str, ...]  # attributes after the base


class Call(NamedTuple):
    """A call expression."""

    line: int
    col: int
    span: tuple[int, int]
    callee: str  # the called path as written, e.g. "update_role" or "request.param"
    args: list  # list of expressions


class BinOp(NamedTuple):
    """A binary operation: a comparison, ``&&``, ``||`` or ``+``."""

    line: int
    col: int
    span: tuple[int, int]
    op: str
    lhs: object
    rhs: object


# --- statements ------------------------------------------------------------


class Assign(NamedTuple):
    """``target = value``."""

    line: int
    col: int
    span: tuple[int, int]
    target: str
    value: object


class CallStmt(NamedTuple):
    """A call used as a statement."""

    line: int
    col: int
    span: tuple[int, int]
    call: Call


class If(NamedTuple):
    """A conditional; ``cond_span`` covers its guard expression."""

    line: int
    col: int
    span: tuple[int, int]
    cond: object
    cond_span: tuple[int, int]
    then_body: list
    else_body: list


class Return(NamedTuple):
    """``return``, with or without a value."""

    line: int
    col: int
    span: tuple[int, int]
    value: object | None


# --- items -----------------------------------------------------------------


class Decorator(NamedTuple):
    """``@route(...)`` or ``@auth(...)`` on a function."""

    line: int
    col: int
    span: tuple[int, int]
    name: str  # "route" | "auth"
    args: list  # literals for route, Name for auth


class ConstDef(NamedTuple):
    """A top-level ``const NAME = literal``."""

    line: int
    col: int
    span: tuple[int, int]
    name: str
    value: object  # literal expression


class FuncDef(NamedTuple):
    """A function definition with its decorators, parameters and body."""

    line: int
    col: int
    span: tuple[int, int]
    name: str
    decorators: list[Decorator]
    params: list["Param"]
    body: list


class Param(NamedTuple):
    """One function parameter."""

    line: int
    col: int
    span: tuple[int, int]
    name: str


class MiniSrvAst(NamedTuple):
    """Parsed source file: a list of const and function definitions."""

    file: str
    text: str
    items: list

    def functions(self) -> list[FuncDef]:
        return [i for i in self.items if isinstance(i, FuncDef)]

    def consts(self) -> list[ConstDef]:
        return [i for i in self.items if isinstance(i, ConstDef)]
