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
    line: int
    col: int
    span: tuple[int, int]  # (start offset, end offset) in the source text
    value: int


class StrLit(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    value: str


class BoolLit(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    value: bool


class Name(NamedTuple):
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
    line: int
    col: int
    span: tuple[int, int]
    callee: str  # the called path as written, e.g. "update_role" or "request.param"
    args: list  # list of expressions


class BinOp(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    op: str
    lhs: object
    rhs: object


# --- statements ------------------------------------------------------------


class Assign(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    target: str
    value: object


class CallStmt(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    call: Call


class If(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    cond: object
    cond_span: tuple[int, int]
    then_body: list
    else_body: list


class Return(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    value: object | None


# --- items -----------------------------------------------------------------


class Decorator(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    name: str  # "route" | "auth"
    args: list  # literals for route, Name for auth


class ConstDef(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    name: str
    value: object  # literal expression


class FuncDef(NamedTuple):
    line: int
    col: int
    span: tuple[int, int]
    name: str
    decorators: list[Decorator]
    params: list["Param"]
    body: list


class Param(NamedTuple):
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
