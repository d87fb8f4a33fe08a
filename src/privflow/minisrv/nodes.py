"""AST node types for MiniSrv.

Every node remembers its 1-based (line, col) start position and the half-open
``span`` of byte offsets it covers in the original text, so lowering can emit
verbatim source slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    line: int
    col: int
    span: tuple[int, int]  # (start offset, end offset) in the source text


# --- expressions -----------------------------------------------------------


@dataclass
class IntLit(Node):
    value: int


@dataclass
class StrLit(Node):
    value: str


@dataclass
class BoolLit(Node):
    value: bool


@dataclass
class Name(Node):
    ident: str


@dataclass
class Member(Node):
    """Dotted path used as a value, e.g. ``order.user_id``."""

    base: str
    path: tuple[str, ...]  # attributes after the base


@dataclass
class Call(Node):
    callee: str  # the called path as written, e.g. "update_role" or "request.param"
    args: list  # list of expressions


@dataclass
class BinOp(Node):
    op: str
    lhs: object
    rhs: object


# --- statements ------------------------------------------------------------


@dataclass
class Assign(Node):
    target: str
    value: object


@dataclass
class CallStmt(Node):
    call: Call


@dataclass
class If(Node):
    cond: object
    cond_span: tuple[int, int]
    then_body: list
    else_body: list


@dataclass
class Return(Node):
    value: object | None


# --- items -----------------------------------------------------------------


@dataclass
class Decorator(Node):
    name: str  # "route" | "auth"
    args: list  # literals for route, Name for auth


@dataclass
class ConstDef(Node):
    name: str
    value: object  # literal expression


@dataclass
class FuncDef(Node):
    name: str
    decorators: list[Decorator]
    params: list["Param"]
    body: list


@dataclass
class Param(Node):
    name: str


@dataclass
class MiniSrvAst:
    """Parsed source file: a list of const and function definitions."""

    file: str
    text: str
    items: list = field(default_factory=list)

    def functions(self) -> list[FuncDef]:
        return [i for i in self.items if isinstance(i, FuncDef)]

    def consts(self) -> list[ConstDef]:
        return [i for i in self.items if isinstance(i, ConstDef)]
