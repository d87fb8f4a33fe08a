"""AST node types for MiniSrv.

Every node's one position is ``span``, the half-open pair of character
offsets it covers in the original text, so lowering can emit verbatim
source slices. Its 1-based line and column come from the file's line
table (``MiniSrvAst.location``). Nodes are ``model.Record``s that only
store their fields; the lowering and the guard translator tell them apart
by type.
"""

from __future__ import annotations

from bisect import bisect_right

from ..model import Location, Record

# --- expressions -----------------------------------------------------------


class IntLit(Record):
    """An integer literal."""

    __slots__ = ("span", "value")


class StrLit(Record):
    """A string literal; ``value`` is its text without the quotes."""

    __slots__ = ("span", "value")


class BoolLit(Record):
    """``true`` or ``false``."""

    __slots__ = ("span", "value")


class Name(Record):
    """A bare identifier used as a value."""

    __slots__ = ("span", "ident")


class Member(Record):
    """Dotted path used as a value, e.g. ``order.user_id``; ``path`` holds
    the attributes after ``base``."""

    __slots__ = ("span", "base", "path")


class Call(Record):
    """A call, as an expression or as a statement; ``callee`` is the called
    path as written, e.g. ``update_role`` or ``request.param``."""

    __slots__ = ("span", "callee", "args")


class BinOp(Record):
    """A binary operation: a comparison, ``&&``, ``||`` or ``+``."""

    __slots__ = ("span", "op", "lhs", "rhs")


# --- statements ------------------------------------------------------------


class Assign(Record):
    """``target = value``."""

    __slots__ = ("span", "target", "value")


class If(Record):
    """A conditional with its guard expression and both branches."""

    __slots__ = ("span", "cond", "then_body", "else_body")


class Return(Record):
    """``return``, with a value or with None."""

    __slots__ = ("span", "value")


# --- items -----------------------------------------------------------------


class Decorator(Record):
    """``@route(...)`` or ``@auth(...)`` on a function; ``name`` is "route"
    or "auth", ``args`` two string literals for route and one Name for auth."""

    __slots__ = ("span", "name", "args")


class ConstDef(Record):
    """A top-level ``const NAME = literal``."""

    __slots__ = ("span", "name", "value")


class FuncDef(Record):
    """A function definition with its decorators, parameters and body."""

    __slots__ = ("span", "name", "decorators", "params", "body")


class Param(Record):
    """One function parameter."""

    __slots__ = ("span", "name")


class MiniSrvAst(Record):
    """Parsed source file: its const and function definitions, and its line
    table ``lines``, the offset at which each line starts."""

    __slots__ = ("file", "text", "items", "lines")

    def functions(self) -> list[FuncDef]:
        return [i for i in self.items if isinstance(i, FuncDef)]

    def consts(self) -> list[ConstDef]:
        return [i for i in self.items if isinstance(i, ConstDef)]

    def location(self, node) -> Location:
        return locate(self.file, self.lines, node.span[0])


def locate(file: str, lines: list[int], offset: int) -> Location:
    """The 1-based line and column of ``offset`` in a file whose lines
    start at the offsets ``lines``."""
    line = bisect_right(lines, offset)
    return Location(file, line, offset - lines[line - 1] + 1)
