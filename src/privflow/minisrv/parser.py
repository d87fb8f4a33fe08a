"""Recursive-descent parser for MiniSrv (see docs/minisrv.md).

No error recovery: the first token or grammar violation raises ParseError.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..model import Location
from .nodes import (
    Assign,
    BinOp,
    BoolLit,
    Call,
    ConstDef,
    Decorator,
    FuncDef,
    If,
    IntLit,
    Member,
    MiniSrvAst,
    Name,
    Param,
    Return,
    StrLit,
    locate,
)

KEYWORDS = {"const", "fn", "if", "else", "return", "true", "false"}
PUNCT = ("==", "!=", "<=", ">=", "&&", "||", "@", "(", ")", "{", "}", ",", ".", "=", "<", ">", "+")
DECORATOR_NAMES = {"route", "auth"}

#: The deepest nesting a source may hold. Each pair of parentheses, each
#: ``if``'s branches and each binary operator's operands sit one level
#: deeper than what encloses them (docs/minisrv.md), so bounding the levels
#: bounds the recursion of the parser and of every walk over the nodes it
#: builds.
MAX_DEPTH = 64

#: The binary operators, loosest binding first, each with whether it chains
#: left-associatively (``a + b + c``); a comparison takes one operator.
BINARY_OPERATORS = (
    (("||",), True),
    (("&&",), True),
    (("==", "!=", "<", "<=", ">", ">="), False),
    (("+",), True),
)


class ParseError(Exception):
    def __init__(self, location: Location, message: str, expected: str = ""):
        self.location = location
        self.message = message
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{location}: {message}{suffix}")


class Token(NamedTuple):
    """One lexeme with its 1-based position and its half-open offsets."""

    kind: str  # "ident" | "int" | "string" | punctuation text | "eof"
    text: str
    line: int
    col: int
    start: int
    end: int


#: Every lexeme after a run of blanks, one group per lexeme class (the
#: ASCII grammar of docs/minisrv.md); ``lastindex`` names the group that
#: matched, and each group ends where the match ends. Newlines and
#: comments make no token; ``\Z`` ends the input.
_NEWLINE, _COMMENT, _END, _STRING, _INT, _IDENT, _PUNCT = range(1, 8)
_LEXEME_RE = re.compile(
    r'[ \t\r]*(?:(\n)|(//[^\n]*)|(\Z)|("[^"\n]*")|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|('
    + "|".join(re.escape(p) for p in PUNCT)
    + "))"
)
_KINDS = {_STRING: "string", _INT: "int", _IDENT: "ident"}


def _tokenize(text: str, file: str) -> tuple[list[Token], list[int]]:
    """The tokens of ``text`` and its line table, the offset at which each
    line starts; ``\\n`` is the one line break."""
    tokens: list[Token] = []
    lines = [0]
    new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__
    match = _LEXEME_RE.match
    pos = line_start = 0
    line = 1
    while True:
        m = match(text, pos)
        if m is None:
            bad = len(text) - len(text[pos:].lstrip(" \t\r"))
            where = Location(file, line, bad - line_start + 1)
            if text[bad] == '"':
                raise ParseError(where, "unterminated string literal", '"')
            raise ParseError(where, f"unexpected character {text[bad]!r}")
        group = m.lastindex
        start, pos = m.span(group)
        if group >= _STRING:
            lexeme = text[start:pos]
            tokens.append(new(Token, (_KINDS.get(group, lexeme), lexeme, line, start - line_start + 1, start, pos)))
        elif group == _NEWLINE:
            line += 1
            line_start = pos
            lines.append(pos)
        elif group == _END:
            tokens.append(Token("eof", "", line, pos - line_start + 1, pos, pos))
            return tokens, lines


class _Parser:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.tokens, self.lines = _tokenize(text, file)
        self.kinds = [t.kind for t in self.tokens]  # what ``at`` and ``expr`` read, one list index per test
        self.pos = 0
        self.depth = 0  # the levels that enclose the current token
        self.peak = 0  # the deepest level reached in the innermost ``expr`` call

    # -- token plumbing ------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, expected: str = "", tok: Token | None = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(Location(self.file, tok.line, tok.col), message, expected)

    def eat(self, kind: str, expected: str | None = None) -> Token:
        tok = self.cur
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise self.error(f"unexpected {shown!r}", expected or kind)
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "ident" and self.cur.text == word

    def consumed_end(self) -> int:
        """The end offset of the last token consumed. A node that ends
        with a parenthesised operand ends here, at its ``)``, not where
        the operand's own node ends."""
        return self.tokens[self.pos - 1].end

    def reach(self, depth: int, tok: Token) -> None:
        """Note that what is parsed at ``tok`` sits ``depth`` levels deep."""
        if depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", tok=tok)
        if depth > self.peak:
            self.peak = depth

    def open_level(self, tok: Token) -> None:
        """Enter one more level at ``tok``; the caller leaves it with
        ``self.depth -= 1``."""
        self.depth += 1
        self.reach(self.depth, tok)

    def comma_list(self, item) -> tuple[list, Token]:
        """``"(" (item ("," item)*)? ")"``: the items, each parsed by
        ``item()``, and the closing token."""
        self.open_level(self.eat("(", "'('"))
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.pos += 1
                items.append(item())
        close = self.eat(")", "')'")
        self.depth -= 1
        return items, close

    # -- grammar -------------------------------------------------------

    def parse_file(self) -> MiniSrvAst:
        items: list = []
        while not self.at("eof"):
            if self.at_keyword("const"):
                items.append(self.const_def())
            elif self.at("@") or self.at_keyword("fn"):
                items.append(self.func_def())
            else:
                raise self.error(f"unexpected {self.cur.text!r}", "'const', 'fn' or a decorator")
        return MiniSrvAst(self.file, self.text, items, self.lines)

    def const_def(self) -> ConstDef:
        kw = self.eat("ident")  # const
        name = self.eat("ident", "constant name")
        if name.text in KEYWORDS:
            raise self.error("keyword cannot name a constant", "identifier", name)
        self.eat("=", "'='")
        value = self.literal()
        return ConstDef((kw.start, value.span[1]), name.text, value)

    def func_def(self) -> FuncDef:
        decorators = []
        while self.at("@"):
            decorators.append(self.decorator())
        fn = self.cur
        if not self.at_keyword("fn"):
            raise self.error(f"unexpected {self.cur.text!r}", "'fn'")
        self.pos += 1
        name = self.eat("ident", "function name")
        params, _ = self.comma_list(self.param)
        body, end = self.block()
        return FuncDef((fn.start, end), name.text, decorators, params, body)

    def param(self) -> Param:
        p = self.eat("ident", "parameter name")
        return Param((p.start, p.end), p.text)

    def decorator(self) -> Decorator:
        at = self.eat("@")
        name = self.eat("ident", "decorator name")
        if name.text not in DECORATOR_NAMES:
            raise self.error(f"unknown decorator {name.text!r}", "'route' or 'auth'", name)
        args, close = self.comma_list(self.decorator_arg)
        dec = Decorator((at.start, close.end), name.text, args)
        self._check_decorator(dec)
        return dec

    def _check_decorator(self, dec: Decorator) -> None:
        if dec.name == "route":
            ok = len(dec.args) == 2 and all(isinstance(a, StrLit) for a in dec.args)
            path = dec.args[1].value if ok else ""
            if not path.startswith("/"):
                message = (
                    "@route takes (method, path) string literals" if not ok
                    else "@route path must be non-empty" if not path
                    else f"@route path must start with '/', got {path!r}"
                )
                raise ParseError(locate(self.file, self.lines, dec.span[0]), message, '@route("METHOD", "/path")')
        else:  # auth
            ok = len(dec.args) == 1 and isinstance(dec.args[0], Name)
            if not ok:
                raise ParseError(
                    locate(self.file, self.lines, dec.span[0]),
                    "@auth takes one check-function name",
                    "@auth(check_fn)",
                )

    def decorator_arg(self):
        tok = self.cur
        if tok.kind in ("int", "string") or tok.text in ("true", "false"):
            return self.literal()
        if tok.kind == "ident":
            self.pos += 1
            return Name((tok.start, tok.end), tok.text)
        raise self.error(f"unexpected {tok.text!r}", "literal or identifier")

    def block(self) -> tuple[list, int]:
        self.eat("{", "'{'")
        stmts = []
        while not self.at("}"):
            if self.at("eof"):
                raise self.error("unexpected end of input", "'}'")
            stmts.append(self.statement())
        close = self.eat("}")
        return stmts, close.end

    def statement(self):
        if self.at_keyword("if"):
            return self.if_stmt()
        if self.at_keyword("return"):
            return self.return_stmt()
        if self.at("ident") and self.cur.text not in KEYWORDS:
            # assignment (IDENT '=') or a bare call statement
            if self.kinds[self.pos + 1] == "=":  # an identifier is never the last token
                target = self.eat("ident")
                self.eat("=")
                value = self.expr()
                return Assign((target.start, self.consumed_end()), target.text, value)
            return self.path_call(require_call=True)
        raise self.error(f"unexpected {self.cur.text or 'end of input'!r}", "statement")

    def if_stmt(self) -> If:
        kw = self.cur
        self.pos += 1
        cond = self.expr()
        self.open_level(kw)  # the branches sit one level deeper than the guard
        then_body, end = self.block()
        else_body: list = []
        if self.at_keyword("else"):
            self.pos += 1
            else_body, end = self.block()
        self.depth -= 1
        return If((kw.start, end), cond, then_body, else_body)

    def return_stmt(self) -> Return:
        kw = self.cur
        self.pos += 1
        if self.cur.kind in ("int", "string") or self.at("(") or (
            self.at("ident") and self.cur.text not in (KEYWORDS - {"true", "false"})
        ):
            value = self.expr()
            return Return((kw.start, self.consumed_end()), value)
        return Return((kw.start, kw.end), None)

    def expr(self, level: int = 0):
        """An expression whose operators bind at ``BINARY_OPERATORS[level]``
        or tighter, as a left-deep BinOp tree. Each operator puts the
        operands before it one level deeper than they were. A BinOp's span
        runs from its first token to its last, so it holds the parentheses
        of an operand at either end."""
        if level == len(BINARY_OPERATORS):
            return self.primary()
        ops, chains = BINARY_OPERATORS[level]
        outer_peak, self.peak = self.peak, self.depth
        start = self.cur.start
        node = self.expr(level + 1)
        while self.kinds[self.pos] in ops:
            op = self.cur
            self.pos += 1
            self.reach(self.peak + 1, op)
            self.depth += 1
            rhs = self.expr(level + 1)
            self.depth -= 1
            node = BinOp((start, self.consumed_end()), op.kind, node, rhs)
            if not chains:
                break
        if outer_peak > self.peak:
            self.peak = outer_peak
        return node

    def primary(self):
        tok = self.cur
        if tok.kind in ("int", "string") or tok.text in ("true", "false"):
            return self.literal()
        if tok.kind == "(":
            self.pos += 1
            self.open_level(tok)
            node = self.expr()
            self.eat(")", "')'")
            self.depth -= 1
            return node
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            return self.path_call(require_call=False)
        raise self.error(f"unexpected {tok.text or 'end of input'!r}", "expression")

    def literal(self):
        tok = self.cur
        if tok.kind == "int":
            self.pos += 1
            return IntLit((tok.start, tok.end), int(tok.text))
        if tok.kind == "string":
            self.pos += 1
            return StrLit((tok.start, tok.end), tok.text[1:-1])
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.pos += 1
            return BoolLit((tok.start, tok.end), tok.text == "true")
        raise self.error(f"unexpected {tok.text!r}", "literal")

    def path_call(self, require_call: bool):
        """Parse ``ident(.ident)*`` optionally followed by a call."""
        first = self.eat("ident")
        parts = [first.text]
        end = first.end
        while self.at("."):
            self.pos += 1
            attr = self.eat("ident", "attribute name")
            parts.append(attr.text)
            end = attr.end
        if self.at("("):
            args, close = self.comma_list(self.expr)
            return Call((first.start, close.end), ".".join(parts), args)
        if require_call:
            raise self.error(f"unexpected {self.cur.text or 'end of input'!r}", "'(' or '='")
        if len(parts) == 1:
            return Name((first.start, end), parts[0])
        return Member((first.start, end), parts[0], tuple(parts[1:]))


def parse_source(text: str, file: str) -> MiniSrvAst:
    """Parse MiniSrv source text; raises ParseError on the first violation."""
    return _Parser(text, file).parse_file()


def parse_expression(text: str, file: str = "<expr>"):
    """Parse a standalone MiniSrv expression (used for guard translation)."""
    parser = _Parser(text, file)
    expr = parser.expr()
    if not parser.at("eof"):
        raise parser.error(f"trailing input {parser.cur.text!r}", "end of expression")
    return expr
