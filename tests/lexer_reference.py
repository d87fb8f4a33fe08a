"""Reference code the lexer tests check ``privflow.minisrv.parser`` against:
the character-at-a-time MiniSrv tokenizer the one-regex lexer replaced,
kept unchanged. It differs from the parser's lexer in two known ways:
it reads Unicode digits and letters as ``int`` and ``ident`` characters
(the grammar is ASCII), and it leaves the end-of-input column at the start
of a trailing ``//`` comment."""

from __future__ import annotations

from privflow.minisrv.parser import PUNCT, ParseError, Token
from privflow.model import Location


def _tokenize(text: str, file: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start, start_line, start_col = i, line, col
        if ch == '"':
            i += 1
            while i < n and text[i] != '"' and text[i] != "\n":
                i += 1
            if i >= n or text[i] != '"':
                raise ParseError(Location(file, start_line, start_col), "unterminated string literal", '"')
            i += 1
            tok = Token("string", text[start:i], start_line, start_col, start, i)
        elif ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            tok = Token("int", text[start:i], start_line, start_col, start, i)
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tok = Token("ident", text[start:i], start_line, start_col, start, i)
        else:
            for p in PUNCT:
                if text.startswith(p, i):
                    i += len(p)
                    tok = Token(p, p, start_line, start_col, start, i)
                    break
            else:
                raise ParseError(Location(file, start_line, start_col), f"unexpected character {ch!r}")
        col = start_col + (i - start)
        tokens.append(tok)
    tokens.append(Token("eof", "", line, col, n, n))
    return tokens
