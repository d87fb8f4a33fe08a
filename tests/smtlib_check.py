"""A syntax check for the SMT-LIB text ``constraints.emit_smtlib`` writes.

The tests use it to confirm that emitted files are well-formed against the
subset the engine produces, so an external solver could read them.
"""

import re


def validate_smtlib(text: str) -> list[str]:
    """Syntax-check SMT-LIB text produced for external solvers.

    Returns a list of problems; empty means well-formed against the subset
    this engine emits (declare-const / assert / check-sat over Int, String
    and Bool with the core boolean and comparison operators). A quoted
    symbol ``|x|`` is the symbol ``x``; a declared name must be a simple
    or quoted symbol that SMT-LIB 2.6 neither reserves nor predefines.
    """
    problems: list[str] = []
    try:
        forms = _parse_sexprs(text)
    except ValueError as exc:
        return [str(exc)]

    declared: dict[str, str] = {}
    saw_check_sat = False
    for form in forms:
        if not isinstance(form, list) or not form:
            problems.append(f"top-level form must be a list: {form!r}")
            continue
        head = form[0]
        if head == "declare-const":
            if len(form) != 3 or not isinstance(form[1], str) or form[2] not in ("Int", "String", "Bool"):
                problems.append(f"bad declare-const: {form!r}")
                continue
            if not isinstance(form[1], Quoted) and not _SIMPLE_SYMBOL.fullmatch(form[1]):
                problems.append(f"{form[1]!r} is not a symbol")
            if form[1] in _TAKEN:
                problems.append(f"declaration of reserved or predefined symbol {form[1]!r}")
            if form[1] in declared:
                problems.append(f"duplicate declaration of {form[1]}")
            declared[form[1]] = form[2]
        elif head == "assert":
            if len(form) != 2:
                problems.append(f"assert takes one term: {form!r}")
                continue
            problems.extend(_check_term(form[1], declared))
        elif head == "check-sat":
            if len(form) != 1:
                problems.append("check-sat takes no arguments")
            saw_check_sat = True
        else:
            problems.append(f"unknown command {head!r}")
    if not saw_check_sat:
        problems.append("missing (check-sat)")
    return problems


class Quoted(str):
    """A symbol written between bars, held without them."""


_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_+=<>.?/-][0-9A-Za-z~!@$%^&*_+=<>.?/-]*")

# SMT-LIB 2.6 reserved words and command names, and the symbols of the Core,
# Ints and Strings theories.
_TAKEN = frozenset(
    """
    ! _ as BINARY DECIMAL HEXADECIMAL NUMERAL STRING exists forall let match par
    assert check-sat check-sat-assuming declare-const declare-datatype declare-datatypes declare-fun
    declare-sort define-fun define-fun-rec define-funs-rec define-sort echo exit get-assertions
    get-assignment get-info get-model get-option get-proof get-unsat-assumptions get-unsat-core get-value
    pop push reset reset-assertions set-info set-logic set-option
    Bool true false not => and or xor = distinct ite
    Int - + * div mod abs <= < >= >
    String RegLan char str.++ str.len str.< str.<= str.at str.substr str.prefixof str.suffixof
    str.contains str.indexof str.replace str.replace_all str.replace_re str.replace_re_all str.is_digit
    str.to_code str.from_code str.to_int str.from_int str.to_re str.in_re re.none re.all re.allchar
    re.++ re.union re.inter re.* re.comp re.diff re.+ re.opt re.range re.^ re.loop
    """.split()
)

_OPERATORS = {
    "=": 2,
    "distinct": 2,
    "<": 2,
    "<=": 2,
    ">": 2,
    ">=": 2,
    "not": 1,
    "and": 2,
    "or": 2,
}


def _check_term(term, declared: dict[str, str]) -> list[str]:
    problems: list[str] = []
    if isinstance(term, str):
        if term in ("true", "false"):
            return []
        if not isinstance(term, Quoted) and (term.startswith('"') or term.isdigit()):
            return []
        if term not in declared:
            problems.append(f"undeclared symbol {term!r}")
        return problems
    if not isinstance(term, list) or not term:
        return [f"malformed term {term!r}"]
    head = term[0]
    if head == "-" and len(term) == 2 and isinstance(term[1], str) and not isinstance(term[1], Quoted) and term[1].isdigit():
        return []  # a negative integer constant
    if head not in _OPERATORS:
        return [f"unknown operator {head!r}"]
    if len(term) - 1 < _OPERATORS[head]:
        problems.append(f"operator {head!r} needs at least {_OPERATORS[head]} arguments")
    for arg in term[1:]:
        problems.extend(_check_term(arg, declared))
    return problems


def _parse_sexprs(text: str) -> list:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise ValueError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ValueError("unterminated quoted symbol")
            if "\\" in text[i + 1 : j]:
                raise ValueError("backslash in quoted symbol")
            tokens.append(Quoted(text[i + 1 : j]))
            i = j + 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"|':
                j += 1
            tokens.append(text[i:j])
            i = j

    forms: list = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(" and not isinstance(tok, Quoted):
            stack.append([])
        elif tok == ")" and not isinstance(tok, Quoted):
            if not stack:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            (stack[-1] if stack else forms).append(tok)
    if stack:
        raise ValueError("unbalanced '('")
    return forms
