"""Reference code the constraint tests check ``privflow.constraints``
against: a concrete evaluator for ``check_sat``'s witnesses and the JSON
encoder that ``constraint_from_json`` round-trips (privflow only decodes
constraints, from remote-reasoner replies)."""

from __future__ import annotations

import operator

from privflow.constraints import (
    And,
    BoolConst,
    BoolVar,
    ConstCmp,
    ConstraintError,
    Not,
    Or,
    PathConstraint,
    VarCmp,
)

OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class MissingVariable(Exception):
    pass


def eval_witness(c: PathConstraint, assignment: dict) -> bool:
    """Concretely evaluate the formula under a full assignment."""
    for name, _ in c.variables:
        if name not in assignment:
            raise MissingVariable(name)

    def ev(f) -> bool:
        if isinstance(f, ConstCmp):
            return OPS[f.op](assignment[f.var], f.value)
        if isinstance(f, VarCmp):
            return OPS[f.op](assignment[f.left], assignment[f.right])
        if isinstance(f, BoolVar):
            return bool(assignment[f.var])
        if isinstance(f, BoolConst):
            return f.value
        if isinstance(f, And):
            return all(ev(i) for i in f.items)
        if isinstance(f, Or):
            return any(ev(i) for i in f.items)
        if isinstance(f, Not):
            return not ev(f.item)
        raise ConstraintError(f"unsupported formula node {f!r}")

    return ev(c.formula)


def formula_to_json(f, types: dict[str, str]) -> list:
    """The reply-format form of a formula; ``types`` gives a variable
    comparison its tag."""
    if isinstance(f, ConstCmp):
        return ["int_cmp" if f.sort == "int" else "str_lit_cmp", f.var, f.op, f.value]
    if isinstance(f, VarCmp):
        return ["int_var_cmp" if types[f.left] == "int" else "str_var_cmp", f.left, f.op, f.right]
    if isinstance(f, BoolVar):
        return ["bool_var", f.var]
    if isinstance(f, BoolConst):
        return ["bool_const", f.value]
    if isinstance(f, And):
        return ["and"] + [formula_to_json(i, types) for i in f.items]
    if isinstance(f, Or):
        return ["or"] + [formula_to_json(i, types) for i in f.items]
    if isinstance(f, Not):
        return ["not", formula_to_json(f.item, types)]
    raise ConstraintError(f"unsupported formula node {f!r}")


def constraint_to_json(c: PathConstraint) -> dict:
    return {
        "variables": [{"name": n, "type": t} for n, t in c.variables],
        "formula": formula_to_json(c.formula, c.var_types()),
    }

