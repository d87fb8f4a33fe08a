"""Reference code the constraint tests check ``privflow.constraints``
against: a concrete evaluator for ``check_sat``'s witnesses and the JSON
encoder that ``constraint_from_json`` round-trips (privflow only decodes
constraints, from remote-reasoner replies)."""

from __future__ import annotations

from privflow.constraints import (
    And,
    BoolConst,
    BoolVar,
    ConstraintError,
    IntCmp,
    IntVarCmp,
    Not,
    Or,
    PathConstraint,
    StrLitCmp,
    StrVarCmp,
)


class MissingVariable(Exception):
    pass


def eval_witness(c: PathConstraint, assignment: dict) -> bool:
    """Concretely evaluate the formula under a full assignment."""
    for name, _ in c.variables:
        if name not in assignment:
            raise MissingVariable(name)

    def ev(f) -> bool:
        if isinstance(f, IntCmp):
            x = assignment[f.var]
            return {
                "==": x == f.value,
                "!=": x != f.value,
                "<": x < f.value,
                "<=": x <= f.value,
                ">": x > f.value,
                ">=": x >= f.value,
            }[f.op]
        if isinstance(f, IntVarCmp):
            same = assignment[f.left] == assignment[f.right]
            return same if f.op == "==" else not same
        if isinstance(f, StrLitCmp):
            same = assignment[f.var] == f.value
            return same if f.op == "==" else not same
        if isinstance(f, StrVarCmp):
            same = assignment[f.left] == assignment[f.right]
            return same if f.op == "==" else not same
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


def formula_to_json(f) -> list:
    if isinstance(f, IntCmp):
        return ["int_cmp", f.var, f.op, f.value]
    if isinstance(f, IntVarCmp):
        return ["int_var_cmp", f.left, f.op, f.right]
    if isinstance(f, StrLitCmp):
        return ["str_lit_cmp", f.var, f.op, f.value]
    if isinstance(f, StrVarCmp):
        return ["str_var_cmp", f.left, f.op, f.right]
    if isinstance(f, BoolVar):
        return ["bool_var", f.var]
    if isinstance(f, BoolConst):
        return ["bool_const", f.value]
    if isinstance(f, And):
        return ["and"] + [formula_to_json(i) for i in f.items]
    if isinstance(f, Or):
        return ["or"] + [formula_to_json(i) for i in f.items]
    if isinstance(f, Not):
        return ["not", formula_to_json(f.item)]
    raise ConstraintError(f"unsupported formula node {f!r}")


def constraint_to_json(c: PathConstraint) -> dict:
    return {
        "variables": [{"name": n, "type": t} for n, t in c.variables],
        "formula": formula_to_json(c.formula),
    }

