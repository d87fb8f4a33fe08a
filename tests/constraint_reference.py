"""Reference code the constraint tests check ``privflow.constraints``
against: a concrete evaluator for ``check_sat``'s witnesses and for the
brute-force model searches."""

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
