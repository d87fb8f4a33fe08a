import functools
import itertools
import random
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privflow.constraints import (
    And,
    BoolConst,
    BoolVar,
    ConstCmp,
    ConstraintError,
    Not,
    Or,
    PathConstraint,
    Sat,
    Unknown,
    Unsat,
    VarCmp,
    check_sat,
    EQ_OPS,
    INT_OPS,
    emit_smtlib,
    translate_guards,
)
from privflow.reasoner import (
    AssessSufficiency,
    CheckDescriptor,
    ClassifyCheck,
    ClassifyPrivileged,
    ConfirmUserSource,
    Memo,
)
from privflow.model import Record

from constraint_reference import OPS, MissingVariable, eval_witness
from smtlib_check import validate_smtlib

INT_DOMAIN = range(-8, 9)
STR_LITERALS = ("A", "B")


def c(variables, formula) -> PathConstraint:
    return PathConstraint(tuple(sorted(variables)), formula)


# --- random formula generation (seeded, reproducible) -------------------------

VAR_POOL = (("x", "int"), ("y", "int"), ("s", "string"), ("t", "string"), ("b", "bool"))


def random_constraint(rng: random.Random) -> PathConstraint:
    count = rng.randint(1, len(VAR_POOL))
    variables = tuple(sorted(rng.sample(VAR_POOL, count)))
    by_type: dict[str, list[str]] = {}
    for name, t in variables:
        by_type.setdefault(t, []).append(name)

    def atom():
        choices = []
        if "int" in by_type:
            choices.append("int_cmp")
            if len(by_type["int"]) == 2:
                choices.append("int_var")
        if "string" in by_type:
            choices.append("str_lit")
            if len(by_type["string"]) == 2:
                choices.append("str_var")
        if "bool" in by_type:
            choices.append("bool_var")
        choices.append("bool_const")
        kind = rng.choice(choices)
        if kind == "int_cmp":
            # constants stay in [-6, 6] so satisfiable formulas keep a
            # model inside the enumeration domain
            return ConstCmp(rng.choice(by_type["int"]), rng.choice(("==", "!=", "<", "<=", ">", ">=")), rng.randint(-6, 6))
        if kind == "int_var":
            return VarCmp(by_type["int"][0], rng.choice(("==", "!=")), by_type["int"][1])
        if kind == "str_lit":
            return ConstCmp(rng.choice(by_type["string"]), rng.choice(("==", "!=")), rng.choice(STR_LITERALS))
        if kind == "str_var":
            return VarCmp(by_type["string"][0], rng.choice(("==", "!=")), by_type["string"][1])
        if kind == "bool_var":
            return BoolVar(by_type["bool"][0])
        return BoolConst(rng.random() < 0.5)

    def tree(depth: int):
        if depth == 0 or rng.random() < 0.35:
            return atom()
        kind = rng.choice(("and", "or", "not"))
        if kind == "not":
            return Not(tree(depth - 1))
        items = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(items) if kind == "and" else Or(items)

    return PathConstraint(variables, tree(3))


def enumerate_models(constraint: PathConstraint):
    """Bounded brute-force: ints in [-8, 8], strings from the occurring
    literals plus fresh values (one per string variable), bools both ways."""
    domains = []
    names = []
    str_vars = [n for n, t in constraint.variables if t == "string"]
    fresh = tuple(f"~f{i}" for i in range(len(str_vars)))
    for name, t in constraint.variables:
        names.append(name)
        if t == "int":
            domains.append(tuple(INT_DOMAIN))
        elif t == "string":
            domains.append(STR_LITERALS + fresh)
        else:
            domains.append((False, True))
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        if eval_witness(constraint, assignment):
            yield assignment


class TestCheckSatExamples:
    def test_empty_conjunction_is_sat(self):
        result = check_sat(c((), And(())))
        assert isinstance(result, Sat)

    def test_contradictory_int_equalities(self):
        constraint = c([("x", "int")], And((ConstCmp("x", "==", 1), ConstCmp("x", "==", 2))))
        assert isinstance(check_sat(constraint), Unsat)

    def test_contradictory_string_literals(self):
        constraint = c(
            [("mode", "string")],
            And((ConstCmp("mode", "==", "A"), ConstCmp("mode", "==", "B"))),
        )
        assert isinstance(check_sat(constraint), Unsat)

    def test_string_disequalities_always_satisfiable(self):
        constraint = c(
            [("s", "string"), ("t", "string")],
            And(
                (
                    ConstCmp("s", "!=", "A"),
                    ConstCmp("s", "!=", "B"),
                    ConstCmp("t", "!=", "A"),
                    VarCmp("s", "!=", "t"),
                )
            ),
        )
        result = check_sat(constraint)
        assert isinstance(result, Sat)
        assert eval_witness(constraint, result.witness)

    def test_tight_interval_disequality(self):
        # x in [0,1], y pinned to 0, x != y: only x=1 works
        constraint = c(
            [("x", "int"), ("y", "int")],
            And(
                (
                    ConstCmp("x", ">=", 0),
                    ConstCmp("x", "<=", 1),
                    ConstCmp("y", "==", 0),
                    VarCmp("x", "!=", "y"),
                )
            ),
        )
        result = check_sat(constraint)
        assert isinstance(result, Sat)
        assert result.witness["x"] == 1

    def test_pigeonhole_unsat(self):
        # three pairwise-distinct ints in a two-value interval
        atoms = [ConstCmp(v, ">=", 0) for v in "xyz"] + [ConstCmp(v, "<=", 1) for v in "xyz"]
        atoms += [VarCmp("x", "!=", "y"), VarCmp("x", "!=", "z"), VarCmp("y", "!=", "z")]
        constraint = c([("x", "int"), ("y", "int"), ("z", "int")], And(tuple(atoms)))
        assert isinstance(check_sat(constraint), Unsat)

    def test_cube_overflow_is_unknown(self):
        pairs = tuple(Or((ConstCmp("x", "==", i), ConstCmp("x", "==", -i))) for i in range(1, 14))
        constraint = c([("x", "int")], And(pairs))
        assert isinstance(check_sat(constraint), Unknown)

    def test_undeclared_variable_rejected(self):
        """A constraint validates itself when built, before any check."""
        with pytest.raises(ConstraintError):
            c((), BoolVar("ghost"))

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConstraintError):
            c([("x", "string")], ConstCmp("x", "==", 1))

    @pytest.mark.parametrize(
        "variables, formula, message",
        [
            ((("x", "float"),), And(()), "variable 'x' has unsupported type 'float'"),
            ((("n", "int"),), ConstCmp("n", "~", 1), "bad int operator '~'"),
            ((("m", "int"), ("n", "int")), VarCmp("m", "<", "n"), "variables compare only with ==/!=, got '<'"),
            ((("x", "int"),), ConstCmp("x", "==", 1.5), "unsupported constant 1.5"),
            ((("x", "int"),), "junk", "unsupported formula node 'junk'"),
        ],
        ids=["unsupported_type", "bad_operator", "ordered_var_cmp", "unsupported_constant", "unknown_node"],
    )
    def test_invalid_constraint_rejected(self, variables, formula, message):
        """Each way a constraint leaves the fragment raises one
        ``ConstraintError`` when it is built, and says why."""
        with pytest.raises(ConstraintError) as err:
            PathConstraint(variables, formula)
        assert str(err.value) == message

    def test_negation_normalization(self):
        constraint = c([("x", "int")], Not(Or((ConstCmp("x", "<", 5), ConstCmp("x", ">", 5)))))
        result = check_sat(constraint)
        assert isinstance(result, Sat)
        assert result.witness["x"] == 5


class TestRandomAgreement:
    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(20240817)
        unknowns = 0
        for _ in range(60):
            constraint = random_constraint(rng)
            verdict = check_sat(constraint)
            if isinstance(verdict, Unknown):
                unknowns += 1
                continue
            oracle_sat = next(iter(enumerate_models(constraint)), None) is not None
            assert isinstance(verdict, Sat) == oracle_sat, f"disagree on {constraint}"
            if isinstance(verdict, Sat):
                assert eval_witness(constraint, verdict.witness)
        assert unknowns < 60


class TestEvalWitness:
    def test_basic(self):
        constraint = c([("x", "int")], ConstCmp("x", "==", 1))
        assert eval_witness(constraint, {"x": 1})
        assert not eval_witness(constraint, {"x": 2})

    def test_conjunction(self):
        constraint = c(
            [("x", "int"), ("y", "string")],
            And((ConstCmp("x", "==", 1), ConstCmp("y", "!=", "a"))),
        )
        assert not eval_witness(constraint, {"x": 1, "y": "a"})
        assert eval_witness(constraint, {"x": 1, "y": "b"})

    def test_missing_variable(self):
        constraint = c([("x", "int")], ConstCmp("x", "==", 1))
        with pytest.raises(MissingVariable):
            eval_witness(constraint, {})


class TestEmit:
    def test_single_int_equality_layout(self):
        text = emit_smtlib(c([("x", "int")], ConstCmp("x", "==", 1)))
        assert text == "(declare-const x Int)\n(assert (= x 1))\n(check-sat)\n"

    def test_negative_constant_is_a_negated_numeral(self):
        text = emit_smtlib(c([("x", "int")], ConstCmp("x", "<", -3)))
        assert text == "(declare-const x Int)\n(assert (< x (- 3)))\n(check-sat)\n"

    def test_mixed_sorts_declared(self):
        constraint = c(
            [("n", "int"), ("mode", "string"), ("ok", "bool")],
            And((ConstCmp("n", ">", 0), ConstCmp("mode", "==", "A"), BoolVar("ok"))),
        )
        text = emit_smtlib(constraint)
        assert "(declare-const mode String)" in text
        assert "(declare-const n Int)" in text
        assert "(declare-const ok Bool)" in text
        assert text.count("(assert ") == 3
        assert text.rstrip().endswith("(check-sat)")

    def test_empty_conjunction(self):
        assert emit_smtlib(c((), And(()))) == "(check-sat)\n"

    def test_deterministic(self):
        constraint = c([("x", "int")], Or((ConstCmp("x", "<", 3), Not(ConstCmp("x", "!=", 9)))))
        assert emit_smtlib(constraint) == emit_smtlib(constraint)

    def test_string_escaping(self):
        constraint = c([("s", "string")], ConstCmp("s", "==", 'say "hi"'))
        text = emit_smtlib(constraint)
        assert '"say ""hi"""' in text
        assert validate_smtlib(text) == []

    def test_taken_and_odd_names_are_quoted(self):
        """A name SMT-LIB reserves or predefines, or one that is no simple
        symbol, is declared and used as ``|v:NAME|``; the rest keep their
        name, and distinct names stay distinct symbols."""
        names = ["let", "not", "and", "ite", "mod", "Int", "v:let", "a b", "1x", "@x", "str.len", "x", "ok?"]
        constraint = c([(n, "string") for n in names], And(tuple(ConstCmp(n, "!=", "q") for n in names)))
        text = emit_smtlib(constraint)
        assert validate_smtlib(text) == []
        for name in ("let", "not", "and", "ite", "mod", "Int", "v:let", "a b", "1x", "@x", "str.len"):
            assert f"(declare-const |v:{name}| String)" in text
            assert f"(distinct |v:{name}| " in text
        assert "(declare-const x String)" in text and "(declare-const ok? String)" in text
        declared = [line.split()[1] for line in text.splitlines() if line.startswith("(declare-const")]
        assert len(set(declared)) == len(names)

    def test_bool_and_int_names_are_quoted(self):
        constraint = c([("or", "bool"), ("div", "int"), ("abs", "int")],
                       And((BoolVar("or"), VarCmp("div", "==", "abs"), ConstCmp("div", ">", 2))))
        text = emit_smtlib(constraint)
        assert validate_smtlib(text) == []
        assert "(assert |v:or|)\n(assert (= |v:div| |v:abs|))\n(assert (> |v:div| 2))\n" in text

    def test_emitted_text_passes_checker(self):
        rng = random.Random(7)
        for _ in range(25):
            constraint = random_constraint(rng)
            assert validate_smtlib(emit_smtlib(constraint)) == []


class TestSmtlibChecker:
    def test_negative_numeral_is_negation(self):
        """SMT-LIB numerals are non-negative: ``-3`` is a symbol."""
        assert any("undeclared" in p for p in validate_smtlib("(declare-const x Int)\n(assert (< x -3))\n(check-sat)"))
        assert validate_smtlib("(declare-const x Int)\n(assert (< x (- 3)))\n(check-sat)") == []

    def test_unbalanced(self):
        assert validate_smtlib("(check-sat")
        assert validate_smtlib("check-sat)")

    def test_undeclared_symbol(self):
        problems = validate_smtlib("(assert (= x 1))\n(check-sat)")
        assert any("undeclared" in p for p in problems)

    def test_missing_check_sat(self):
        problems = validate_smtlib("(declare-const x Int)")
        assert any("check-sat" in p for p in problems)

    def test_unknown_command(self):
        assert validate_smtlib("(push)\n(check-sat)")

    def test_bad_sort(self):
        assert validate_smtlib("(declare-const x Real)\n(check-sat)")

    def test_quoted_symbol_is_the_bare_symbol(self):
        assert validate_smtlib('(declare-const |v:let| String)\n(assert (= |v:let| "A"))\n(check-sat)') == []
        assert validate_smtlib("(declare-const x Int)\n(assert (= |x| 1))\n(check-sat)") == []
        assert any("duplicate" in p for p in validate_smtlib("(declare-const x Int)\n(declare-const |x| Int)\n(check-sat)"))

    def test_reserved_or_predefined_declaration(self):
        for name in ("let", "|let|", "not", "|not|", "distinct", "mod", "str.len", "Int"):
            problems = validate_smtlib(f"(declare-const {name} String)\n(check-sat)")
            assert any("reserved or predefined" in p for p in problems), name

    def test_malformed_symbols(self):
        assert validate_smtlib("(declare-const 1x Int)\n(check-sat)")
        assert validate_smtlib("(declare-const |x Int)\n(check-sat)")
        assert validate_smtlib("(declare-const |a\\b| Int)\n(check-sat)")


MODE = (("mode", "string"),)


class TestGuardTranslation:
    def test_two_string_guards_conjoin(self):
        constraint = translate_guards((('mode == "A"', MODE), ('mode == "B"', MODE)))
        assert constraint is not None
        assert isinstance(check_sat(constraint), Unsat)

    def test_numeric_and_boolean_guards(self):
        guards = (("n > 3 && n < 9", (("n", "int"),)), ("active == true", (("active", "bool"),)))
        result = check_sat(translate_guards(guards))
        assert isinstance(result, Sat)
        assert 3 < result.witness["n"] < 9
        assert result.witness["active"] is True

    def test_parenthesized_disjunction(self):
        constraint = translate_guards((('(m == "A") || n == 1', (("m", "string"), ("n", "int"))),))
        assert constraint.formula == And((Or((ConstCmp("m", "==", "A"), ConstCmp("n", "==", 1))),))

    def test_call_in_guard_is_a_fresh_atom(self):
        """A call is outside the fragment: it becomes a boolean atom named
        by its guard's index and its offset in that guard's source."""
        constraint = translate_guards((("is_admin(u)", ()),))
        assert constraint == PathConstraint((("g0@0", "bool"),), And((BoolVar("g0@0"),)))

    def test_contradiction_beside_a_call_is_unsat(self):
        """A call no longer hides its neighbours: ``mode`` cannot be both
        ``"A"`` and ``"B"`` whatever ``well_formed`` returns."""
        constraint = translate_guards((("well_formed(cmd)", ()), ('mode == "A"', MODE), ('mode == "B"', MODE)))
        assert constraint.variables == (("g0@0", "bool"), ("mode", "string"))
        assert isinstance(check_sat(constraint), Unsat)

    def test_member_path_is_a_variable(self):
        """A member path is a variable named by its dotted path, typed by
        what it is compared with, as a bare name is."""
        constraint = translate_guards((("order.user_id == current", (("current", "string"),)),))
        assert constraint.formula == And((VarCmp("order.user_id", "==", "current"),))
        assert constraint.var_types() == {"current": "string", "order.user_id": "string"}
        constraint = translate_guards((('order.status == "PAID"', ()), ('order.status != "PAID"', ())))
        assert constraint.var_types() == {"order.status": "string"}
        assert isinstance(check_sat(constraint), Unsat)
        assert translate_guards((("order.user_id == current", ()),)).variables == (("g0@0", "bool"),)

    def test_untyped_var_pair_is_a_fresh_atom(self):
        assert translate_guards((("a == b", ()),)) == PathConstraint((("g0@0", "bool"),), And((BoolVar("g0@0"),)))

    def test_no_guards_is_true(self):
        constraint = translate_guards(())
        assert constraint == PathConstraint((), And(()))
        assert isinstance(check_sat(constraint), Sat)

    def test_bare_name_of_another_type_is_a_fresh_atom(self):
        """A bare name that is not a boolean says nothing the fragment can
        hold, and it declares no variable; a name typed by an earlier
        comparison keeps that type."""
        assert translate_guards((("n", (("n", "int"),)),)).variables == (("g0@0", "bool"),)
        constraint = translate_guards((("n == 1 && n", ()),))  # n is an int by then
        assert constraint == PathConstraint(
            (("g0@10", "bool"), ("n", "int")), And((And((ConstCmp("n", "==", 1), BoolVar("g0@10"))),))
        )

    def test_atoms_are_named_by_guard_and_offset(self):
        """Each part outside the fragment (a call, a ``+`` expression, an
        ordering of two variables, a comparison of the wrong type) is its
        own atom, named by its guard's index and its offset in that guard's
        source; the parts inside the fragment translate as before."""
        types = (("n", "int"), ("m", "int"), ("mode", "string"))
        constraint = translate_guards(
            (("ok(n) || n + 1 == 3", types), ('n < m && mode == 1 && mode != "A"', types), ("ok(n)", types))
        )
        assert constraint.formula == And(
            (
                Or((BoolVar("g0@0"), BoolVar("g0@9"))),
                And((And((BoolVar("g1@0"), BoolVar("g1@9"))), ConstCmp("mode", "!=", "A"))),
                BoolVar("g2@0"),
            )
        )
        assert [name for name, _ in constraint.variables] == ["g0@0", "g0@9", "g1@0", "g1@9", "g2@0", "mode"]

    def test_equal_guard_lists_translate_equal(self):
        """The translation reads only the sources and their declared types,
        so equal guard lists give equal constraints."""
        guards = (("is_admin(u)", ()), ("n > 2", (("n", "int"),)))
        assert translate_guards(guards) == translate_guards(tuple(map(tuple, guards)))

    def test_guard_that_does_not_parse_skips(self):
        assert translate_guards((("n ==", (("n", "int"),)), ("is_admin(u)", ()))) is None

    def test_var_type_hint_respected(self):
        constraint = translate_guards((("n == m", (("n", "int"), ("m", "int"))),))
        assert constraint is not None
        assert dict(constraint.variables) == {"n": "int", "m": "int"}


#: An authorization check, so an ``AssessSufficiency`` that holds it reaches
#: the backend behind a ``Memo``.
AUTHZ_CHECKS = (CheckDescriptor("authz", "role", "n", "s"),)


class Guard(Record):
    """A guard's source and its identifiers' declared types: the pair
    ``translate_guards`` reads, as a record."""

    __slots__ = ("source", "var_types")


#: Field-equal records of two types: formula nodes, checker results,
#: reasoner tasks and their descriptors.
FIELD_EQUAL_PAIRS = {
    "and-or": (And((BoolVar("a"), BoolVar("b"))), Or((BoolVar("a"), BoolVar("b")))),
    "const-var": (ConstCmp("x", "==", "y"), VarCmp("x", "==", "y")),
    "boolvar-not": (BoolVar("a"), Not("a")),
    "boolconst-not": (BoolConst(True), Not(True)),
    "unknown-boolvar": (Unknown("r"), BoolVar("r")),
    "source-guard": (ConfirmUserSource("a", ()), Guard("a", ())),
    "check-assess": (
        ClassifyCheck("a", "b", "c", AUTHZ_CHECKS, ()),
        AssessSufficiency("a", "b", "c", AUTHZ_CHECKS, ()),
    ),
    "privileged-descriptor": (ClassifyPrivileged("a", "b", "c", "d"), CheckDescriptor("a", "b", "c", "d")),
}


class TestRecordsKeepTheirType:
    """A formula node, a checker result, a reasoner task or a task's
    descriptor equals only a record of its own type. Otherwise
    ``And((a, b)) == Or((a, b))``, field-equal atoms of different shapes
    would share one dict key, and a memo would answer a task with the
    verdict of a field-equal task of another type."""

    @pytest.mark.parametrize("left, right", FIELD_EQUAL_PAIRS.values(), ids=FIELD_EQUAL_PAIRS.keys())
    def test_field_equal_records_of_two_types_differ(self, left, right):
        assert not left == right and left != right
        assert not right == left and right != left
        assert len({left: 1, right: 2}) == 2

    @pytest.mark.parametrize("left, right", FIELD_EQUAL_PAIRS.values(), ids=FIELD_EQUAL_PAIRS.keys())
    def test_equal_records_of_one_type_are_one_key(self, left, right):
        for record in (left, right):
            twin = type(record)(*(getattr(record, name) for name in record._fields))
            assert twin is not record and twin == record and not twin != record
            assert hash(twin) == hash(record) and len({record: 1, twin: 2}) == 1

    @pytest.mark.parametrize("pair", ["source-guard", "check-assess", "privileged-descriptor"])
    def test_memo_asks_both_records_of_a_field_equal_pair(self, pair):
        asked = []

        class Counting:
            def reason(self, task):
                asked.append(task)
                return f"verdict {len(asked)}"

        memo = Memo(Counting())
        left, right = FIELD_EQUAL_PAIRS[pair]
        assert [memo.reason(left), memo.reason(right), memo.reason(left), memo.reason(right)] == [
            "verdict 1", "verdict 2", "verdict 1", "verdict 2"
        ]
        assert [type(task) for task in asked] == [type(left), type(right)]

    def test_checker_results_differ(self):
        witness = {"x": 1}
        assert Sat(witness) != Unknown(witness)
        assert Unsat() != () and Unsat() != Unknown("")
        assert len({Unsat(): 1, Unknown("r"): 2, (): 3}) == 3
        assert Unsat() == Unsat() and hash(Unsat()) == hash(Unsat())


# --- soundness of the widened guard translation ------------------------------------

#: The variables the generated guards read, with their sorts. The bare names
#: are declared (``GUARD_HINTS``), so their sort is fixed; a member path is
#: typed by what it is compared with, and each is compared only within its
#: sort here.
GUARD_POOL = {"n": "int", "m": "int", "u.n": "int", "mode": "string", "s": "string", "order.user_id": "string", "ok": "bool"}
#: ``u`` is declared a string: a member path's base types nothing but itself.
GUARD_HINTS = (("m", "int"), ("mode", "string"), ("n", "int"), ("ok", "bool"), ("s", "string"), ("u", "string"))
DECLARED = {name for name, _ in GUARD_HINTS}
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
#: The brute-force domain of each sort: the generator's constants (1 and 3,
#: "A" and "B") each ±1 for ints, and one fresh value.
GUARD_DOMAINS = {"int": (0, 1, 2, 3, 4, 7), "string": ("A", "B", "fresh"), "bool": (False, True)}


class GuardPart(NamedTuple):
    """One comparison, bare variable, call or literal of a generated guard:
    its text, its fragment formula (None when it lies outside the
    fragment) and its truth in a world, given the world and the name of its
    atom (a call's truth is the world's value for that atom)."""

    text: str
    formula: object
    value: Callable


@st.composite
def guard_parts(draw, names: tuple[str, ...]) -> GuardPart:
    """A part over ``names``: inside the fragment, or a call, a ``+``
    expression, an ordering of two variables or a comparison of the wrong
    type."""
    by_sort = {sort: [n for n in names if GUARD_POOL[n] == sort] for sort in ("int", "string", "bool")}
    kinds = ["call", "literal"]
    if by_sort["int"]:
        kinds += ["int_cmp", "plus"]
    if by_sort["string"]:
        kinds.append("str_cmp")
    if by_sort["bool"]:
        kinds.append("bool")
    if any(len(by_sort[sort]) > 1 for sort in ("int", "string")):
        kinds.append("var_cmp")
    if len(by_sort["int"]) > 1:
        kinds.append("ordering")
    if set(names) & DECLARED:
        kinds.append("conflict")
    kind = draw(st.sampled_from(kinds))
    swap = draw(st.booleans())
    if kind == "call":
        return GuardPart(f"is_admin({draw(st.sampled_from(names))})", None, lambda w, atom: w[atom])
    if kind == "literal":
        value = draw(st.booleans())
        return GuardPart(str(value).lower(), BoolConst(value), lambda w, atom: value)
    if kind in ("int_cmp", "str_cmp"):
        var = draw(st.sampled_from(by_sort["int" if kind == "int_cmp" else "string"]))
        op = draw(st.sampled_from(INT_OPS if kind == "int_cmp" else EQ_OPS))
        const = draw(st.sampled_from((1, 3) if kind == "int_cmp" else ("A", "B")))
        shown = const if kind == "int_cmp" else f'"{const}"'
        if swap:
            return GuardPart(f"{shown} {op} {var}", ConstCmp(var, FLIPPED[op], const), lambda w, atom: OPS[op](const, w[var]))
        return GuardPart(f"{var} {op} {shown}", ConstCmp(var, op, const), lambda w, atom: OPS[op](w[var], const))
    if kind == "bool":
        if draw(st.booleans()):
            return GuardPart("ok", BoolVar("ok"), lambda w, atom: w["ok"])
        op, lit = draw(st.sampled_from(EQ_OPS)), draw(st.booleans())
        text = f"{str(lit).lower()} {op} ok" if swap else f"ok {op} {str(lit).lower()}"
        formula = BoolVar("ok") if (op == "==") == lit else Not(BoolVar("ok"))
        return GuardPart(text, formula, lambda w, atom: OPS[op](w["ok"], lit))
    if kind == "var_cmp":
        sort = draw(st.sampled_from([sort for sort in ("int", "string") if len(by_sort[sort]) > 1]))
        left, right = draw(st.permutations(by_sort[sort]))[:2]
        op = draw(st.sampled_from(EQ_OPS))
        return GuardPart(f"{left} {op} {right}", VarCmp(left, op, right), lambda w, atom: OPS[op](w[left], w[right]))
    if kind == "plus":
        var = draw(st.sampled_from(by_sort["int"]))
        return GuardPart(f"{var} + 1 == 3", None, lambda w, atom: w[var] + 1 == 3)
    if kind == "ordering":
        left, right = draw(st.permutations(by_sort["int"]))[:2]
        return GuardPart(f"{left} < {right}", None, lambda w, atom: w[left] < w[right])
    var = draw(st.sampled_from(sorted(set(names) & DECLARED)))
    if GUARD_POOL[var] == "bool" or draw(st.booleans()):
        wrong = '"A"' if GUARD_POOL[var] == "int" else "1"
        return GuardPart(f"{var} == {wrong}", None, lambda w, atom: False)
    if GUARD_POOL[var] == "int":
        return GuardPart(var, None, lambda w, atom: w[var] != 0)
    return GuardPart(var, None, lambda w, atom: w[var] != "")


@st.composite
def guard_lists(draw):
    """Up to 3 of ``GUARD_POOL``'s variables, and up to 3 guards over them
    of up to 2 parts each: each guard as its text, its parts with their
    offsets in that text, and the operators between them."""
    names = tuple(draw(st.lists(st.sampled_from(sorted(GUARD_POOL)), min_size=1, max_size=3, unique=True)))
    guards = []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(st.lists(guard_parts(names), min_size=1, max_size=2))
        ops = draw(st.lists(st.sampled_from(("&&", "||")), min_size=len(parts) - 1, max_size=len(parts) - 1))
        text, offsets = parts[0].text, [0]
        for op, part in zip(ops, parts[1:]):
            text += f" {op} "
            offsets.append(len(text))
            text += part.text
        guards.append((text, list(zip(parts, offsets)), ops))
    return names, guards


def _expected(index: int, placed: list, ops: list, pick):
    """``pick(part, atom)`` of each part, combined as the parser groups
    ``&&`` and ``||``: both chain to the left, ``&&`` binds tighter."""
    values = [pick(part, f"g{index}@{offset}") for part, offset in placed]
    groups = [[values[0]]]
    for op, value in zip(ops, values[1:]):
        if op == "&&":
            groups[-1].append(value)
        else:
            groups.append([value])
    conj = [functools.reduce(lambda a, b: ("and", a, b), group) for group in groups]
    return functools.reduce(lambda a, b: ("or", a, b), conj)


def _formula(tree):
    if isinstance(tree, tuple):
        return (And if tree[0] == "and" else Or)((_formula(tree[1]), _formula(tree[2])))
    return tree


def _truth(tree) -> bool:
    if isinstance(tree, tuple):
        return (all if tree[0] == "and" else any)((_truth(tree[1]), _truth(tree[2])))
    return tree


class TestGuardTranslationSoundness:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(guard_lists())
    def test_widened_translation_is_exact_and_sound(self, drawn):
        """Every part inside the fragment translates as it always did, and
        every part outside it is its own atom, named by its guard's index and
        its offset, so the whole formula is known. An Unsat answer then
        holds under brute force, over the constraint's variables (each
        constant ±1 and one fresh value, both values of each boolean) and
        over the guards' own meaning, where a call's result is free."""
        names, guards = drawn
        constraint = translate_guards(tuple((text, GUARD_HINTS) for text, _, _ in guards))
        expected = [
            _formula(_expected(i, placed, ops, lambda part, atom: part.formula or BoolVar(atom)))
            for i, (_, placed, ops) in enumerate(guards)
        ]
        assert constraint.formula == And(tuple(expected))
        atoms = {f"g{i}@{offset}" for i, (_, placed, _) in enumerate(guards) for part, offset in placed if part.formula is None}
        assert {name for name, t in constraint.variables if name not in GUARD_POOL} == atoms
        assert all(t == (GUARD_POOL.get(name) or "bool") for name, t in constraint.variables)

        verdict = check_sat(constraint)
        if isinstance(verdict, Sat):
            assert eval_witness(constraint, verdict.witness)
            return
        assert isinstance(verdict, Unsat)
        declared = [name for name, _ in constraint.variables]
        for values in itertools.product(*(GUARD_DOMAINS[t] for _, t in constraint.variables)):
            assert not eval_witness(constraint, dict(zip(declared, values)))
        calls = [
            f"g{i}@{offset}"
            for i, (_, placed, _) in enumerate(guards)
            for part, offset in placed
            if part.text.startswith("is_admin(")
        ]
        world_names = [*names, *calls]
        for values in itertools.product(*(GUARD_DOMAINS[GUARD_POOL.get(name, "bool")] for name in world_names)):
            world = dict(zip(world_names, values))
            assert not all(
                _truth(_expected(i, placed, ops, lambda part, atom: part.value(world, atom)))
                for i, (_, placed, ops) in enumerate(guards)
            )
