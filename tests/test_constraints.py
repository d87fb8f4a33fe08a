import itertools
import random

import pytest

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
    constraint_from_json,
    emit_smtlib,
    translate_guards,
)
from privflow.reasoner import (
    AssessSufficiency,
    CheckDescriptor,
    ClassifyCheck,
    ClassifyPrivileged,
    ConfirmUserSource,
    GuardDescriptor,
    Memo,
)

from constraint_reference import MissingVariable, constraint_to_json, eval_witness
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


def _reply(formula, **types) -> dict:
    """A reply's constraint JSON: ``formula`` over variables of ``types``."""
    return {"variables": [{"name": name, "type": t} for name, t in types.items()], "formula": formula}


class TestJsonCodec:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            constraint = random_constraint(rng)
            assert constraint_from_json(constraint_to_json(constraint)) == constraint

    def test_malformed_rejected(self):
        with pytest.raises(ConstraintError):
            constraint_from_json({"variables": [], "formula": ["teleport", "x"]})
        # a comparison tag names its sort; variables of another sort are rejected
        for types, formula in [
            ({"s": "string", "t": "string"}, ["int_var_cmp", "s", "==", "t"]),
            ({"a": "bool", "b": "bool"}, ["int_var_cmp", "a", "!=", "b"]),
            ({"n": "int", "s": "string"}, ["int_var_cmp", "n", "==", "s"]),
            ({"m": "int", "n": "int"}, ["str_var_cmp", "m", "==", "n"]),
            ({"s": "string"}, ["int_cmp", "s", "==", 1]),
            ({"n": "int"}, ["str_lit_cmp", "n", "==", "A"]),
        ]:
            variables = [{"name": name, "type": t} for name, t in types.items()]
            with pytest.raises(ConstraintError):
                constraint_from_json({"variables": variables, "formula": formula})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"variables": [], "formula": "x"}, "formula node must be a non-empty list, got 'x'"),
            ({"formula": ["and"]}, "constraint JSON needs a 'variables' list"),
            ({"variables": [{"name": "x"}]}, "malformed variable entry {'name': 'x'}"),
            (_reply(["and"], x="float"), "variable 'x' has unsupported type 'float'"),
            (_reply(["int_cmp", "n", "~", 1], n="int"), "bad int operator '~'"),
            (_reply(["int_var_cmp", "m", "<", "n"], m="int", n="int"), "variables compare only with ==/!=, got '<'"),
        ],
        ids=["node_not_list", "no_variables", "bad_variable", "unsupported_type", "bad_operator", "ordered_var_cmp"],
    )
    def test_reply_errors(self, data, message):
        """Each way a reply's constraint is malformed raises one
        ``ConstraintError`` that says why."""
        with pytest.raises(ConstraintError) as err:
            constraint_from_json(data)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "formula, message",
        [(ConstCmp("x", "==", 1.5), "unsupported constant 1.5"), ("junk", "unsupported formula node 'junk'")],
        ids=["unsupported_constant", "unknown_node"],
    )
    def test_errors_no_reply_reaches(self, formula, message):
        """Two formulas no reply decodes to are rejected when built."""
        with pytest.raises(ConstraintError) as err:
            PathConstraint((("x", "int"),), formula)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["a|b", "a\\b", "|"])
    def test_name_no_symbol_can_hold_rejected(self, name):
        data = {"variables": [{"name": name, "type": "bool"}], "formula": ["bool_var", name]}
        with pytest.raises(ConstraintError):
            constraint_from_json(data)


class TestGuardTranslation:
    def test_two_string_guards_conjoin(self):
        guards = (
            GuardDescriptor('mode == "A"', (("mode", "string"),)),
            GuardDescriptor('mode == "B"', (("mode", "string"),)),
        )
        constraint, _ = translate_guards(guards)
        assert constraint is not None
        assert isinstance(check_sat(constraint), Unsat)

    def test_numeric_and_boolean_guards(self):
        guards = (
            GuardDescriptor("n > 3 && n < 9", (("n", "int"),)),
            GuardDescriptor("active == true", (("active", "bool"),)),
        )
        constraint, _ = translate_guards(guards)
        result = check_sat(constraint)
        assert isinstance(result, Sat)
        assert 3 < result.witness["n"] < 9
        assert result.witness["active"] is True

    def test_parenthesized_disjunction(self):
        guards = (GuardDescriptor('(m == "A") || n == 1', (("m", "string"), ("n", "int"))),)
        constraint, _ = translate_guards(guards)
        assert constraint.formula == And((Or((ConstCmp("m", "==", "A"), ConstCmp("n", "==", 1))),))

    def test_call_in_guard_skips(self):
        constraint, reason = translate_guards((GuardDescriptor("is_admin(u)", ()),))
        assert constraint is None
        assert "fragment" in reason or "guard" in reason

    def test_member_access_skips(self):
        constraint, _ = translate_guards((GuardDescriptor("order.user_id == current", ()),))
        assert constraint is None

    def test_untyped_var_pair_skips(self):
        constraint, _ = translate_guards((GuardDescriptor("a == b", ()),))
        assert constraint is None

    def test_no_guards_is_true(self):
        constraint, _ = translate_guards(())
        assert constraint == PathConstraint((), And(()))
        assert isinstance(check_sat(constraint), Sat)

    def test_bare_name_of_another_type_skips(self):
        constraint, reason = translate_guards((GuardDescriptor("n", (("n", "int"),)),))
        assert (constraint, reason) == (None, "guard 'n' falls outside the constraint fragment")
        constraint, _ = translate_guards((GuardDescriptor("n == 1 && n", ()),))  # n is an int by then
        assert constraint is None

    def test_guard_that_does_not_parse_skips(self):
        constraint, reason = translate_guards((GuardDescriptor("n ==", (("n", "int"),)),))
        assert (constraint, reason) == (None, "guard 'n ==' is not a plain expression")

    def test_var_type_hint_respected(self):
        constraint, _ = translate_guards((GuardDescriptor("n == m", (("n", "int"), ("m", "int"))),))
        assert constraint is not None
        assert dict(constraint.variables) == {"n": "int", "m": "int"}


#: An authorization check, so an ``AssessSufficiency`` that holds it reaches
#: the backend behind a ``Memo``.
AUTHZ_CHECKS = (CheckDescriptor("authz", "role", "n", "s"),)

#: Field-equal records of two types: formula nodes, checker results,
#: reasoner tasks and their descriptors.
FIELD_EQUAL_PAIRS = {
    "and-or": (And((BoolVar("a"), BoolVar("b"))), Or((BoolVar("a"), BoolVar("b")))),
    "const-var": (ConstCmp("x", "==", "y"), VarCmp("x", "==", "y")),
    "boolvar-not": (BoolVar("a"), Not("a")),
    "boolconst-not": (BoolConst(True), Not(True)),
    "unknown-boolvar": (Unknown("r"), BoolVar("r")),
    "source-guard": (ConfirmUserSource("a", ()), GuardDescriptor("a", ())),
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
