import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privflow.load import load_program
from privflow.minisrv import LoweringError, ParseError, lower, nodes, parse_source
from privflow.minisrv.nodes import Assign, Call, FuncDef, If, Return, locate
from privflow.minisrv.parser import MAX_DEPTH, PUNCT, _tokenize
from privflow.model import EdgeKind, ElementKind, Location, Record
from privflow.pipeline import scan
from privflow.reasoner import ScriptedOracle

from conftest import CORPORA, bench_gen, lower_snippet
from lexer_reference import _tokenize as reference_tokenize


def names(service, kind):
    return [e.name for e in service.elements if e.kind is kind]


def by_name(service, name):
    return next(e for e in service.elements if e.name == name)


def dataflow(service):
    return {(e.src, e.dst) for e in service.edges if e.kind is EdgeKind.DATAFLOW}


class TestParser:
    def test_minimal_function(self):
        ast = parse_source("fn f() { x = 1 }", "t.msv")
        assert len(ast.items) == 1
        fn = ast.items[0]
        assert isinstance(fn, FuncDef) and fn.name == "f"
        assert len(fn.body) == 1 and isinstance(fn.body[0], Assign)

    def test_malformed_parameter_list(self):
        with pytest.raises(ParseError) as err:
            parse_source("fn f( {", "t.msv")
        assert err.value.location.line == 1
        assert "parameter" in err.value.expected or ")" in err.value.expected

    def test_first_error_position_wins(self):
        with pytest.raises(ParseError) as err:
            parse_source("fn f() { x = }\nfn g( {", "t.msv")
        assert err.value.location.line == 1

    def test_role_route_route_structure(self):
        text = (CORPORA / "role_update" / "usermgmt.msv").read_text()
        ast = parse_source(text, "usermgmt.msv")
        routed = [f for f in ast.functions() if any(d.name == "route" for d in f.decorators)]
        assert len(routed) == 1
        route = next(d for d in routed[0].decorators if d.name == "route")
        assert route.args[0].value == "POST"
        assert route.args[1].value == "/setUserRole"

    def test_reparse_yields_equal_ast(self):
        text = (CORPORA / "role_update" / "userprofile.msv").read_text()
        first = parse_source(text, "u.msv")
        second = parse_source(text, "u.msv")
        assert first.items == second.items
        assert repr(first.items) == repr(second.items)

    def test_unknown_decorator_rejected(self):
        with pytest.raises(ParseError):
            parse_source('@cache() fn f() { x = 1 }', "t.msv")

    def test_route_arity_enforced(self):
        with pytest.raises(ParseError):
            parse_source('@route("POST") fn f() { x = 1 }', "t.msv")

    def test_empty_route_path_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_source('fn g() { y = 2 }\n@route("POST", "") fn f() { x = 1 }', "t.msv")
        assert (err.value.location.line, err.value.message) == (2, "@route path must be non-empty")

    def test_relative_route_path_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_source('fn g() { y = 2 }\n@route("POST", "run") fn f() { x = 1 }', "t.msv")
        assert (err.value.location.line, err.value.message) == (2, "@route path must start with '/', got 'run'")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_source('fn f() { x = "oops }', "t.msv")

    def test_comments_and_juxtaposed_statements(self):
        ast = parse_source("// header\nfn f() { x = 1 y = x }", "t.msv")
        assert len(ast.items[0].body) == 2

    def test_bare_return_has_no_value(self):
        body = parse_source("fn f(g) { if g == 1 { return } y = 2 }", "t.msv").items[0].body
        assert isinstance(body[0], If) and isinstance(body[1], Assign)
        (ret,) = body[0].then_body
        assert isinstance(ret, Return) and ret.value is None

    def test_nodes_are_records_positioned_by_span_alone(self):
        classes = [c for c in vars(nodes).values() if isinstance(c, type) and c.__module__ == nodes.__name__]
        assert len(classes) == 15
        for cls in classes:
            assert issubclass(cls, Record) and not issubclass(cls, tuple)
            assert cls._fields == cls.__slots__, cls
            assert not {"line", "col"} & set(cls._fields), cls
            assert cls is nodes.MiniSrvAst or cls._fields[0] == "span", cls

    def test_nesting_counts_every_enclosing_level(self):
        """Call arguments, parentheses, ``if`` branches and binary operators
        share one bound; a guard sits at its ``if``'s own level."""
        def nested_calls(levels):
            return "fn f(p) { x = " + "f(" * levels + "p" + ")" * levels + " }"

        svc = lower_snippet(nested_calls(MAX_DEPTH))
        assert len(names(svc, ElementKind.CALL)) == MAX_DEPTH
        # 31 branches, 31 parentheses, an argument list and a "+": 64 levels
        mixed = "fn f(p) {" + " if (p == 1) || p {" * 31 + " x = " + "(" * 31 + "f(p + 1)" + ")" * 31 + " }" * 31 + " }"
        assert MAX_DEPTH == 64
        assert lower_snippet(mixed).elements
        for text in (nested_calls(MAX_DEPTH + 1), mixed.replace("f(p + 1)", "f((p + 1))")):
            with pytest.raises(ParseError) as err:
                parse_source(text, "t.msv")
            assert err.value.message == f"nesting deeper than {MAX_DEPTH} levels"

    def test_bare_call_statement_is_its_call(self):
        text = "fn f(x) { g(x) }"
        (stmt,) = parse_source(text, "t.msv").items[0].body
        assert isinstance(stmt, Call) and text[slice(*stmt.span)] == "g(x)"

    @pytest.mark.parametrize(
        "text, where",
        [
            ('fn f() { }\n  @route("GET") fn g() { }', "t.msv:2:3"),
            ('fn f() { }\r\n\t@auth() fn g() { }', "t.msv:2:2"),
            ('// caf\u00e9 \u4e2d\n fn f() { }  @auth(1) fn g() { }', "t.msv:2:14"),
        ],
    )
    def test_decorator_error_is_located_at_its_at_sign(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_source(text, "t.msv")
        assert str(err.value.location) == where

    def test_lowering_error_is_located_by_the_line_table(self):
        with pytest.raises(LoweringError) as err:
            lower_snippet('// caf\u00e9\r\nfn f() { }\n\n  \u0020fn f() { }')
        assert str(err.value) == "svc.msv:4:4: function 'f' is already defined"


# MiniSrv's ASCII alphabet, as lexeme pieces: every punctuator with the
# one-character prefixes of the two-character ones, blanks, newlines,
# comments and quotes.
ASCII_PIECES = (*PUNCT, "!", "&", "|", "/", "//", '"', '""', '"a b"', " ", "\t", "\r", "\n", "\r\n", "0", "42")
ASCII_CHARS = "".join(sorted(set("".join(ASCII_PIECES)) | set("azAZ_9#$'")))
# without a lone quote, which would put the next string's text outside it
QUOTE_BALANCED_PIECES = tuple(p for p in ASCII_PIECES if p != '"')
IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
NON_ASCII = st.text(st.sampled_from("\u00e9\u00b2\u0663\u00a0\u4e2d\U0001f600 a"), max_size=4)
NON_ASCII_STRINGS = NON_ASCII.map(lambda t: f'"{t}"')
NON_ASCII_COMMENTS = NON_ASCII.map(lambda t: f"//{t}\n")


def assert_tokens_match_reference(text: str) -> None:
    """The lexer yields the reference's tokens, or its error, except that
    the end of input sits after a trailing comment, not at its start."""
    try:
        expected = reference_tokenize(text, "a.msv")
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _tokenize(text, "a.msv")
        assert (str(err.value), err.value.expected) == (str(exc), exc.expected)
        return
    last_line = text[text.rfind("\n") + 1 :]
    end = expected[-1]
    if end.col != len(last_line) + 1:
        assert "//" in last_line
        expected[-1] = end._replace(col=len(last_line) + 1)
    assert _tokenize(text, "a.msv")[0] == expected


def corpus_and_bench_sources(tmp_path):
    """Every MiniSrv source of ``tests/corpora`` and of the chain 4x12 and
    fan-out 8x2 corpora ``bench/gen.py`` writes under ``tmp_path``."""
    gen = bench_gen()
    gen.chain(3, 4, 12, tmp_path / "chain")
    gen.fanout(3, 8, 2, tmp_path / "fanout")
    sources = sorted(CORPORA.rglob("*.msv")) + sorted(tmp_path.rglob("*.msv"))
    assert {p.parent.name for p in sources} == {p.name for p in CORPORA.iterdir() if p.is_dir()} | {"chain", "fanout"}
    return sources


def assert_line_table_locates_tokens(text: str) -> None:
    """The lexer's line table maps each token's start offset to the
    token's own line and column."""
    tokens, lines = _tokenize(text, "a.msv")
    assert lines[0] == 0 and len(lines) == text.count("\n") + 1
    for token in tokens:
        assert locate("a.msv", lines, token.start) == Location("a.msv", token.line, token.col), token


class TestLexer:
    @pytest.mark.parametrize(
        "text, where, char",
        [
            ("fn f() {\n  x = \u00b2 }", "a.msv:2:7", "\u00b2"),
            ("fn f() {\n  x = \u0663 }", "a.msv:2:7", "\u0663"),
            ("fn h\u00e9() { x = 1 }", "a.msv:1:5", "\u00e9"),
            ("fn f() { x\u00a0= 1 }", "a.msv:1:11", "\u00a0"),
        ],
    )
    def test_non_ascii_outside_strings_and_comments_is_rejected(self, text, where, char):
        with pytest.raises(ParseError) as err:
            parse_source(text, "a.msv")
        assert str(err.value) == f"{where}: unexpected character {char!r}"

    def test_non_ascii_inside_strings_and_comments_is_legal(self):
        ast = parse_source('// caf\u00e9 \u00b2\nfn f() { x = "h\u00e9 \u0663" } // \u00e9', "a.msv")
        assert ast.items[0].body[0].value.value == "h\u00e9 \u0663"

    def test_end_of_input_after_a_trailing_comment_is_located_at_the_end(self):
        with pytest.raises(ParseError) as err:
            parse_source("fn f() {  // open", "a.msv")
        assert str(err.value) == "a.msv:1:18: unexpected end of input (expected '}')"

    def test_tokens_match_the_reference_on_corpora_and_bench_sources(self, tmp_path):
        for path in corpus_and_bench_sources(tmp_path):
            assert_tokens_match_reference(path.read_text(encoding="utf-8"))

    def test_line_table_locates_every_token_of_corpora_and_bench_sources(self, tmp_path):
        for path in corpus_and_bench_sources(tmp_path):
            assert_line_table_locates_tokens(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "text",
        [
            'fn f() {\r\n  x = "a"\r\n\r\n\ty = x // z\r\n}\r\n',
            '// caf\u00e9 \u4e2d\U0001f600\nfn f() { x = "\u00e9\u00b2" y = 1 }\n  z\n',
            "\n\n",
            "",
        ],
    )
    def test_line_table_locates_every_token(self, text):
        assert_line_table_locates_tokens(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(ASCII_PIECES), IDENTS, st.text(ASCII_CHARS, max_size=3)), max_size=30))
    def test_tokens_match_the_reference_on_ascii_text(self, pieces):
        assert_tokens_match_reference("".join(pieces))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(QUOTE_BALANCED_PIECES), IDENTS, NON_ASCII_STRINGS, NON_ASCII_COMMENTS), max_size=20))
    def test_non_ascii_strings_and_comments_match_the_reference(self, pieces):
        assert_tokens_match_reference("".join(pieces))


class TestLowering:
    def test_literal_def_use_chain(self):
        svc = lower_snippet("fn f() { x = 1 y = x }")
        x = by_name(svc, "x")
        y = by_name(svc, "y")
        lit = next(e for e in svc.elements if e.kind is ElementKind.STRING_LITERAL)
        flows = dataflow(svc)
        assert (lit.id, x.id) in flows
        assert (x.id, y.id) in flows

    def test_call_resolution_and_arg_flow(self):
        svc = lower_snippet("fn f() { x = 1 g(x) }\nfn g(p) { return p }")
        g = by_name(svc, "g")
        p = by_name(svc, "p")
        x = by_name(svc, "x")
        call = next(e for e in svc.elements if e.kind is ElementKind.CALL)
        calls = {(e.src, e.dst) for e in svc.edges if e.kind is EdgeKind.CALLS}
        assert (call.id, g.id) in calls
        assert (x.id, p.id) in dataflow(svc)

    def test_auth_decorator_edges(self):
        svc = lower_snippet("@auth(authz) fn h() { x = 1 }\nfn authz() { return true }")
        h = by_name(svc, "h")
        authz = by_name(svc, "authz")
        dec = next(e for e in svc.elements if e.kind is ElementKind.DECORATOR and e.name == "auth")
        decorates = {(e.src, e.dst) for e in svc.edges if e.kind is EdgeKind.DECORATES}
        calls = {(e.src, e.dst) for e in svc.edges if e.kind is EdgeKind.CALLS}
        assert (dec.id, h.id) in decorates
        assert (dec.id, authz.id) in calls

    def test_undefined_auth_target_is_lowering_error(self):
        with pytest.raises(LoweringError):
            lower_snippet("@auth(ghost) fn h() { x = 1 }")

    def test_member_access_base_flow(self):
        svc = lower_snippet("fn f(r) { b = r.b }")
        r = by_name(svc, "r")
        fa = next(e for e in svc.elements if e.kind is ElementKind.FIELD_ACCESS)
        assert fa.source == "r.b"
        assert (r.id, fa.id) in dataflow(svc)

    def test_lowering_is_deterministic(self):
        text = (CORPORA / "role_update" / "usermgmt.msv").read_text()
        first = lower(parse_source(text, "usermgmt.msv"), "usermgmt")
        second = lower(parse_source(text, "usermgmt.msv"), "usermgmt")
        assert first == second

    def test_one_statement_element_per_statement(self):
        text = (CORPORA / "order_payment" / "mall.msv").read_text()
        ast = parse_source(text, "mall.msv")
        svc = lower(ast, "mall")

        def count_statements(body):
            total = 0
            for stmt in body:
                total += 1
                if hasattr(stmt, "then_body"):
                    total += count_statements(stmt.then_body)
                    total += count_statements(stmt.else_body)
            return total

        statement_count = sum(count_statements(f.body) for f in ast.functions())
        statement_kinds = (ElementKind.ASSIGNMENT, ElementKind.CONDITIONAL, ElementKind.RETURN_STMT)
        stmt_elements = [e for e in svc.elements if e.kind in statement_kinds]
        # bare-call statements are represented by their call element
        toplevel_calls = sum(
            1
            for f in ast.functions()
            for stmt in _walk_statements(f.body)
            if isinstance(stmt, Call)
        )
        assert len(stmt_elements) + toplevel_calls == statement_count

    def test_conditional_source_is_its_guard(self):
        svc = lower_snippet("fn f(x) {\n  if x == 1 && y { z = 1 } else { z = 2 }\n}")
        (cond,) = [e for e in svc.elements if e.kind is ElementKind.CONDITIONAL]
        assert (cond.source, cond.location.line, cond.location.col) == ("x == 1 && y", 2, 3)

    def test_route_function_yields_endpoint(self):
        svc = lower_snippet('@route("GET", "/ping") fn ping() { x = 1 }')
        assert names(svc, ElementKind.ENDPOINT) == ["/ping"]

    def test_function_source_is_full_body(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        update_role = by_name(usermgmt, "update_role")
        assert update_role.source.startswith("fn update_role(u, r)")
        assert update_role.source.rstrip().endswith("}")

    def test_channel_constant_folding(self):
        svc = lower_snippet(
            'const BASE = "http://h:1"\n'
            'fn f() { u = BASE + "/x" http_post(u, "b") }'
        )
        assert len(svc.channels) == 1
        assert svc.channels[0].identifier == "http://h:1/x"

    def test_parenthesised_operand_stays_in_its_enclosing_source(self):
        svc = lower_snippet("fn f(n) {\n  x = (n + 1)\n  if (n == 1) && n == 2 { y = 1 }\n  return (n)\n}")
        statements = (ElementKind.ASSIGNMENT, ElementKind.CONDITIONAL, ElementKind.RETURN_STMT)
        assert [e.source for e in svc.elements if e.kind in statements] == [
            "x = (n + 1)", "(n == 1) && n == 2", "y = 1", "return (n)"
        ]

    def test_a_parenthesised_contradiction_is_pruned(self, tmp_path):
        (tmp_path / "transfer.msv").write_text(
            '@route("POST", "/transfer")\n'
            "fn transfer() {\n"
            '  mode = request.param("mode")\n'
            '  if (mode == "A") && mode == "B" {\n'
            '    db.write("insert into transfers values (" + mode + ")")\n'
            "  }\n"
            "}\n"
        )
        (tmp_path / "privflow.manifest.json").write_text(json.dumps({
            "version": 1,
            "services": [{"name": "transfer", "entry": True, "base_url": "http://localhost:1", "sources": ["transfer.msv"]}],
            "gateway_routes": [{"prefix": "/transfer", "target": "transfer"}],
        }))
        payload = scan(load_program(tmp_path), ScriptedOracle())
        assert (payload["funnel"]["initial_flows"], payload["funnel"]["constraint_pruned"]) == (1, 1)

    @pytest.mark.parametrize("copies", [1, 1000])
    def test_a_channel_resolves_through_chained_copies(self, copies):
        chain = " ".join(f"a{i} = a{i - 1}" for i in range(1, copies + 1))
        svc = lower_snippet(f'fn f() {{ a0 = "/x" {chain} http_post(a{copies}, 1) }}')
        assert [c.identifier for c in svc.channels] == ["/x"]

    @pytest.mark.parametrize("cycle", ["a = b b = a", 'a = b + "/x" b = a', "a = a"])
    def test_a_copy_cycle_resolves_to_no_channel(self, cycle):
        assert lower_snippet(f"fn f() {{ {cycle} http_post(a, 1) }}").channels == ()

    def test_variable_type_inference(self):
        svc = lower_snippet('fn f() { role = request.param("role") n = 1 c = n }')
        assert by_name(svc, "role").inferred_type == "string"
        assert by_name(svc, "n").inferred_type == "int"
        # copies do not retype
        assert by_name(svc, "c").inferred_type == "unknown"


def _walk_statements(body):
    for stmt in body:
        yield stmt
        if hasattr(stmt, "then_body"):
            yield from _walk_statements(stmt.then_body)
            yield from _walk_statements(stmt.else_body)
