import gc
import random
import re
import weakref

import pytest

from privflow.load import load_program
from privflow.constraints import _guard_var_types
from privflow.crossflow import q_source
from privflow.model import Edge, EdgeKind, ElementKind, Service, call_callee
from privflow.minisrv.lower import INBOUND_INTRINSICS
from privflow.pipeline import scan
from privflow.search import (
    BadPattern,
    NotAFunction,
    UnknownElement,
    call_sites_of,
    enclosing_function,
    get_location,
    get_source,
    get_type,
    guard_chain,
    q_ast,
    q_cg,
    q_flow,
    q_name,
    service_index,
)

from conftest import (
    CORPORA,
    build_flow_graph,
    build_random_service,
    build_tied_service,
    lower_snippet,
    make_element,
    oracle_closure,
    reference_shortest_path,
    scan_decorator_checks,
    shortest_path_counts,
)

CORPUS_DIRS = sorted(p for p in CORPORA.iterdir() if p.is_dir())


def by_name(service, name):
    return next(e for e in service.elements if e.name == name)


def _bfs_callees(callees, start, depth, n):
    frontier, reached = {start}, set()
    for _ in range(depth):
        frontier = {j for i in frontier for j in callees[i] if j != i} - reached
        reached |= frontier
    return {f"f{j}" for j in reached - {start}}


class TestQName:
    def test_exact_match_on_role_update(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        hits = q_name(usermgmt, "update_role", "exact")
        assert [e.kind for e in hits] == [ElementKind.FUNCTION]
        assert hits[0].name == "update_role"

    def test_regex_generalizes_exact(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        exact = {e.id for e in q_name(usermgmt, "update_role", "exact")}
        fuzzy = {e.id for e in q_name(usermgmt, "update.*", "regex")}
        assert exact <= fuzzy

    def test_no_match_is_empty(self, role_update_program):
        assert q_name(role_update_program.service("usermgmt"), "zzz_nomatch", "exact") == []

    def test_invalid_regex_raises(self, role_update_program):
        with pytest.raises(BadPattern):
            q_name(role_update_program.service("usermgmt"), "update(", "regex")

    def test_empty_pattern_raises(self, role_update_program):
        with pytest.raises(BadPattern):
            q_name(role_update_program.service("usermgmt"), "", "exact")

    def test_anonymous_elements_never_match(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        hits = q_name(usermgmt, ".*", "regex")
        assert all(e.name for e in hits)

    def test_exact_subset_of_embedding_regex(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        for name in {e.name for e in usermgmt.elements if e.name}:
            exact = {e.id for e in q_name(usermgmt, name, "exact")}
            fuzzy = {e.id for e in q_name(usermgmt, f".*{re.escape(name)}.*", "regex")}
            assert exact <= fuzzy


class TestQAst:
    def test_call_count_matches_call_elements(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        expected = sum(1 for e in usermgmt.elements if e.kind is ElementKind.CALL)
        assert len(q_ast(usermgmt, ElementKind.CALL)) == expected

    def test_endpoint_on_unrouted_service(self):
        svc = lower_snippet("fn helper() { x = 1 }")
        assert q_ast(svc, ElementKind.ENDPOINT) == []

    def test_field_access_hand_count(self):
        svc = lower_snippet("fn f() { b = request.body }")
        assert len(q_ast(svc, ElementKind.FIELD_ACCESS)) == 1

    def test_results_sorted_by_location(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        hits = q_ast(usermgmt, ElementKind.CALL)
        keys = [(e.location.file, e.location.line, e.location.col) for e in hits]
        assert keys == sorted(keys)


class TestFlowGraph:
    def test_chained_assignment_edges(self):
        svc = lower_snippet("fn f() { x = 1 y = x z = y }")
        graph = build_flow_graph(svc)
        x, y, z = (by_name(svc, n).id for n in "xyz")
        lit = next(e for e in svc.elements if e.kind is ElementKind.STRING_LITERAL)
        assert (lit.id, x) in graph.edges
        assert (x, y) in graph.edges
        assert (y, z) in graph.edges

    def test_interprocedural_edges(self):
        svc = lower_snippet("fn f() { x = 1 y = g(x) }\nfn g(p) { return p }")
        graph = build_flow_graph(svc)
        x = by_name(svc, "x").id
        p = by_name(svc, "p").id
        call = next(e for e in svc.elements if e.kind is ElementKind.CALL).id
        y = by_name(svc, "y").id
        assert (x, p) in graph.edges  # argument to parameter
        assert (p, call) in graph.edges  # return expression to call result
        assert (call, y) in graph.edges

    def test_member_access_propagation(self):
        svc = lower_snippet("fn f(r) { b = r.b }")
        graph = build_flow_graph(svc)
        r = by_name(svc, "r").id
        fa = next(e for e in svc.elements if e.kind is ElementKind.FIELD_ACCESS).id
        assert (r, fa) in graph.edges

    def test_idempotent(self, role_update_program):
        svc = role_update_program.service("usermgmt")
        assert build_flow_graph(svc) == build_flow_graph(svc)


class TestQFlow:
    def test_request_reaches_update_role(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        paths = q_flow(usermgmt, "request", "update_role")
        assert paths
        role = by_name(usermgmt, "role")
        assert any(role.id in p.elements for p in paths)

    def test_reflexive_singleton(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        role = by_name(usermgmt, "role")
        paths = q_flow(usermgmt, role.id, role.id)
        assert [list(p.elements) for p in paths] == [[role.id]]

    def test_unknown_selector_raises(self, role_update_program):
        with pytest.raises(UnknownElement):
            q_flow(role_update_program.service("usermgmt"), "ghost", "update_role")

    def test_unreachable_is_empty(self):
        svc = lower_snippet("fn f() { x = 1 }\nfn g() { y = 2 }")
        assert q_flow(svc, "x", "y") == []

    def test_matches_independent_closure_on_random_services(self):
        rng = random.Random(1234)
        for _ in range(25):
            svc = build_random_service(rng, max_nodes=18)
            closure = oracle_closure(svc)
            ids = [e.id for e in svc.elements]
            for a in ids:
                for b in ids:
                    found = bool(q_flow(svc, a, b))
                    assert found == (b in closure[a]), f"disagree on {a}->{b}"

    def test_path_hops_are_graph_edges(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        graph = build_flow_graph(usermgmt)
        paths = q_flow(usermgmt, "request", "update_role")
        assert paths
        for p in paths:
            for hop in zip(p.elements, p.elements[1:]):
                assert hop in graph.edges


class TestSharedSearch:
    """One breadth-first search per source finds, for every destination,
    the path a search for that destination alone finds."""

    @staticmethod
    def _check(service):
        ids = [e.id for e in service.elements]
        for a in ids:
            paths = q_flow(service, a, *ids)
            together = {(p.src, p.dst): p for p in paths}
            assert len(together) == len(paths), a
            # a call site is reached through its own id and its callee's
            separate = {(p.src, p.dst): p for b in ids for p in q_flow(service, a, b)}
            assert together == separate, a
            el = service.element(a)
            if el.kind is ElementKind.FUNCTION:
                continue  # function selectors stand for their call sites and parameters
            got = {dst: list(p.elements) for (_, dst), p in together.items()}
            for b in ids:
                if service.element(b).kind is not ElementKind.FUNCTION:
                    assert got.get(b) == reference_shortest_path(service, a, b), (a, b)

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_every_element_pair_of_the_corpora(self, corpus):
        for service in load_program(corpus).services:
            self._check(service)

    def test_random_services_with_tied_shortest_paths(self):
        rng = random.Random(31)
        tied_pairs = 0
        for _ in range(40):
            service = build_tied_service(rng)
            self._check(service)
            tied_pairs += sum(n > 1 for e in service.elements for n in shortest_path_counts(service, e.id).values())
        assert tied_pairs > 100

    def test_several_selectors_keep_selector_order(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        first, second = q_flow(usermgmt, "request", "update_role"), q_flow(usermgmt, "request", "role")
        assert len({p.src for p in first + second}) == 1
        assert q_flow(usermgmt, "request", "update_role", "role") == first + second


class TestQCg:
    def test_callers_of_update_role(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        callers = q_cg(usermgmt, "update_role", "callers")
        assert [e.name for e in callers] == ["set_user_role"]

    def test_callees_of_leaf(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        assert q_cg(usermgmt, "update_role", "callees") == []

    def test_decorator_call_counts_decorated_fn_as_caller(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        callers = q_cg(usermgmt, "authz", "callers")
        assert [e.name for e in callers] == ["set_user_role"]

    def test_depth_two_superset(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        one = {e.id for e in q_cg(usermgmt, "set_user_role", "callees", depth=1)}
        two = {e.id for e in q_cg(usermgmt, "set_user_role", "callees", depth=2)}
        assert one <= two
        assert "can_switch_roles" in {e.name for e in q_cg(usermgmt, "set_user_role", "callees", depth=2)}

    def test_callers_is_reverse_of_callees(self, role_update_program):
        for service in role_update_program.services:
            functions = [e for e in service.elements if e.kind is ElementKind.FUNCTION]
            forward = {
                (f.id, callee.id) for f in functions for callee in q_cg(service, f.id, "callees")
            }
            backward = {
                (caller.id, f.id) for f in functions for caller in q_cg(service, f.id, "callers")
            }
            assert forward == backward

    def test_depth_matches_bfs_oracle_on_random_call_graphs(self):
        rng = random.Random(515)
        for _ in range(15):
            n = rng.randint(3, 10)
            callees = {i: sorted(rng.sample(range(n), rng.randint(0, min(3, n - 1)))) for i in range(n)}
            lines = []
            for i in range(n):
                body = " ".join(f"f{j}()" for j in callees[i] if j != i) or "x = 1"
                lines.append(f"fn f{i}() {{ {body} }}")
            svc = lower_snippet("\n".join(lines))
            for depth in (1, 2, 3):
                for i in range(n):
                    got = {e.name for e in q_cg(svc, f"f{i}", "callees", depth=depth)}
                    want = _bfs_callees(callees, i, depth, n)
                    assert got == want, (i, depth, got, want)

    def test_not_a_function(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        with pytest.raises(NotAFunction):
            q_cg(usermgmt, "role", "callers")

    def test_unknown_function(self, role_update_program):
        with pytest.raises(UnknownElement):
            q_cg(role_update_program.service("usermgmt"), "ghost", "callers")


class TestProperties:
    def test_get_location_and_source(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        update_role = by_name(usermgmt, "update_role")
        loc = get_location(usermgmt, update_role.id)
        assert loc.file == "usermgmt.msv" and loc.line >= 1
        assert get_source(usermgmt, update_role.id).startswith("fn update_role")

    def test_get_type_from_intrinsic(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        role = by_name(usermgmt, "role")
        assert get_type(usermgmt, role.id) == "string"

    def test_unknown_element(self, role_update_program):
        with pytest.raises(UnknownElement):
            get_source(role_update_program.service("usermgmt"), "e000000000000")

    def test_repeated_invocations_identical(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        assert q_name(usermgmt, "update.*", "regex") == q_name(usermgmt, "update.*", "regex")
        assert q_ast(usermgmt, ElementKind.CALL) == q_ast(usermgmt, ElementKind.CALL)

    def test_enclosing_function_of_call(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        update_role = by_name(usermgmt, "update_role")
        [site] = call_sites_of(usermgmt, update_role.id)
        assert enclosing_function(usermgmt, site.id).name == "set_user_role"


def _edges(service, kind):
    return [e for e in service.edges if e.kind is kind]


def _scan_parent(service, eid):
    parents = [e.src for e in _edges(service, EdgeKind.CONTAINS) if e.dst == eid]
    return parents[-1] if parents else None


def _scan_enclosing_function(service, eid):
    el = service.element(eid)
    if el.kind is ElementKind.FUNCTION:
        return el
    if el.kind is ElementKind.DECORATOR:
        targets = [e.dst for e in _edges(service, EdgeKind.DECORATES) if e.src == eid]
        return service.element(targets[0]) if targets else None
    cur = _scan_parent(service, eid)
    while cur is not None:
        if service.element(cur).kind is ElementKind.FUNCTION:
            return service.element(cur)
        cur = _scan_parent(service, cur)
    return None


def _scan_guard_chain(service, eid):
    chain = []
    cur = _scan_parent(service, eid)
    while cur is not None:
        if service.element(cur).kind is ElementKind.CONDITIONAL:
            chain.insert(0, service.element(cur))
        cur = _scan_parent(service, cur)
    return chain


class TestServiceIndex:
    def test_index_lives_on_the_service_object(self, corpora_root):
        first = load_program(corpora_root / "role_update").service("usermgmt")
        second = load_program(corpora_root / "role_update").service("usermgmt")
        assert first == second
        assert service_index(first) is service_index(first)
        assert service_index(first) is not service_index(second)

    def test_scanned_services_die_with_their_program(self, corpora_root, oracle):
        program = load_program(corpora_root / "role_update")
        scan(program, oracle)
        refs = [weakref.ref(s) for s in program.services]
        del program
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_guard_chain_is_the_callers_own_list(self, corpora_root):
        service = load_program(corpora_root / "infeasible").service("transfer")
        write = next(e for e in service.elements if e.kind is ElementKind.CALL and call_callee(e) == "db.write")
        first = guard_chain(service, write.id)
        second = guard_chain(service, write.id)
        assert len(first) == 2 and first == second and first is not second
        first.clear()
        assert guard_chain(service, write.id) == second and len(second) == 2

    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_primitives_match_edge_scans(self, corpus):
        """Every index-backed primitive and table agrees with a scan over all
        edges and elements."""
        for service in load_program(corpus).services:
            assert_index_matches_edge_scans(service)

    def test_tables_match_edge_scans_on_generated_services(self):
        rng = random.Random(907)
        services = [build_random_service(rng, max_nodes=18) for _ in range(10)]
        services += [build_tied_service(rng) for _ in range(10)]
        services += [build_nested_service(rng) for _ in range(40)]
        for service in services:
            assert_index_matches_edge_scans(service)
        nested = services[20:]
        assert any(service_index(s).decorator_checks for s in nested)
        assert any(len(service_index(s).var_types) < _declared_names(s) for s in nested)

    def test_shared_decorator_and_shared_check(self):
        """A decorator of two functions gives both its checks and resolves to
        the first; two decorators calling one check list it once."""
        f = make_element("svc", ElementKind.FUNCTION, name="f", line=1)
        g = make_element("svc", ElementKind.FUNCTION, name="g", line=2)
        check = make_element("svc", ElementKind.FUNCTION, name="check", line=3)
        other = make_element("svc", ElementKind.FUNCTION, name="other", line=4)
        both = make_element("svc", ElementKind.DECORATOR, name="both", line=5)
        again = make_element("svc", ElementKind.DECORATOR, name="again", line=6)
        edges = [
            Edge(EdgeKind.DECORATES, both.id, f.id),
            Edge(EdgeKind.DECORATES, both.id, g.id),
            Edge(EdgeKind.DECORATES, again.id, g.id),
            Edge(EdgeKind.CALLS, both.id, other.id),
            Edge(EdgeKind.CALLS, both.id, check.id),
            Edge(EdgeKind.CALLS, again.id, check.id),
        ]
        service = Service.build("svc", [f, g, check, other, both, again], edges)
        decorated = [service.element(e.dst) for e in service.edges if e.kind is EdgeKind.DECORATES and e.src == both.id]
        assert sorted(decorated, key=lambda e: e.name) == [f, g]
        assert enclosing_function(service, both.id) == decorated[0]
        assert service_index(service).decorator_checks == {f.id: [check, other], g.id: [check, other]}
        assert_index_matches_edge_scans(service)


def _declared_names(service):
    return sum(1 for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER))


def _scan_var_type(service, name):
    declared = (e for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER))
    return next((e.inferred_type for e in declared if e.name == name), "unknown")


def assert_index_matches_edge_scans(service):
    index = service_index(service)
    calls = _edges(service, EdgeKind.CALLS)
    declared = {e.name for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER)}
    assert index.var_types == {name: _scan_var_type(service, name) for name in declared}
    idents = sorted(({e.name for e in service.elements if e.name.isidentifier()} | {"undeclared"}) - {"true", "false"})
    guard = " == ".join(idents) + ' == "a b" == true'
    assert _guard_var_types(service, guard) == tuple((name, _scan_var_type(service, name)) for name in idents)
    sources = [
        e for e in service.elements
        if e.kind is ElementKind.ENDPOINT or (e.kind is ElementKind.CALL and call_callee(e) in INBOUND_INTRINSICS)
    ]
    assert q_source(service) == sorted(sources, key=lambda e: (e.location.file, e.location.line, e.location.col, e.id))
    for el in service.elements:
        fn, guards = _scan_enclosing_function(service, el.id), _scan_guard_chain(service, el.id)
        assert index.place(service, el.id) == (fn, tuple(guards)), el
        assert enclosing_function(service, el.id) == fn, el
        assert guard_chain(service, el.id) == guards, el
        assert index.decorator_checks.get(el.id, []) == scan_decorator_checks(service, el.id), el
        sites = [service.element(e.src) for e in calls if e.dst == el.id]
        want_sites = sorted(
            (s for s in sites if s.kind is ElementKind.CALL),
            key=lambda s: (s.location.file, s.location.line, s.location.col, s.kind.value, s.id),
        )
        assert call_sites_of(service, el.id) == want_sites, el
        if el.kind is not ElementKind.FUNCTION:
            continue
        callees = {
            e.dst
            for e in calls
            if service.element(e.dst).kind is ElementKind.FUNCTION and _scan_enclosing_function(service, e.src) == el
        }
        callers = {
            caller.id
            for e in calls
            if e.dst == el.id and (caller := _scan_enclosing_function(service, e.src)) is not None
        }
        assert {f.id for f in q_cg(service, el.id, "callees")} == callees - {el.id}, el
        assert {f.id for f in q_cg(service, el.id, "callers")} == callers - {el.id}, el


NESTED_KINDS = (
    ElementKind.FUNCTION,
    ElementKind.CONDITIONAL,
    ElementKind.VARIABLE,
    ElementKind.PARAMETER,
    ElementKind.CALL,
    ElementKind.DECORATOR,
    ElementKind.ENDPOINT,
)


def build_nested_service(rng, name: str = "nest") -> Service:
    """Functions, conditionals, variables, parameters, calls, decorators and
    endpoints in a random containment forest, declared out of creation
    order and sharing positions. Variable and parameter names repeat with
    differing types; decorators decorate one or two functions; decorators
    and calls call functions and, now and then, other elements."""
    n = rng.randint(3, 30)
    elements, taken = [], set()
    for i in range(n):
        kind, line = rng.choice(NESTED_KINDS), rng.randint(1, n)
        if (kind, line) in taken:
            continue
        taken.add((kind, line))
        label = {ElementKind.CALL: "", ElementKind.CONDITIONAL: ""}.get(kind, f"{kind.value[0]}{i}")
        if kind in (ElementKind.VARIABLE, ElementKind.PARAMETER):
            label = rng.choice("abc")
        source = rng.choice(('consume("t")', f"f{i}(x)")) if kind is ElementKind.CALL else ""
        elements.append(make_element(name, kind, name=label, line=line, source=source,
                                     itype=rng.choice(("int", "string", "unknown"))))
    functions = [e for e in elements if e.kind is ElementKind.FUNCTION]
    edges = []
    for i in range(1, len(elements)):
        if rng.random() < 0.8:
            edges.append(Edge(EdgeKind.CONTAINS, elements[rng.randrange(i)].id, elements[i].id))
    for el in elements:
        if el.kind is ElementKind.DECORATOR and functions:
            for fn in rng.sample(functions, min(len(functions), rng.randint(1, 2))):
                edges.append(Edge(EdgeKind.DECORATES, el.id, fn.id))
        if el.kind in (ElementKind.DECORATOR, ElementKind.CALL):
            callees = rng.sample(functions, min(len(functions), rng.randint(0, 2)))
            for callee in callees + ([rng.choice(elements)] if rng.random() < 0.3 else []):
                edges.append(Edge(EdgeKind.CALLS, el.id, callee.id))
    return Service.build(name, elements, edges)
