import gc
import random
import re
import shutil
import weakref

import pytest

from privflow.load import load_program
from privflow.crossflow import q_source
from privflow.model import INBOUND_INTRINSICS, Edge, EdgeKind, Element, ElementKind, Service, call_callee, element_order
from privflow.pipeline import scan
from privflow.search import (
    BadPattern,
    NotAFunction,
    UnknownElement,
    call_sites_of,
    flow_sinks,
    get_location,
    get_source,
    get_type,
    q_ast,
    q_cg,
    q_flow,
    q_name,
    resolve_selector,
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
    scan_guard_var_types,
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


def assert_results_in_element_order(service):
    """``q_name``, ``q_ast``, ``resolve_selector``, ``q_cg`` and
    ``call_sites_of`` return each element once, in ``element_order``, and
    the first three return exactly the elements they filter for."""

    def in_order(hits):
        keys = [element_order(e) for e in hits]
        return all(a < b for a, b in zip(keys, keys[1:]))

    named = [e for e in service.elements if e.name]
    assert in_order(named)
    assert q_name(service, ".*", "regex") == named
    for name in {e.name for e in named}:
        want = [e for e in named if e.name == name]
        assert q_name(service, name) == want
        if service.element(name) is None:
            assert resolve_selector(service, name) == want
    for kind in ElementKind:
        assert q_ast(service, kind) == sorted((e for e in service.elements if e.kind is kind), key=element_order)
    for el in service.elements:
        assert in_order(call_sites_of(service, el.id))
        if el.kind is ElementKind.FUNCTION:
            for direction in ("callers", "callees"):
                for depth in (1, 3):
                    assert in_order(q_cg(service, el.id, direction, depth))


class TestResultOrder:
    @pytest.mark.parametrize("corpus", CORPUS_DIRS, ids=lambda p: p.name)
    def test_corpora(self, corpus):
        for service in load_program(corpus).services:
            assert_results_in_element_order(service)

    def test_generated_services(self):
        rng = random.Random(1729)
        for i in range(20):
            assert_results_in_element_order(build_random_service(rng, f"r{i}"))
            assert_results_in_element_order(build_nested_service(rng, f"n{i}"))


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

    def test_selectors_and_resolved_sinks_are_exclusive(self, role_update_program):
        usermgmt = role_update_program.service("usermgmt")
        with pytest.raises(TypeError):
            q_flow(usermgmt, "request", "role", sinks=flow_sinks(usermgmt, "update_role"))

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

    def test_paths_are_values(self, role_update_program):
        """Two searches return equal, distinct paths that hash alike, so a
        cache keyed by a path finds it whichever search built it."""
        usermgmt = role_update_program.service("usermgmt")
        first, second = q_flow(usermgmt, "request", "update_role"), q_flow(usermgmt, "request", "update_role")
        for a, b in zip(first, second, strict=True):
            assert a == b and hash(a) == hash(b) and a is not b
            assert a == (usermgmt.name, a.elements) and (a.src, a.dst) == (a.elements[0], a.elements[-1])


class TestSharedSearch:
    """One breadth-first search per source finds, for every destination,
    the path a search for that destination alone finds."""

    @staticmethod
    def _check(service):
        ids = [e.id for e in service.elements]
        sinks = flow_sinks(service, *ids)
        for a in ids:
            paths = q_flow(service, a, *ids)
            assert q_flow(service, a, sinks=sinks) == paths, a
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
        assert service_index(usermgmt).place(site.id)[0].name == "set_user_role"


def _edges(service, kind):
    return [e for e in service.edges if e.kind is kind]


def _scan_parent(service, eid):
    parents = [e.src for e in _edges(service, EdgeKind.CONTAINS) if e.dst == eid]
    return parents[-1] if parents else None


def _scan_ancestors(service, eid):
    """The element's chain of last ``contains`` parents, innermost first, up
    to the first parent that is not an element; None if the chain runs
    into a cycle."""
    chain, cur = [], _scan_parent(service, eid)
    while cur is not None and cur in service:
        if cur == eid or cur in (a.id for a in chain):
            return None
        chain.append(service.element(cur))
        cur = _scan_parent(service, cur)
    return chain


def _relevant_by_an_outer_guard(service) -> bool:
    index = service_index(service)
    holders = {index.place(c.id)[0] for c in q_ast(service, ElementKind.CONDITIONAL)}
    return any(
        fn.id in index.check_relevant and fn not in holders and not index.decorator_checks.get(fn.id)
        for fn in q_ast(service, ElementKind.FUNCTION)
    )


def _scan_place(service, eid):
    """The element's enclosing function and guards, outermost first, from
    an upward scan of its ancestors over all edges."""
    el = service.element(eid)
    ancestors = None if el is None else _scan_ancestors(service, eid)
    if ancestors is None:
        return None, ()
    guards = tuple(a for a in reversed(ancestors) if a.kind is ElementKind.CONDITIONAL)
    if el.kind is ElementKind.FUNCTION:
        return el, guards
    if el.kind is ElementKind.DECORATOR:
        targets = [e.dst for e in _edges(service, EdgeKind.DECORATES) if e.src == eid]
        return (service.element(targets[0]) if targets else None), guards
    return next((a for a in ancestors if a.kind is ElementKind.FUNCTION), None), guards


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

    def test_reloaded_services_and_replaced_parts_are_released(self, corpora_root, oracle, tmp_path):
        """The loader's memo keeps the parts of each file last loaded, not
        the programs built from them: two loads of one corpus, each scanned,
        both die with their programs, and the elements of a file that was
        edited are released by the next load."""
        corpus = shutil.copytree(corpora_root / "role_update", tmp_path / "role_update")
        manifest = corpus / "privflow.manifest.json"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace('"usermgmt"', '"usermgmt_reload"'), encoding="utf-8")
        programs = [load_program(corpus) for _ in range(2)]
        for program in programs:
            scan(program, oracle)
        refs = [weakref.ref(s) for program in programs for s in program.services]
        old_ids = {e.id for e in programs[0].service("usermgmt_reload").elements}
        del programs, program
        gc.collect()
        assert [r for r in refs if r() is not None] == []
        source = corpus / "usermgmt.msv"
        source.write_text("// edited\n" + source.read_text(encoding="utf-8"), encoding="utf-8")
        stale = old_ids - {e.id for e in load_program(corpus).service("usermgmt_reload").elements}
        assert stale
        gc.collect()
        assert [o for o in gc.get_objects() if isinstance(o, Element) and o.id in stale] == []

    def test_place_returns_the_index_tuples(self, corpora_root):
        service = load_program(corpora_root / "infeasible").service("transfer")
        write = next(e for e in service.elements if e.kind is ElementKind.CALL and call_callee(e) == "db.write")
        index = service_index(service)
        fn, guards = placed = index.place(write.id)
        assert placed is index.place(write.id)
        assert fn.name == "transfer" and isinstance(guards, tuple) and len(guards) == 2
        assert index.place("e000000000000") == (None, ())

    def test_else_branch_is_not_guarded(self):
        """Else-branch statements hang off the conditional's parent, so
        only the then-branch call carries the guard."""
        service = lower_snippet("fn f(g) { if g { a() } else { b() } }")
        index = service_index(service)
        calls = {call_callee(e): e for e in service.elements if e.kind is ElementKind.CALL}
        (cond,) = [e for e in service.elements if e.kind is ElementKind.CONDITIONAL]
        assert index.place(calls["a"].id) == (by_name(service, "f"), (cond,))
        assert index.place(calls["b"].id) == (by_name(service, "f"), ())

    def test_contains_cycle_places_nothing_on_or_below_it(self):
        """An element on or below a ``contains`` cycle has no function and
        no guards; the rest of the service places as usual."""
        names = ("f", "c", "v", "g", "d", "w", "s", "t")
        kinds = (ElementKind.FUNCTION, ElementKind.CONDITIONAL, ElementKind.VARIABLE, ElementKind.FUNCTION,
                 ElementKind.CONDITIONAL, ElementKind.VARIABLE, ElementKind.FUNCTION, ElementKind.VARIABLE)
        sources = {"d": 'w == "x y" || false'}
        el = {n: make_element("svc", k, name=n, line=i + 1, source=sources.get(n, ""))
              for i, (n, k) in enumerate(zip(names, kinds))}
        contains = [("f", "c"), ("c", "f"), ("c", "v"), ("g", "d"), ("d", "w"), ("s", "s"), ("s", "t")]
        service = Service.build("svc", list(el.values()), [Edge(EdgeKind.CONTAINS, el[a].id, el[b].id) for a, b in contains])
        index = service_index(service)
        for n in ("f", "c", "v", "s", "t"):
            assert index.place(el[n].id) == (None, ()), n
        assert index.place(el["w"].id) == (el["g"], (el["d"],))
        assert index.guard_types == {el["d"].id: (("w", "unknown"),)}
        assert_index_matches_edge_scans(service)

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
        assert any(_two_parents(s) for s in nested)
        assert any(_scan_ancestors(s, e.id) is None for s in nested for e in s.elements)
        assert any(_decorator_child_differs(s) for s in nested)
        assert any("false" in c.source for s in nested for c in q_ast(s, ElementKind.CONDITIONAL)
                   if c.id in service_index(s).guard_types)
        # a function inside another's conditional holds no conditional of
        # its own, but its elements carry that guard
        assert any(_relevant_by_an_outer_guard(s) for s in nested)

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
        assert service_index(service).place(both.id) == (decorated[0], ())
        assert service_index(service).decorator_checks == {f.id: [check, other], g.id: [check, other]}
        assert_index_matches_edge_scans(service)


def _declared_names(service):
    return sum(1 for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER))


def _two_parents(service):
    children = [e.dst for e in _edges(service, EdgeKind.CONTAINS)]
    return len(children) > len(set(children))


def _decorator_child_differs(service):
    """Whether some decorator's child places in another function than the
    decorator."""
    index = service_index(service)
    return any(
        service.element(e.src).kind is ElementKind.DECORATOR
        and e.dst in index.placed
        and index.place(e.dst)[0] != index.place(e.src)[0]
        for e in _edges(service, EdgeKind.CONTAINS)
    )


def _scan_var_type(service, name):
    declared = (e for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER))
    return next((e.inferred_type for e in declared if e.name == name), "unknown")


def assert_index_matches_edge_scans(service):
    index = service_index(service)
    calls = _edges(service, EdgeKind.CALLS)
    declared = {e.name for e in service.elements if e.kind in (ElementKind.VARIABLE, ElementKind.PARAMETER)}
    assert index.var_types == {name: _scan_var_type(service, name) for name in declared}
    reached = {e.id for e in service.elements if _scan_ancestors(service, e.id) is not None}
    assert set(index.placed) == reached
    conditionals = q_ast(service, ElementKind.CONDITIONAL)
    assert set(index.guard_types) == {c.id for c in conditionals if c.id in reached}
    for cond in conditionals:
        if cond.id in reached:
            assert index.guard_types[cond.id] == scan_guard_var_types(service, cond.source), cond
    sources = [
        e for e in service.elements
        if e.kind is ElementKind.ENDPOINT or (e.kind is ElementKind.CALL and call_callee(e) in INBOUND_INTRINSICS)
    ]
    assert q_source(service) == tuple(sorted(sources, key=lambda e: (e.location.file, e.location.line, e.location.col, e.id)))
    assert index.place("unknown") == (None, ())
    guarded = (_scan_place(service, e.id) for e in service.elements)
    relevant = {fn.id if fn else None for fn, guards in guarded if guards}
    relevant |= {e.id for e in service.elements if scan_decorator_checks(service, e.id)}
    assert index.check_relevant == relevant
    for el in service.elements:
        assert index.place(el.id) == _scan_place(service, el.id), el
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
            if service.element(e.dst).kind is ElementKind.FUNCTION and _scan_place(service, e.src)[0] == el
        }
        callers = {
            caller.id
            for e in calls
            if e.dst == el.id and (caller := _scan_place(service, e.src)[0]) is not None
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
    order and sharing positions. Now and then an element gets a second
    ``contains`` parent, which may close a cycle. Variable and parameter
    names repeat with differing types and guards name declared and
    undeclared variables; decorators decorate one or two functions;
    decorators and calls call functions and, now and then, other
    elements."""
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
        source = {
            ElementKind.CALL: rng.choice(('consume("t")', f"f{i}(x)")),
            ElementKind.CONDITIONAL: rng.choice(('a == 1 && z != "b c"', "b == c", "true || false || a")),
        }.get(kind, "")
        elements.append(make_element(name, kind, name=label, line=line, source=source,
                                     itype=rng.choice(("int", "string", "unknown"))))
    functions = [e for e in elements if e.kind is ElementKind.FUNCTION]
    edges = []
    for i in range(1, len(elements)):
        if rng.random() < 0.8:
            edges.append(Edge(EdgeKind.CONTAINS, elements[rng.randrange(i)].id, elements[i].id))
        if rng.random() < 0.15:
            edges.append(Edge(EdgeKind.CONTAINS, rng.choice(elements).id, elements[i].id))
    for el in elements:
        if el.kind is ElementKind.DECORATOR and functions:
            for fn in rng.sample(functions, min(len(functions), rng.randint(1, 2))):
                edges.append(Edge(EdgeKind.DECORATES, el.id, fn.id))
        if el.kind in (ElementKind.DECORATOR, ElementKind.CALL):
            callees = rng.sample(functions, min(len(functions), rng.randint(0, 2)))
            for callee in callees + ([rng.choice(elements)] if rng.random() < 0.3 else []):
                edges.append(Edge(EdgeKind.CALLS, el.id, callee.id))
    return Service.build(name, elements, edges)
