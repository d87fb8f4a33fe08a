"""Lower a parsed MiniSrv file into Service facts.

Emission rules:

* one element per declaration, statement, call, member access and literal;
  statement-level granularity (each statement owns exactly one element, a
  ``@route`` function additionally yields an ``endpoint`` element);
* ``contains`` edges mirror the syntax tree (function -> statements and
  locals, conditional -> then-branch statements, statement/call -> nested
  expression elements). Else-branch statements hang off the conditional's
  parent so guard extraction stays branch-sensitive;
* ``calls`` edges for intra-service calls resolved by exact name, plus
  decorator -> check-function edges for ``@auth``;
* def-use ``dataflow`` edges: assignment rhs -> lhs, argument -> parameter
  for resolved calls, return expression -> call site, member-access base ->
  access result, ``+`` operands -> result, argument -> call site (so flows
  terminate at sink call sites), endpoint -> handler inputs. Conditionals
  never propagate.

Literal constants of every type use kind ``string_literal`` (the facts
vocabulary has a single literal kind); ``inferred_type`` carries the value
type. Channel identifiers for the communication intrinsics are resolved here
by walking assignments backward to string constants, and stored on the
Service.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..model import INBOUND_INTRINSICS, OUTBOUND_INTRINSICS
from ..model import Channel, Edge, EdgeKind, Element, ElementKind, Location, Service, element_id
from .nodes import (
    Assign,
    BinOp,
    BoolLit,
    Call,
    ConstDef,
    FuncDef,
    If,
    IntLit,
    Member,
    MiniSrvAst,
    Name,
    Return,
    StrLit,
)

#: Built-in callees with special meaning. Values are their result type tags.
INTRINSIC_RETURNS = {
    "request.param": "string",
    "session.get": "string",
    "consume": "string",
    "db.read": "object",
    "db.write": "object",
    "http_post": "object",
    "http_get": "object",
    "publish": "object",
    "exec": "object",
}


class LoweringError(Exception):
    def __init__(self, location: Location, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class _FnScope:
    """One function's lowering state, filled while its body is lowered."""

    __slots__ = ("func", "element", "params", "locals", "request_var", "var_types", "assignments", "return_sources")

    def __init__(self, func: FuncDef, element: Element) -> None:
        self.func = func
        self.element = element
        self.params: dict[str, Element] = {}
        self.locals: dict[str, Element] = {}
        self.request_var: Element | None = None
        self.var_types: dict[str, str] = {}
        self.assignments: dict[str, list] = {}  # name -> rhs exprs
        self.return_sources: list[str] = []


class _Lowerer:
    def __init__(self, ast: MiniSrvAst, service_name: str):
        self.ast = ast
        self.service = service_name
        self.file = ast.file
        self.elements: dict[str, Element] = {}
        self.edges: set[Edge] = set()
        self.channels: list[Channel] = []
        self.consts: dict[str, Element] = {}
        self.const_values: dict[str, object] = {}
        self.scopes: dict[str, _FnScope] = {}
        self.call_sites: list[tuple[Element, str]] = []  # (call element, callee path)

    # -- element helpers -------------------------------------------------

    def new_element(self, kind: ElementKind, name: str, node, source: str, itype: str = "unknown") -> Element:
        loc = self.ast.location(node)
        eid = element_id(self.service, self.file, loc.line, loc.col, kind)
        existing = self.elements.get(eid)
        if existing is not None:
            return existing
        el = Element(eid, self.service, kind, name, loc, source, itype)
        self.elements[eid] = el
        return el

    def span_text(self, node) -> str:
        return self.ast.text[node.span[0] : node.span[1]]

    def edge(self, kind: EdgeKind, src: Element, dst: Element) -> None:
        self.edges.add(Edge(kind, src.id, dst.id))

    # -- driver -----------------------------------------------------------

    def run(self) -> Service:
        for item in self.ast.consts():
            self.lower_const(item)
        # declare every function and its parameters first so calls resolve
        # regardless of definition order
        for fn in self.ast.functions():
            if fn.name in self.scopes:
                raise LoweringError(self.ast.location(fn), f"function {fn.name!r} is already defined")
            fn_el = self.new_element(ElementKind.FUNCTION, fn.name, fn, self.span_text(fn), "function")
            scope = _FnScope(fn, fn_el)
            for p in fn.params:
                p_el = self.new_element(ElementKind.PARAMETER, p.name, p, p.name)
                scope.params[p.name] = p_el
                self.edge(EdgeKind.CONTAINS, fn_el, p_el)
            self.scopes[fn.name] = scope
        for fn in self.ast.functions():
            self.lower_function(self.scopes[fn.name])
        self.wire_returns()
        return Service.build(self.service, list(self.elements.values()), self.edges, self.channels)

    def lower_const(self, item: ConstDef) -> None:
        lit = item.value
        lit_el = self.lower_literal(lit)
        var = self.new_element(ElementKind.VARIABLE, item.name, item, self.span_text(item), lit_el.inferred_type)
        self.consts[item.name] = var
        self.const_values[item.name] = lit.value
        self.edge(EdgeKind.DATAFLOW, lit_el, var)

    def lower_literal(self, lit) -> Element:
        itype = {IntLit: "int", StrLit: "string", BoolLit: "bool"}[type(lit)]
        return self.new_element(ElementKind.STRING_LITERAL, "", lit, self.span_text(lit), itype)

    def lower_function(self, scope: _FnScope) -> None:
        fn = scope.func
        fn_el = scope.element

        endpoints: list[Element] = []
        for dec in fn.decorators:
            dec_el = self.new_element(ElementKind.DECORATOR, dec.name, dec, self.span_text(dec))
            self.edge(EdgeKind.DECORATES, dec_el, fn_el)
            if dec.name == "route":
                path = dec.args[1].value
                ep = self.new_element(ElementKind.ENDPOINT, path, dec, self.span_text(dec))
                self.edge(EdgeKind.CONTAINS, fn_el, ep)
                endpoints.append(ep)
            else:  # auth
                check_name = dec.args[0].ident
                check = self.scopes.get(check_name)
                if check is None:
                    raise LoweringError(
                        self.ast.location(dec), f"@auth references undefined check function {check_name!r}"
                    )
                self.edge(EdgeKind.CALLS, dec_el, check.element)

        for stmt in fn.body:
            self.lower_stmt(stmt, fn_el, scope)

        # request data enters through the route: wire endpoints to the
        # handler's inputs so cross-service stitching composes.
        for ep in endpoints:
            for p_el in scope.params.values():
                self.edge(EdgeKind.DATAFLOW, ep, p_el)
            if scope.request_var is not None:
                self.edge(EdgeKind.DATAFLOW, ep, scope.request_var)

    # -- statements --------------------------------------------------------

    def lower_stmt(self, stmt, parent: Element, scope: _FnScope) -> None:
        if isinstance(stmt, Assign):
            rhs_sources, rhs_tops = self.lower_expr(stmt.value, scope)
            var = scope.locals.get(stmt.target) or scope.params.get(stmt.target)
            if var is None:
                var = self.new_element(ElementKind.VARIABLE, stmt.target, stmt, stmt.target)
                scope.locals[stmt.target] = var
                self.edge(EdgeKind.CONTAINS, scope.element, var)
            assign_el = self.new_element(ElementKind.ASSIGNMENT, "", stmt, self.span_text(stmt))
            self.edge(EdgeKind.CONTAINS, parent, assign_el)
            for top in rhs_tops:
                self.edge(EdgeKind.CONTAINS, assign_el, top)
            for src in rhs_sources:
                self.edge(EdgeKind.DATAFLOW, src, var)
            rhs_type = self.rhs_type(stmt.value, scope)
            if rhs_type is not None:
                scope.var_types[stmt.target] = rhs_type
                self.elements[var.id] = Element(
                    var.id, var.service, var.kind, var.name, var.location, var.source, rhs_type
                )
            scope.assignments.setdefault(stmt.target, []).append(stmt.value)
        elif isinstance(stmt, Call):
            _, tops = self.lower_call(stmt, scope)
            for top in tops:
                self.edge(EdgeKind.CONTAINS, parent, top)
        elif isinstance(stmt, If):
            cond_el = self.new_element(ElementKind.CONDITIONAL, "", stmt, self.span_text(stmt.cond))
            self.edge(EdgeKind.CONTAINS, parent, cond_el)
            _, guard_tops = self.lower_expr(stmt.cond, scope)
            for top in guard_tops:
                self.edge(EdgeKind.CONTAINS, cond_el, top)
            for inner in stmt.then_body:
                self.lower_stmt(inner, cond_el, scope)
            for inner in stmt.else_body:
                self.lower_stmt(inner, parent, scope)
        elif isinstance(stmt, Return):
            ret_el = self.new_element(ElementKind.RETURN_STMT, "", stmt, self.span_text(stmt))
            self.edge(EdgeKind.CONTAINS, parent, ret_el)
            if stmt.value is not None:
                sources, tops = self.lower_expr(stmt.value, scope)
                for top in tops:
                    self.edge(EdgeKind.CONTAINS, ret_el, top)
                scope.return_sources.extend(s.id for s in sources)
        else:  # pragma: no cover - parser only produces the above
            raise LoweringError(self.ast.location(stmt), f"unsupported statement {stmt!r}")

    # -- expressions --------------------------------------------------------

    def lower_expr(self, expr, scope: _FnScope) -> tuple[list[Element], list[Element]]:
        """Returns (flow sources, elements created at this nesting level)."""
        if isinstance(expr, (IntLit, StrLit, BoolLit)):
            el = self.lower_literal(expr)
            return [el], [el]
        if isinstance(expr, Name):
            el = self.resolve_name(expr.ident, expr, scope)
            return ([el] if el is not None else []), []
        if isinstance(expr, Member):
            fa = self.new_element(ElementKind.FIELD_ACCESS, "", expr, self.span_text(expr))
            base = self.resolve_name(expr.base, expr, scope)
            if base is not None:
                self.edge(EdgeKind.DATAFLOW, base, fa)
            return [fa], [fa]
        if isinstance(expr, Call):
            return self.lower_call(expr, scope)
        if isinstance(expr, BinOp):
            l_sources, l_tops = self.lower_expr(expr.lhs, scope)
            r_sources, r_tops = self.lower_expr(expr.rhs, scope)
            tops = l_tops + r_tops
            if expr.op == "+":
                return l_sources + r_sources, tops
            # comparisons and boolean operators guard control flow; they do
            # not carry the operand data onward
            return [], tops
        raise LoweringError(self.ast.location(expr), f"unsupported expression {expr!r}")

    def lower_call(self, call: Call, scope: _FnScope) -> tuple[list[Element], list[Element]]:
        itype = INTRINSIC_RETURNS.get(call.callee, "unknown")
        call_el = self.new_element(ElementKind.CALL, "", call, self.span_text(call), itype)
        self.call_sites.append((call_el, call.callee))

        arg_sources: list[list[Element]] = []
        for arg in call.args:
            sources, tops = self.lower_expr(arg, scope)
            arg_sources.append(sources)
            for top in tops:
                self.edge(EdgeKind.CONTAINS, call_el, top)
            for src in sources:
                self.edge(EdgeKind.DATAFLOW, src, call_el)

        callee = self.scopes.get(call.callee)
        if callee is not None:
            self.edge(EdgeKind.CALLS, call_el, callee.element)
            params = callee.func.params
            for i, sources in enumerate(arg_sources):
                if i < len(params):
                    p_el = callee.params[params[i].name]
                    for src in sources:
                        self.edge(EdgeKind.DATAFLOW, src, p_el)
        elif call.callee.startswith("request."):
            req = self.request_var(call, scope)
            self.edge(EdgeKind.DATAFLOW, req, call_el)

        self.collect_channel(call, call_el, scope)
        return [call_el], [call_el]

    def resolve_name(self, ident: str, node, scope: _FnScope) -> Element | None:
        if ident in scope.params:
            return scope.params[ident]
        if ident in scope.locals:
            return scope.locals[ident]
        if ident in self.consts:
            return self.consts[ident]
        if ident == "request":
            return self.request_var(node, scope)
        return None

    def request_var(self, node, scope: _FnScope) -> Element:
        if scope.request_var is None:
            scope.request_var = self.new_element(ElementKind.VARIABLE, "request", node, "request", "object")
            self.edge(EdgeKind.CONTAINS, scope.element, scope.request_var)
        return scope.request_var

    # -- derived facts ------------------------------------------------------

    def wire_returns(self) -> None:
        """Return expression -> call-site result, for resolved calls."""
        for call_el, callee in self.call_sites:
            scope = self.scopes.get(callee)
            if scope is None:
                continue
            for src_id in scope.return_sources:
                self.edges.add(Edge(EdgeKind.DATAFLOW, src_id, call_el.id))

    def rhs_type(self, expr, scope: _FnScope) -> str | None:
        """One-step type of an assignment rhs: literals, intrinsic results,
        and concatenation of known operands. Copies do not retype."""
        if isinstance(expr, IntLit):
            return "int"
        if isinstance(expr, StrLit):
            return "string"
        if isinstance(expr, BoolLit):
            return "bool"
        if isinstance(expr, Call):
            return INTRINSIC_RETURNS.get(expr.callee)
        if isinstance(expr, BinOp) and expr.op == "+":
            lt = self.operand_type(expr.lhs, scope)
            rt = self.operand_type(expr.rhs, scope)
            if lt == rt and lt in ("string", "int"):
                return lt
        return None

    def operand_type(self, expr, scope: _FnScope) -> str | None:
        t = self.rhs_type(expr, scope)
        if t is not None:
            return t
        if isinstance(expr, Name):
            if expr.ident in scope.var_types:
                return scope.var_types[expr.ident]
            if expr.ident in self.consts:
                return self.consts[expr.ident].inferred_type
        return None

    def collect_channel(self, call: Call, call_el: Element, scope: _FnScope) -> None:
        protocol = OUTBOUND_INTRINSICS.get(call.callee) or INBOUND_INTRINSICS.get(call.callee)
        if protocol is None or not call.args:
            return
        direction = "out" if call.callee in OUTBOUND_INTRINSICS else "in"
        ident = self.resolve_constant(call.args[0], scope)
        if isinstance(ident, str) and ident:
            self.channels.append(Channel(call_el.id, direction, protocol, ident))

    def resolve_constant(self, expr, scope: _FnScope, visiting: Iterable[str] = ()) -> str | None:
        """Backward walk from an expression to the string constant it
        denotes. A chain of copies, each name assigned once, is followed in
        a loop, so only ``+`` recurses, as deep as the parser's nesting
        bound. A name already followed, in ``visiting`` or in this chain,
        is a cycle and denotes nothing."""
        followed = set(visiting)
        while isinstance(expr, Name):
            if expr.ident in self.const_values:
                v = self.const_values[expr.ident]
                return v if isinstance(v, str) else None
            assigns = scope.assignments.get(expr.ident, [])
            if expr.ident in followed or len(assigns) != 1:
                return None
            followed.add(expr.ident)
            expr = assigns[0]
        if isinstance(expr, StrLit):
            return expr.value
        if isinstance(expr, BinOp) and expr.op == "+":
            lhs = self.resolve_constant(expr.lhs, scope, followed)
            rhs = self.resolve_constant(expr.rhs, scope, followed)
            if lhs is not None and rhs is not None:
                return lhs + rhs
        return None


def lower(ast: MiniSrvAst, service_name: str) -> Service:
    """Lower a parsed MiniSrv file into an immutable Service facts bag."""
    return _Lowerer(ast, service_name).run()
