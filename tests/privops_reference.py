"""Reference code the privileged-operation tests check
``pipeline.find_privileged_ops`` against: the same search loop, except
that it asks the backend about every function a query matches, whether
or not the function has a call site a verdict could mark."""

from __future__ import annotations

import itertools

from privflow.model import ElementKind, Program, call_callee
from privflow.pipeline import BASELINE_SINKS, PrivilegedOperation
from privflow.reasoner import ClassifyPrivileged, NextSearchAction, _query_key
from privflow.search import BadPattern, call_sites_of, get_source, q_ast, q_name


def ask_every_candidate(program: Program, backend) -> list[PrivilegedOperation]:
    """The baseline sink intrinsics plus each call site of a function the
    backend classifies privileged, in the order the scan sorts them. Each
    round asks ``backend`` for its plan and runs its ``q_name`` queries;
    the search ends at an empty plan or a round that adds no operation.
    Every distinct task is asked once, so no memo is needed."""
    services = sorted(program.services, key=lambda s: s.name)
    ops: dict[str, PrivilegedOperation] = {}
    for service in services:
        for c in q_ast(service, ElementKind.CALL):
            if call_callee(c) in BASELINE_SINKS:
                ops[c.id] = PrivilegedOperation(
                    c.id, service.name, "security-critical-action", f"standard sink intrinsic '{call_callee(c)}'"
                )
    classified: set[str] = set()
    executed: list[str] = []
    added: list[str] = []
    names = tuple(s.name for s in services)
    for round_no in itertools.count(1):
        plan = backend.reason(NextSearchAction(round_no, names, tuple(executed), tuple(added), tools=("q_name",)))
        added = []
        for action in plan:
            if action.tool != "q_name":
                executed.append(f"{action.tool}:?")
                continue
            service = program.service(str(action.args.get("service", "")))
            pattern = str(action.args.get("pattern", ""))
            executed.append(_query_key("q_name", action.args))
            if service is None or not pattern:
                continue
            try:
                results = q_name(service, pattern, str(action.args.get("mode", "regex")))
            except BadPattern:
                continue
            for el in results:
                if el.kind is not ElementKind.FUNCTION or el.id in classified:
                    continue
                classified.add(el.id)
                verdict = backend.reason(ClassifyPrivileged(element=el.id, name=el.name, source=get_source(service, el)))
                if verdict.category is None:
                    continue
                sites = [site for site in call_sites_of(service, el.id) if site.id not in ops]
                for site in sites:
                    ops[site.id] = PrivilegedOperation(
                        site.id, service.name, verdict.category, f"call to {el.name}: {verdict.rationale}"
                    )
                if sites:
                    added.append(f"{service.name}:{el.name}")
        if not added:
            break

    def key(op: PrivilegedOperation):
        location = program.element(op.service, op.element).location
        return (op.service, location.file, location.line, location.col, op.element)

    return sorted(ops.values(), key=key)
