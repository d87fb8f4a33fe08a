"""End-to-end scan orchestration.

``scan`` composes the stages: privileged-operation identification (baseline
sink intrinsics plus a reasoner-driven search loop), global flow
construction, and per-flow validation (constraint pruning, check
localization with on-demand context retrieval, sufficiency assessment).
Flow counts are conserved through the funnel:

    initial = constraint_pruned + protected_dropped + findings + budget_truncated

Every primitive call and reasoner task is recorded in a replayable
tool-call trace, which also enforces the per-phase call budget. Every task
is recorded; each distinct task reaches the backend once per scan, through
the scan's ``reasoner.Memo``. A task is recorded before it is looked up, so
the record that exhausts the budget asks the backend nothing.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

from .constraints import check_sat, Sat, Unsat, emit_smtlib, extract_path_constraints
from .crossflow import (
    PATH_CAP,
    GlobalPath,
    Recorder,
    ambiguous_matches,
    build_global_graph,
    match_channels,
    path_functions,
    q_globalflow,
    q_inter,
    q_user,
    unrecorded,
)
from .model import Element, ElementKind, Program, Service, call_callee, validate_program
from .reasoner import (
    AssessSufficiency,
    CheckDescriptor,
    ClassifyCheck,
    ClassifyPrivileged,
    Memo,
    NextSearchAction,
    _query_key,
)
from .search import (
    BadPattern,
    FlowPath,
    call_sites_of,
    get_source,
    q_ast,
    q_cg,
    q_name,
    service_index,
)

#: Call sites always treated as privileged, independent of the reasoner.
BASELINE_SINKS = {"db.write", "exec"}

PHASE_PRIVOPS = "privileged_ops"
PHASE_FLOW = "flow"
PHASE_VALIDATION = "validation"


class ProgramInvalid(Exception):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class PrivilegedOperation:
    element: str
    service: str
    category: str  # sensitive-resource | security-critical-action | protected-state
    rationale: str

    def __post_init__(self) -> None:
        if self.category not in ("sensitive-resource", "security-critical-action", "protected-state"):
            raise ValueError(f"unknown privileged-operation category {self.category!r}")


@dataclass(frozen=True)
class CheckFinding:
    element: str
    service: str
    name: str
    classification: str  # authn | authz
    authz_subtype: str  # role | permission | ownership | none
    attachment: str  # decorator | inline
    rationale: str
    source: str

    def __post_init__(self) -> None:
        if self.classification == "authn" and self.authz_subtype != "none":
            raise ValueError("authn checks carry no authz subtype")
        if self.classification == "authz" and self.authz_subtype == "none":
            raise ValueError("authz checks need a subtype")


@dataclass(frozen=True)
class Finding:
    path: GlobalPath
    privop: PrivilegedOperation
    checks: tuple[CheckFinding, ...]
    verdict: str  # unprotected | missing_authz | insufficient_authz
    feasibility: str  # feasible | unknown
    rationale: str
    constraint_status: str  # sat | unknown | skipped
    smt_file: str | None = None

    def __post_init__(self) -> None:
        if self.verdict not in ("unprotected", "missing_authz", "insufficient_authz"):
            raise ValueError(f"finding verdict cannot be {self.verdict!r}")
        if self.feasibility not in ("feasible", "unknown"):
            raise ValueError(f"finding feasibility cannot be {self.feasibility!r}")


@dataclass(frozen=True)
class ScanBudget:
    max_tool_calls_per_phase: int = 40
    max_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.max_tool_calls_per_phase <= 0 or self.max_seconds <= 0:
            raise ValueError("budget limits must be positive")


@dataclass
class ScanOptions:
    basic_sink: bool = False
    on_demand_context: bool = True
    emit_smt_dir: str | None = None
    trace_path: str | None = None


class BudgetExhausted(Exception):
    def __init__(self, phase: str, reason: str, partial=None):
        self.phase = phase
        self.reason = reason
        self.partial = partial
        super().__init__(f"{phase}: {reason}")


class Tracer:
    """Tool-call audit log; also the budget meter."""

    def __init__(self, budget: ScanBudget):
        self.budget = budget
        self.calls: list[dict] = []
        self.per_phase: dict[str, int] = {}
        self.started = time.monotonic()

    def record(self, phase: str, tool: str, args: dict, result_count: int) -> None:
        count = self.per_phase.get(phase, 0) + 1
        self.per_phase[phase] = count
        # timing lives only here, never in the report body
        self.calls.append(
            {
                "seq": len(self.calls) + 1,
                "phase": phase,
                "tool": tool,
                "args": args,
                "result_count": result_count,
                "elapsed_ms": round((time.monotonic() - self.started) * 1000, 3),
            }
        )
        if count > self.budget.max_tool_calls_per_phase:
            raise BudgetExhausted(phase, f"exceeded {self.budget.max_tool_calls_per_phase} tool calls")
        if time.monotonic() - self.started > self.budget.max_seconds:
            raise BudgetExhausted(phase, f"exceeded {self.budget.max_seconds:.0f}s wall clock")

    def write(self, path: str | Path) -> None:
        lines = [json.dumps(c, sort_keys=True) for c in self.calls]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# --- privileged operation identification ------------------------------------------


def find_privileged_ops(
    program: Program,
    reasoner,
    budget: ScanBudget | None = None,
    tracer: Tracer | None = None,
    basic_sink: bool = False,
) -> list[PrivilegedOperation]:
    """Baseline sink intrinsics plus reasoner-proposed searches, classified
    one candidate at a time, until a full round adds nothing new.

    On budget exhaustion the raised BudgetExhausted carries the partial
    operation list."""
    tracer = tracer or Tracer(budget or ScanBudget())
    ops: dict[str, PrivilegedOperation] = {}
    try:
        return _find_privileged_ops(program, reasoner, tracer, basic_sink, ops)
    except BudgetExhausted as exc:
        raise BudgetExhausted(exc.phase, exc.reason, partial=_sorted_ops(program, ops))


def _find_privileged_ops(
    program: Program,
    reasoner,
    tracer: Tracer,
    basic_sink: bool,
    ops: dict[str, PrivilegedOperation],
) -> list[PrivilegedOperation]:
    services = sorted(program.services, key=lambda s: s.name)
    for service in services:
        calls = q_ast(service, ElementKind.CALL)
        tracer.record(PHASE_PRIVOPS, "q_ast", {"service": service.name, "kind": "call"}, len(calls))
        for c in calls:
            callee = call_callee(c)
            if callee in BASELINE_SINKS:
                ops[c.id] = PrivilegedOperation(
                    c.id, service.name, "security-critical-action", f"standard sink intrinsic '{callee}'"
                )
    if basic_sink:
        return _sorted_ops(program, ops)

    classified: set[str] = set()
    executed: list[str] = []
    round_no = 1
    new_this_round = 0
    service_names = tuple(s.name for s in services)

    while True:
        task = NextSearchAction(
            round=round_no,
            services=service_names,
            executed=tuple(executed),
            new_ops_this_round=new_this_round,
            tools=("q_name", "new_round", "finish"),
        )
        tracer.record(PHASE_PRIVOPS, "reason", {"task": "NextSearchAction", "round": round_no}, 1)
        action = reasoner.reason(task)
        if action.tool == "finish":
            break
        if action.tool == "new_round":
            round_no += 1
            new_this_round = 0
            executed = []
            continue
        if action.tool != "q_name":
            # an off-vocabulary proposal burns budget but cannot derail the scan
            executed.append(f"{action.tool}:?")
            continue

        service = program.service(str(action.args.get("service", "")))
        pattern = str(action.args.get("pattern", ""))
        mode = str(action.args.get("mode", "regex"))
        executed.append(_query_key("q_name", action.args))
        if service is None or not pattern:
            continue
        try:
            results = q_name(service, pattern, mode)
        except BadPattern:
            continue
        tracer.record(PHASE_PRIVOPS, "q_name", {"service": service.name, "pattern": pattern, "mode": mode}, len(results))

        for el in results:
            if el.kind is not ElementKind.FUNCTION or el.id in classified:
                continue
            classified.add(el.id)
            source = get_source(service, el)
            tracer.record(PHASE_PRIVOPS, "get_source", {"service": service.name, "element": el.id}, 1)
            tracer.record(PHASE_PRIVOPS, "reason", {"task": "ClassifyPrivileged", "element": el.id}, 1)
            verdict = reasoner.reason(ClassifyPrivileged(element=el.id, name=el.name, source=source))
            if verdict.category is None:
                continue
            callers = q_cg(service, el.id, "callers")
            tracer.record(PHASE_PRIVOPS, "q_cg", {"service": service.name, "function": el.name, "direction": "callers"}, len(callers))
            for site in call_sites_of(service, el.id):
                if site.id in ops:
                    continue
                ops[site.id] = PrivilegedOperation(
                    site.id, service.name, verdict.category, f"call to {el.name}: {verdict.rationale}"
                )
                new_this_round += 1
    return _sorted_ops(program, ops)


def _sorted_ops(program: Program, ops: dict[str, PrivilegedOperation]) -> list[PrivilegedOperation]:
    def key(op: PrivilegedOperation):
        el = program.element(op.service, op.element)
        if el is None:
            return (op.service, "", 0, 0, op.element)
        return (op.service, el.location.file, el.location.line, el.location.col, op.element)

    return sorted(ops.values(), key=key)


# --- check localization --------------------------------------------------------------


def locate_checks(
    groups,
    reasoner,
    record: Recorder = unrecorded,
    max_hops: int = 4,
) -> tuple[list[CheckFinding], list[str], set[str]]:
    """AuthN/authZ checks correlated with a flow.

    Reads the path's ``crossflow.path_functions`` groups. For every function
    on the path, collects decorator-attached check functions (following
    decorator -> check -> helper call chains up to ``max_hops``) and the
    inline conditionals whose guarded block contains the flow. Every tool
    call goes to ``record(tool, args, count)``. Returns (checks, context
    snippets, context element ids).
    """
    checks: list[CheckFinding] = []
    contexts: list[str] = []
    context_ids: set[str] = set()
    seen_candidates: set[str] = set()

    def classify(service: Service, task: ClassifyCheck) -> None:
        record("reason", {"task": "ClassifyCheck", "element": task.element}, 1)
        verdict = reasoner.reason(task)
        if verdict.classification in ("authn", "authz"):
            checks.append(
                CheckFinding(
                    element=task.element,
                    service=service.name,
                    name=task.name,
                    classification=verdict.classification,
                    authz_subtype=verdict.authz_subtype,
                    attachment=task.attachment,
                    rationale=verdict.rationale,
                    source=task.source,
                )
            )

    for service, fn, guards in groups:
        if fn is None:
            continue
        for check_fn in service_index(service).decorator_checks.get(fn.id, ()):
            if check_fn.id in seen_candidates:
                continue
            seen_candidates.add(check_fn.id)
            source = get_source(service, check_fn)
            record("get_source", {"service": service.name, "element": check_fn.id}, 1)
            context_ids.add(check_fn.id)
            helper_sources = _helper_contexts(service, check_fn, max_hops - 1, context_ids, record)
            contexts.extend(helper_sources)
            task = ClassifyCheck(
                element=check_fn.id, name=check_fn.name, source=source, attachment="decorator", context=tuple(helper_sources)
            )
            classify(service, task)
        for cond in sorted(guards, key=lambda e: e.sort_key):
            if cond.id in seen_candidates:
                continue
            seen_candidates.add(cond.id)
            context_ids.add(cond.id)
            classify(service, ClassifyCheck(element=cond.id, name="", source=cond.source, attachment="inline"))
    return checks, contexts, context_ids


def _helper_contexts(
    service: Service, check_fn: Element, hops: int, context_ids: set[str], record: Recorder
) -> list[str]:
    """Sources of functions reachable from the check within the hop budget."""
    sources: list[str] = []
    if hops <= 0:
        return sources
    frontier = [check_fn.id]
    visited = {check_fn.id}
    for _ in range(hops):
        nxt: list[str] = []
        for fid in frontier:
            callees = q_cg(service, fid, "callees")
            record("q_cg", {"service": service.name, "function": fid, "direction": "callees"}, len(callees))
            for callee in callees:
                if callee.id in visited:
                    continue
                visited.add(callee.id)
                sources.append(get_source(service, callee))
                record("get_source", {"service": service.name, "element": callee.id}, 1)
                context_ids.add(callee.id)
                nxt.append(callee.id)
        frontier = nxt
        if not frontier:
            break
    return sources


# --- sufficiency ----------------------------------------------------------------------


def assess_flow(
    program: Program,
    privop: PrivilegedOperation,
    checks: list[CheckFinding],
    contexts: list[str],
    reasoner,
):
    """AssessSufficiency verdict for one flow; 'protected' exits the funnel."""
    el = program.element(privop.service, privop.element)
    source = el.source if el else ""
    name = call_callee(el) if el else ""
    descriptors = tuple(
        CheckDescriptor(classification=c.classification, subtype=c.authz_subtype, name=c.name, source=c.source)
        for c in checks
    )
    task = AssessSufficiency(
        privop_name=name or source,
        privop_source=source,
        privop_category=privop.category,
        checks=descriptors,
        contexts=tuple(contexts),
    )
    return reasoner.reason(task)


# --- scan -----------------------------------------------------------------------------


def scan(
    program: Program,
    reasoner,
    budget: ScanBudget | None = None,
    options: ScanOptions | None = None,
) -> dict:
    """Run the full pipeline and return the schema-versioned report payload.

    Findings share one record per privileged operation and per path
    element (step and evidence), so the payload is read-only: changing one
    record would change it in every finding."""
    budget = budget or ScanBudget()
    options = options or ScanOptions()
    violations = validate_program(program)
    if violations:
        raise ProgramInvalid(violations)
    # an unwritable output fails the scan before any work is spent
    smt_dir = Path(options.emit_smt_dir) if options.emit_smt_dir else None
    if smt_dir is not None:
        smt_dir.mkdir(parents=True, exist_ok=True)
    if options.trace_path:
        Path(options.trace_path).write_text("", encoding="utf-8")

    reasoner = Memo(reasoner)
    tracer = Tracer(budget)
    exhausted_reason: str | None = None

    privops: list[PrivilegedOperation] = []
    flows: list[GlobalPath] = []
    flows_truncated = False
    user_sources: list[Element] = []
    channel_edges = []
    unresolved = []

    try:
        try:
            privops = find_privileged_ops(program, reasoner, tracer=tracer, basic_sink=options.basic_sink)
        except BudgetExhausted as exc:
            privops = list(exc.partial or [])
            raise

        record_flow = functools.partial(tracer.record, PHASE_FLOW)
        matched = match_channels(program)
        graph = build_global_graph(program, privops, matched, record=record_flow)
        # a report whose budget ran out during the graph lists no channels
        channel_edges = matched
        for service in program.services:
            unresolved.extend(q_inter(service).unresolved)
        user_sources = q_user(program, reasoner)
        record_flow("q_user", {"entry": program.manifest.entry_service()}, len(user_sources))
        result = q_globalflow(graph, user_sources, privops)
        record_flow("q_globalflow", {"sources": len(user_sources), "sinks": len(privops)}, len(result.paths))
        flows = result.paths
        flows_truncated = result.truncated
    except BudgetExhausted as exc:
        exhausted_reason = str(exc)

    ops_by_element = {op.element: op for op in privops}
    findings: list[Finding] = []
    pruned: list[str] = []
    dropped: list[str] = []
    budget_truncated = 0
    full_context_ids: set[str] = set()

    if exhausted_reason is None:
        max_hops = 4 if options.on_demand_context else 1
        record_validation = functools.partial(tracer.record, PHASE_VALIDATION)
        for index, flow in enumerate(flows):
            try:
                finding, status = _validate_flow(
                    program, flow, ops_by_element, reasoner, record_validation, max_hops, smt_dir, full_context_ids
                )
            except BudgetExhausted as exc:
                budget_truncated = len(flows) - index
                exhausted_reason = str(exc)
                break
            if status == "pruned":
                pruned.append(flow.id)
            elif status == "protected":
                dropped.append(flow.id)
            else:
                findings.append(finding)

    payload = _report_payload(
        program=program,
        reasoner_name=reasoner.name,
        options=options,
        privops=privops,
        user_sources=user_sources,
        channel_edges=channel_edges,
        unresolved=unresolved,
        flows=flows,
        flows_truncated=flows_truncated,
        pruned=pruned,
        dropped=dropped,
        budget_truncated=budget_truncated,
        findings=findings,
        tracer=tracer,
        budget=budget,
        exhausted_reason=exhausted_reason,
        context_ids=full_context_ids,
    )
    if options.trace_path:
        tracer.write(options.trace_path)
    return payload


def _validate_flow(
    program: Program,
    flow: GlobalPath,
    ops_by_element: dict[str, PrivilegedOperation],
    reasoner,
    record: Recorder,
    max_hops: int,
    smt_dir: Path | None,
    context_ids: set[str],
):
    groups = path_functions(program, flow)
    record("reason", {"task": "ExtractConstraints", "flow": flow.id}, 1)
    constraint = extract_path_constraints(groups, reasoner)

    smt_file: str | None = None
    constraint_status = "skipped"
    if constraint is not None:
        if smt_dir is not None:
            smt_file = f"{flow.id}.smt2"
            (smt_dir / smt_file).write_text(emit_smtlib(constraint), encoding="utf-8")
        verdict = check_sat(constraint)
        if isinstance(verdict, Unsat):
            return None, "pruned"
        constraint_status = "sat" if isinstance(verdict, Sat) else "unknown"

    checks, contexts, ctx_ids = locate_checks(groups, reasoner, record, max_hops=max_hops)
    context_ids.update(ctx_ids)
    privop = ops_by_element[flow.sink]
    record("reason", {"task": "AssessSufficiency", "flow": flow.id}, 1)
    sufficiency = assess_flow(program, privop, checks, contexts, reasoner)
    if sufficiency.verdict == "protected":
        return None, "protected"

    finding = Finding(
        path=flow,
        privop=privop,
        checks=tuple(checks),
        verdict=sufficiency.verdict,
        feasibility="feasible" if constraint_status == "sat" else "unknown",
        rationale=sufficiency.rationale,
        constraint_status=constraint_status,
        smt_file=smt_file,
    )
    return finding, "finding"


# --- report payload ---------------------------------------------------------------------


def _path_dict(flow: GlobalPath, step) -> dict:
    """The path's report record; ``step(service, element)`` gives each
    element's step record."""
    hops: list[dict] = []
    for segment in flow.segments:
        if isinstance(segment, FlowPath):
            steps = [step(segment.service, eid) for eid in segment.elements]
            hops.append({"type": "flow", "service": segment.service, "steps": steps})
        else:  # ChannelEdge
            hops.append(
                {
                    "type": "channel",
                    "identifier": segment.identifier,
                    "match": segment.match_rule,
                    "from_service": segment.from_service,
                    "to_service": segment.to_service,
                }
            )
    return {"id": flow.id, "services": list(flow.services), "hops": hops}


def _evidence(flow: GlobalPath, checks, record) -> list[dict]:
    """Verbatim sources of the elements on (or referenced from) the path,
    each element once; ``record(service, element)`` gives an element's
    evidence record, None for an unknown element."""
    located: dict[str, str] = {}  # element -> service, first mention kept
    for segment in flow.flow_segments:
        for eid in segment.elements:
            located.setdefault(eid, segment.service)
    for check in checks:
        located.setdefault(check.element, check.service)
    entries = (record(service_name, eid) for eid, service_name in located.items())
    return [entry for entry in entries if entry is not None]


def _report_payload(
    *,
    program: Program,
    reasoner_name: str,
    options: ScanOptions,
    privops,
    user_sources,
    channel_edges,
    unresolved,
    flows,
    flows_truncated: bool,
    pruned,
    dropped,
    budget_truncated: int,
    findings,
    tracer: Tracer,
    budget: ScanBudget,
    exhausted_reason: str | None,
    context_ids: set[str],
) -> dict:
    # one record per privileged operation and per element, shared by every
    # finding that reaches it
    @functools.cache
    def op_dict(op: PrivilegedOperation) -> dict:
        el = program.element(op.service, op.element)
        return {
            "element": op.element,
            "service": op.service,
            "name": call_callee(el) if el else "",
            "category": op.category,
            "rationale": op.rationale,
            "file": el.location.file if el else "",
            "line": el.location.line if el else 0,
            "col": el.location.col if el else 0,
            "source": el.source if el else "",
        }

    @functools.cache
    def step(service_name: str, eid: str) -> dict:
        el = program.element(service_name, eid)
        return {
            "element": eid,
            "kind": el.kind.value if el else "unknown",
            "name": (el.name or call_callee(el)) if el else "",
            "line": el.location.line if el else 0,
        }

    @functools.cache
    def evidence(service_name: str, eid: str) -> dict | None:
        el = program.element(service_name, eid)
        if el is None:
            return None
        return {
            "element": eid,
            "service": service_name,
            "kind": el.kind.value,
            "name": el.name,
            "file": el.location.file,
            "line": el.location.line,
            "source": el.source,
        }

    def finding_dict(f: Finding) -> dict:
        return {
            "id": f.path.id,
            "verdict": f.verdict,
            "feasibility": f.feasibility,
            "rationale": f.rationale,
            "privileged_operation": op_dict(f.privop),
            "path": _path_dict(f.path, step),
            "checks": [
                {
                    "element": c.element,
                    "service": c.service,
                    "name": c.name,
                    "classification": c.classification,
                    "authz_subtype": c.authz_subtype,
                    "attachment": c.attachment,
                    "rationale": c.rationale,
                }
                for c in f.checks
            ],
            "constraint": {"status": f.constraint_status, "smt_file": f.smt_file},
            "evidence": _evidence(f.path, f.checks, evidence),
        }

    def finding_sort_key(fd: dict):
        op = fd["privileged_operation"]
        return (op["service"], op["file"], op["line"], fd["id"])

    finding_dicts = sorted((finding_dict(f) for f in findings), key=finding_sort_key)

    funnel = {
        "initial_flows": len(flows),
        "constraint_pruned": len(pruned),
        "protected_dropped": len(dropped),
        "budget_truncated": budget_truncated,
        "findings": len(finding_dicts),
    }
    accounted = (
        funnel["constraint_pruned"] + funnel["protected_dropped"] + funnel["budget_truncated"] + funnel["findings"]
    )
    if funnel["initial_flows"] != accounted:
        raise RuntimeError(f"funnel conservation violated: {funnel['initial_flows']} flows, {accounted} accounted")

    def source_name(el: Element) -> str:
        return el.name or call_callee(el) or el.kind.value

    payload = {
        "schema": 1,
        "tool": "privflow",
        "reasoner": reasoner_name,
        "options": {
            "basic_sink": options.basic_sink,
            "on_demand_context": options.on_demand_context,
        },
        "program": {
            "entry_service": program.manifest.entry_service(),
            "services": [
                {
                    "name": s.name,
                    "entry": s.entry,
                    "elements": len(s.elements),
                    "edges": len(s.edges),
                    "channels": len(s.channels),
                }
                for s in sorted(program.services, key=lambda s: s.name)
            ],
        },
        "privileged_operations": [op_dict(op) for op in privops],
        "user_sources": [
            {"element": e.id, "service": e.service, "name": source_name(e)} for e in user_sources
        ],
        "channels": {
            "matched": [
                {
                    "from_service": ce.from_service,
                    "to_service": ce.to_service,
                    "identifier": ce.identifier,
                    "match": ce.match_rule,
                }
                for ce in channel_edges
            ],
            "unresolved": [str(u) for u in unresolved],
            "ambiguous": ambiguous_matches(channel_edges),
        },
        "funnel": funnel,
        "flows_truncated_at_cap": flows_truncated,
        "pruned_flows": sorted(pruned),
        "protected_flows": sorted(dropped),
        "findings": finding_dicts,
        "context_elements": sorted(context_ids),
        "budget": {
            "max_tool_calls_per_phase": budget.max_tool_calls_per_phase,
            "max_flows": PATH_CAP,
            "tool_calls": {phase: tracer.per_phase[phase] for phase in sorted(tracer.per_phase)},
            "exhausted": exhausted_reason is not None,
            "exhausted_reason": exhausted_reason,
        },
        "trace_file": options.trace_path,
    }
    return payload
