"""End-to-end scan orchestration.

``scan`` composes the stages: privileged-operation identification (baseline
sink intrinsics plus a reasoner-driven search loop), global flow
construction into path classes, and per-class validation (constraint
pruning, check localization with on-demand context retrieval, sufficiency
assessment). Class counts are conserved through the funnel:

    initial = constraint_pruned + protected_dropped + findings + budget_truncated

Every primitive call and every reasoner lookup is one record of a
replayable tool-call trace: a primitive is recorded with its arguments and
result count, a flow search as one ``q_flow`` record with all its targets.
The scan's ``reasoner.Memo`` records each lookup of a task: ``reason``
when it reaches the backend, ``decided`` when the program answers it (the
constraint of a flow with no guard, the sufficiency of a sink with no
``authz`` check, a user source a route prefix covers), ``memo_hit`` when an
equal task was answered before. The per-phase budget counts the ``reason``
records, the backend calls, and every record checks the wall clock. A task
is recorded before it is asked, so the record that exhausts the budget
asks the backend nothing.

Validation runs once per path class. ``crossflow.q_globalflow`` finds the
classes: a flow's class is its sink plus its check summary, the function
groups that can carry a check (see ``ServiceIndex.check_relevant``) with
their guards, and every flow of one class gives constraint extraction,
check location and the sufficiency assessment the same inputs. So they
read the class's summary once, the class's witness records their tool
calls and names the class's one SMT file, and the class leaves the funnel
as that outcome says: pruned, protected, or a finding with its
``witness_count``.

Classes share most of their summary entries, segments and check
candidates, and their guards often translate to one constraint. So a scan
keeps, for its length, each summary entry's function group, each
segment's hop id, each check candidate's ``ClassifyCheck`` task, and each
distinct constraint's ``check_sat`` verdict and SMT-LIB text, each in a
cache keyed by the entry, the segment, the candidate's element id or the
constraint value.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

from .constraints import check_sat, Sat, Unsat, emit_smtlib
from .crossflow import (
    PATH_CAP,
    BudgetExhausted,
    ChannelEdge,
    CheckSummary,
    GlobalFlows,
    GlobalPath,
    Recorder,
    ambiguous_matches,
    build_global_graph,
    match_channels,
    q_globalflow,
    q_inter,
    q_user,
    unrecorded,
)
from .model import Element, ElementKind, Program, Record, Service, call_callee, element_order, short_id, validate_program
from .reasoner import (
    AssessSufficiency,
    CheckDescriptor,
    ClassifyCheck,
    ClassifyPrivileged,
    ExtractConstraints,
    GuardDescriptor,
    Memo,
    NextSearchAction,
    _query_key,
    task_digest,
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


class PrivilegedOperation(NamedTuple):
    """A call site found privileged, with its category and why."""

    element: str
    service: str
    category: str  # a reasoner.PrivilegedClass category
    rationale: str


class CheckFinding(NamedTuple):
    """An authentication or authorization check located on a flow."""

    element: str
    service: str
    name: str
    classification: str  # a reasoner.CheckClass classification other than none
    authz_subtype: str  # the CheckClass's authz subtype
    attachment: str  # decorator | inline
    rationale: str
    source: str


class PathClass(NamedTuple):
    """What validation made of one path class, shared by every path of the
    class: its constraint (None when extraction was skipped) and that
    constraint's status, the checks located and the ``AssessSufficiency``
    verdict. A pruned class has no checks and no verdict."""

    constraint: object  # a reasoner PathConstraint, or None
    status: str  # pruned | sat | unknown | skipped
    checks: tuple[CheckFinding, ...]
    sufficiency: object  # a reasoner.Sufficiency, None when pruned


class ScanBudget(Record):
    """Per-phase limits of one scan: the backend calls (``reason``
    records) each phase may make, and the wall clock."""

    __slots__ = ("max_tool_calls_per_phase", "max_seconds")

    def __init__(self, max_tool_calls_per_phase: int = 40, max_seconds: float = 600.0) -> None:
        # written so that a NaN limit fails too
        if not (max_tool_calls_per_phase > 0 and max_seconds > 0):
            raise ValueError("budget limits must be positive")
        self.max_tool_calls_per_phase = max_tool_calls_per_phase
        self.max_seconds = max_seconds


class ScanOptions(Record):
    """What a scan looks for and where it writes its side outputs."""

    __slots__ = ("basic_sink", "on_demand_context", "emit_smt_dir", "trace_path")
    _defaults = {"basic_sink": False, "on_demand_context": True, "emit_smt_dir": None, "trace_path": None}


class Tracer:
    """Tool-call audit log of one scan; also the budget meter.

    ``phase`` is the phase the next record belongs to. ``per_phase``
    counts every record of a phase, and ``reasoner_calls`` its ``reason``
    records, which the budget limits. A ``reasoner.Memo`` record keeps its
    task, which ``write`` names by kind and ``task_digest``."""

    def __init__(self, budget: ScanBudget):
        self.budget = budget
        self.phase = PHASE_PRIVOPS
        # (phase, tool, args or task, result count, monotonic time) per record
        self.calls: list[tuple] = []
        self.per_phase: dict[str, int] = {}
        self.reasoner_calls: dict[str, int] = {}
        self.started = time.monotonic()

    def record(self, tool: str, args, result_count: int) -> None:
        """Keep one record of the current phase, then raise
        ``BudgetExhausted`` if the phase's backend calls or the wall clock
        are over the budget."""
        phase = self.phase
        at = time.monotonic()  # timing lives only in the trace, never in the report body
        self.calls.append((phase, tool, args, result_count, at))
        self.per_phase[phase] = self.per_phase.get(phase, 0) + 1
        if tool == "reason":
            calls = self.reasoner_calls[phase] = self.reasoner_calls.get(phase, 0) + 1
            if calls > self.budget.max_tool_calls_per_phase:
                raise BudgetExhausted(phase, f"exceeded {self.budget.max_tool_calls_per_phase} reasoner calls")
        limit = self.budget.max_seconds
        if at - self.started > limit:
            shown = f"{limit:.0f}" if float(limit).is_integer() else str(limit)
            raise BudgetExhausted(phase, f"exceeded {shown}s wall clock")

    def write(self, path: str | Path) -> None:
        """One JSON line per record, built here: a scan that writes no
        trace builds none, and digests no task."""
        lines = [
            json.dumps(
                {
                    "seq": seq,
                    "phase": phase,
                    "tool": tool,
                    "args": (
                        args if isinstance(args, dict) else {"task": type(args).__name__, "digest": task_digest(args)}
                    ),
                    "result_count": result_count,
                    "elapsed_ms": round((at - self.started) * 1000, 3),
                },
                sort_keys=True,
            )
            for seq, (phase, tool, args, result_count, at) in enumerate(self.calls, 1)
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# --- privileged operation identification ------------------------------------------


def find_privileged_ops(
    program: Program,
    reasoner,
    tracer: Tracer | None = None,
    basic_sink: bool = False,
) -> list[PrivilegedOperation]:
    """Baseline sink intrinsics plus reasoner-planned searches, classified
    one candidate at a time, until a full round adds nothing new.

    Each round asks the reasoner once for its plan, the round's queries,
    and runs them in order; an empty plan ends the loop, and so does a
    round that adds no operation, whatever the next plan would be.

    ``tracer`` records the calls as the ``privileged_ops`` phase, by
    default against ``ScanBudget()``. A bare backend is put behind a
    ``reasoner.Memo`` bound to it, so its tasks are recorded and metered
    too; a scan passes its own memo, bound to the same tracer. On budget
    exhaustion the raised BudgetExhausted carries the partial operation
    list."""
    tracer = tracer or Tracer(ScanBudget())
    tracer.phase = PHASE_PRIVOPS
    if not isinstance(reasoner, Memo):
        reasoner = Memo(reasoner, tracer)
    ops: dict[str, PrivilegedOperation] = {}
    try:
        services = sorted(program.services, key=lambda s: s.name)
        for service in services:
            calls = q_ast(service, ElementKind.CALL)
            tracer.record("q_ast", {"service": service.name, "kind": "call"}, len(calls))
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
        added: list[str] = []
        service_names = tuple(s.name for s in services)
        for round_no in itertools.count(1):
            task = NextSearchAction(round_no, service_names, tuple(executed), tuple(added), tools=("q_name",))
            plan = reasoner.reason(task)
            added = []
            for action in plan:
                if action.tool != "q_name":
                    # an off-vocabulary query burns its step but cannot derail the scan
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
                tracer.record("q_name", {"service": service.name, "pattern": pattern, "mode": mode}, len(results))

                for el in results:
                    if el.kind is not ElementKind.FUNCTION or el.id in classified:
                        continue
                    classified.add(el.id)
                    source = get_source(service, el)
                    tracer.record("get_source", {"service": service.name, "element": el.id}, 1)
                    verdict = reasoner.reason(ClassifyPrivileged(element=el.id, name=el.name, source=source))
                    if verdict.category is None:
                        continue
                    callers = q_cg(service, el.id, "callers")
                    tracer.record(
                        "q_cg", {"service": service.name, "function": el.name, "direction": "callers"}, len(callers)
                    )
                    sites = [site for site in call_sites_of(service, el.id) if site.id not in ops]
                    for site in sites:
                        ops[site.id] = PrivilegedOperation(
                            site.id, service.name, verdict.category, f"call to {el.name}: {verdict.rationale}"
                        )
                    if sites:
                        added.append(f"{service.name}:{el.name}")
            if not added:
                break
    except BudgetExhausted as exc:
        raise BudgetExhausted(exc.phase, exc.reason, partial=_sorted_ops(program, ops))
    return _sorted_ops(program, ops)


def _sorted_ops(program: Program, ops: dict[str, PrivilegedOperation]) -> list[PrivilegedOperation]:
    def key(op: PrivilegedOperation):
        location = program.element(op.service, op.element).location
        return (op.service, location.file, location.line, location.col, op.element)

    return sorted(ops.values(), key=key)


# --- constraint extraction -----------------------------------------------------------


#: ``(service, function, guards)``: the path elements that share an
#: enclosing function (None outside any function), told by that function
#: and the conditionals whose block holds one of them.
FunctionGroup = tuple[Service, Element | None, tuple[Element, ...]]


def _function_group(program: Program, entry: tuple[tuple[str, str | None], frozenset[str]]) -> FunctionGroup:
    """The function group one ``crossflow.CheckSummary`` entry stands
    for: its service, its function and its guards in ``element_order``."""
    (name, fn_id), guard_ids = entry
    service = program.service(name)
    fn = None if fn_id is None else service.element(fn_id)
    return service, fn, tuple(sorted(map(service.element, guard_ids), key=element_order))


def extract_path_constraints(groups, reasoner):
    """Ask the reasoner to translate the conditional guards protecting a
    flow, read from its function groups (``_function_group``) and taken
    in source order. Returns the PathConstraint, or None when the
    extraction is skipped: the reasoner skipped it (a guard outside the
    fragment), or its answer declares a variable that names no identifier
    of the guards (their ``GuardDescriptor.var_types``), which the program
    cannot back.
    """
    guards: dict[str, tuple] = {}
    for service, _, chain in groups:
        for guard in chain:
            guards.setdefault(guard.id, (service, guard))
    descriptors = tuple(
        GuardDescriptor(source=guard.source, var_types=service_index(service).guard_types[guard.id])
        for service, guard in sorted(
            guards.values(), key=lambda pair: (pair[1].location.file, pair[1].location.line, pair[1].location.col)
        )
    )
    constraint = reasoner.reason(ExtractConstraints(guards=descriptors)).constraint
    if constraint is None:
        return None
    identifiers = {name for descriptor in descriptors for name, _ in descriptor.var_types}
    return constraint if all(name in identifiers for name, _ in constraint.variables) else None


# --- check localization --------------------------------------------------------------


class CheckCandidate(Record):
    """One check candidate's ``ClassifyCheck`` task, the tool calls that
    built it, each as ``record``'s arguments ``(tool, args, count)``, and
    the ids of the elements it read."""

    __slots__ = ("task", "calls", "context_ids")


def check_candidate(service: Service, element: Element, attachment: str, max_hops: int) -> CheckCandidate:
    """The candidate an inline conditional or a decorator-attached check
    function makes: the function's source with its helpers' sources
    (``_helper_contexts``) as context, or the conditional's own source."""
    if attachment == "inline":
        task = ClassifyCheck(element=element.id, name="", source=element.source, attachment="inline")
        return CheckCandidate(task, (), (element.id,))
    calls: list[tuple[str, dict, int]] = []
    source = get_source(service, element)
    calls.append(("get_source", {"service": service.name, "element": element.id}, 1))
    context_ids = {element.id}
    helper_sources = _helper_contexts(
        service, element, max_hops - 1, context_ids, lambda tool, args, count: calls.append((tool, args, count))
    )
    task = ClassifyCheck(
        element=element.id, name=element.name, source=source, attachment="decorator", context=tuple(helper_sources)
    )
    return CheckCandidate(task, tuple(calls), tuple(context_ids))


def locate_checks(
    groups,
    reasoner,
    record: Recorder = unrecorded,
    max_hops: int = 4,
    candidates: dict[str, CheckCandidate] | None = None,
) -> tuple[list[CheckFinding], list[str], set[str]]:
    """AuthN/authZ checks correlated with a flow.

    Reads the flow's function groups (``_function_group``). For every
    function on the path, collects decorator-attached check functions
    (following decorator -> check -> helper call chains up to
    ``max_hops``) and the inline conditionals whose guarded block contains
    the flow. Every tool call goes to ``record(tool, args, count)``.
    Returns (checks, context snippets, context element ids). The reasoner
    records its own tasks.

    ``candidates`` maps an element id to its ``check_candidate``, built at
    ``max_hops``; the scan passes one for its length, so each candidate is
    built once, and every flow still records the tool calls that built it.
    """
    checks: list[CheckFinding] = []
    contexts: list[str] = []
    context_ids: set[str] = set()
    seen_candidates: set[str] = set()
    if candidates is None:
        candidates = {}

    def classify(service: Service, element: Element, attachment: str) -> None:
        if element.id in seen_candidates:
            return
        seen_candidates.add(element.id)
        candidate = candidates.get(element.id)
        if candidate is None:
            candidate = candidates[element.id] = check_candidate(service, element, attachment, max_hops)
        task = candidate.task
        for call in candidate.calls:
            record(*call)
        context_ids.update(candidate.context_ids)
        contexts.extend(task.context)
        verdict = reasoner.reason(task)
        if verdict.classification != "none":
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
            classify(service, check_fn, "decorator")
        for cond in sorted(guards, key=element_order):
            classify(service, cond, "inline")
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
    descriptors = tuple(
        CheckDescriptor(classification=c.classification, subtype=c.authz_subtype, name=c.name, source=c.source)
        for c in checks
    )
    task = AssessSufficiency(
        privop_name=call_callee(el) or el.source,
        privop_source=el.source,
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

    ``q_globalflow`` finds the path classes, and each class is validated
    once, through its witness (see ``_validate_path``). Each validated
    class's outcome, its witness with its ``witness_count``, its
    ``PathClass`` and its SMT file, goes to ``_report_payload``, which puts
    the class with the pruned, the protected or the findings.

    Each path segment (hop) a finding passes has one record, in the
    report's ``hops`` table, and each element a finding names one, in its
    ``elements`` table: a finding's path lists hop ids, and its evidence
    and each flow hop's steps list element ids. Every other record is
    built per finding, so the payload is a tree: no dict or list appears
    in it twice."""
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

    tracer = Tracer(budget)
    reasoner = Memo(reasoner, tracer)
    exhausted_reason: str | None = None

    privops: list[PrivilegedOperation] = []
    classes = GlobalFlows([], [], [], False)
    user_sources: list[Element] = []
    channel_edges = []
    unresolved = []

    try:
        privops = find_privileged_ops(program, reasoner, tracer=tracer, basic_sink=options.basic_sink)
        tracer.phase = PHASE_FLOW
        matched = match_channels(program)
        graph = build_global_graph(program, privops, matched, record=tracer.record)
        # a report whose budget ran out during the graph lists no channels
        channel_edges = matched
        for service in program.services:
            unresolved.extend(q_inter(service).unresolved)
        user_sources = q_user(program, reasoner)
        tracer.record("q_user", {"entry": program.manifest.entry_service()}, len(user_sources))
        result = q_globalflow(program, graph, user_sources, privops)
        tracer.record("q_globalflow", {"sources": len(user_sources), "sinks": len(privops)}, len(result.paths))
        classes = result
    except BudgetExhausted as exc:
        # the stage the budget ran out in keeps what it had found
        if exc.phase == PHASE_PRIVOPS:
            privops = exc.partial
        elif exc.partial is not None:
            user_sources = exc.partial
        exhausted_reason = str(exc)

    ops_by_element = {op.element: op for op in privops}
    outcomes: list[tuple[GlobalPath, int, PathClass, str | None]] = []  # (witness, its count, its class, its SMT file)
    full_context_ids: set[str] = set()

    if exhausted_reason is None:
        max_hops = 4 if options.on_demand_context else 1
        tracer.phase = PHASE_VALIDATION
        # classes often share a constraint: each distinct one is decided and
        # written out once per scan
        decide = functools.cache(check_sat)
        smt_text = functools.cache(emit_smtlib)
        # classes often share a summary entry and a check candidate: each
        # entry is resolved to its function group and each candidate built
        # once per scan
        group_of = functools.cache(functools.partial(_function_group, program))
        candidates: dict[str, CheckCandidate] = {}
        for witness, summary, count in zip(classes.paths, classes.summaries, classes.counts):
            try:
                path_class, smt_file = _validate_path(
                    program, witness, summary, ops_by_element[witness.sink], reasoner, tracer.record,
                    max_hops, smt_dir, full_context_ids, group_of, decide, smt_text, candidates,
                )
            except BudgetExhausted as exc:
                exhausted_reason = str(exc)
                break
            outcomes.append((witness, count, path_class, smt_file))

    payload = _report_payload(
        program=program,
        reasoner_name=reasoner.name,
        options=options,
        privops=privops,
        user_sources=user_sources,
        channel_edges=channel_edges,
        unresolved=unresolved,
        classes=classes,
        outcomes=outcomes,
        tracer=tracer,
        budget=budget,
        exhausted_reason=exhausted_reason,
        context_ids=full_context_ids,
    )
    if options.trace_path:
        tracer.write(options.trace_path)
    return payload


def _validate_path(
    program: Program,
    witness: GlobalPath,
    summary: CheckSummary,
    privop: PrivilegedOperation,
    reasoner,
    record: Recorder,
    max_hops: int,
    smt_dir: Path | None,
    context_ids: set[str],
    group_of: Callable,
    decide: Callable,
    smt_text: Callable,
    candidates: dict[str, CheckCandidate],
) -> tuple[PathClass, str | None]:
    """One path class through the funnel, validated from its check summary
    under its witness: returns the class's ``PathClass`` and the name of the SMT file written
    for it, None when none was. ``extract_path_constraints`` and
    ``locate_checks`` read the function groups of the class's check
    summary, the same for every path of the class, and ``assess_flow``
    reads what they found, so the outcome is each path's. The SMT file
    carries the witness's id.

    ``group_of`` is ``_function_group``, ``decide`` is ``check_sat`` and
    ``smt_text`` is ``emit_smtlib``; the scan passes all three memoized,
    and ``candidates``, ``locate_checks``' cache of check candidates."""
    groups = [group_of(entry) for entry in summary]
    constraint = extract_path_constraints(groups, reasoner)
    status = "skipped"
    if constraint is not None:
        verdict = decide(constraint)
        status = "pruned" if isinstance(verdict, Unsat) else "sat" if isinstance(verdict, Sat) else "unknown"

    smt_file: str | None = None
    if constraint is not None and smt_dir is not None:
        smt_file = f"{witness.id}.smt2"
        (smt_dir / smt_file).write_text(smt_text(constraint), encoding="utf-8")
    if status == "pruned":
        return PathClass(constraint, status, (), None), smt_file

    checks, contexts, ctx_ids = locate_checks(groups, reasoner, record, max_hops, candidates)
    context_ids.update(ctx_ids)
    sufficiency = assess_flow(program, privop, checks, contexts, reasoner)
    return PathClass(constraint, status, tuple(checks), sufficiency), smt_file


# --- report payload ---------------------------------------------------------------------


def _evidence(flow: GlobalPath, checks) -> list[str]:
    """Ids of the elements on the path, then of its checks, each once, at
    its first mention."""
    on_path = itertools.chain.from_iterable(segment.elements for segment in flow.flow_segments)
    return [*dict.fromkeys(itertools.chain(on_path, (check.element for check in checks)))]


def _report_payload(
    *,
    program: Program,
    reasoner_name: str,
    options: ScanOptions,
    privops,
    user_sources,
    channel_edges,
    unresolved,
    classes: GlobalFlows,
    outcomes: list[tuple[GlobalPath, int, PathClass, str | None]],
    tracer: Tracer,
    budget: ScanBudget,
    exhausted_reason: str | None,
    context_ids: set[str],
) -> dict:
    """The report of a scan. ``outcomes`` holds each validated path class,
    in the order ``classes`` lists them, as its witness, its
    ``witness_count``, its ``PathClass`` and its SMT file; the classes
    after the last of them were cut by the budget. A pruned or protected
    class leaves the funnel, and every other class is a finding built from
    those four."""
    # each path segment a finding passes has one record in ``hops``, keyed
    # by an id derived from its node ids as a path's id is, and each
    # element a finding names one in ``elements``, entered when the first
    # hop or check list naming it is built. Each operation's record is
    # built once and each finding holds a copy of it, and every other
    # record is built per finding, so no dict or list appears twice in the
    # payload. A valid program declares each element id in one service,
    # and a channel joins two services, so a segment's node ids tell it
    # from every other.
    elements: dict[str, dict] = {}
    hops: dict[str, dict] = {}

    def enter(service_name: str, eid: str) -> None:
        if eid not in elements:
            el = program.element(service_name, eid)
            elements[eid] = {
                "service": service_name,
                "kind": el.kind.value,
                "name": el.name or call_callee(el),
                "file": el.location.file,
                "line": el.location.line,
                "source": el.source,
            }

    def op_dict(op: PrivilegedOperation) -> dict:
        el = program.element(op.service, op.element)
        return {
            "element": op.element,
            "service": op.service,
            "name": call_callee(el),
            "category": op.category,
            "rationale": op.rationale,
            "file": el.location.file,
            "line": el.location.line,
            "col": el.location.col,
            "source": el.source,
        }

    op_records = {op.element: op_dict(op) for op in privops}

    @functools.cache
    def hop_id(segment: FlowPath | ChannelEdge) -> str:
        if isinstance(segment, FlowPath):
            node_ids = segment.elements
            for eid in node_ids:
                enter(segment.service, eid)
            record = {"type": "flow", "service": segment.service, "steps": [*node_ids]}
        else:
            node_ids = (segment.from_element, segment.to_element)
            record = {
                "type": "channel",
                "identifier": segment.identifier,
                "match": segment.match_rule,
                "from_service": segment.from_service,
                "to_service": segment.to_service,
            }
        hid = short_id("h", node_ids)
        hops[hid] = record
        return hid

    def check_dicts(checks: tuple[CheckFinding, ...]) -> list[dict]:
        for c in checks:
            enter(c.service, c.element)
        return [
            {
                "element": c.element,
                "service": c.service,
                "name": c.name,
                "classification": c.classification,
                "authz_subtype": c.authz_subtype,
                "attachment": c.attachment,
                "rationale": c.rationale,
            }
            for c in checks
        ]

    def finding_dict(witness: GlobalPath, count: int, path_class: PathClass, smt_file: str | None) -> dict:
        return {
            "id": witness.id,
            "witness_count": count,
            "verdict": path_class.sufficiency.verdict,
            "feasibility": "feasible" if path_class.status == "sat" else "unknown",
            "rationale": path_class.sufficiency.rationale,
            "privileged_operation": dict(op_records[witness.sink]),
            "path": {
                "id": witness.id,
                "services": [*witness.services],
                "hops": [*map(hop_id, witness.segments)],
            },
            "checks": check_dicts(path_class.checks),
            "constraint": {"status": path_class.status, "smt_file": smt_file},
            "evidence": _evidence(witness, path_class.checks),
        }

    def finding_sort_key(fd: dict):
        op = fd["privileged_operation"]
        return (op["service"], op["file"], op["line"], fd["id"])

    pruned: list[str] = []
    protected: list[str] = []
    finding_dicts: list[dict] = []
    for witness, count, path_class, smt_file in outcomes:
        if path_class.status == "pruned":
            pruned.append(witness.id)
        elif path_class.sufficiency.verdict == "protected":
            protected.append(witness.id)
        else:
            finding_dicts.append(finding_dict(witness, count, path_class, smt_file))
    finding_dicts.sort(key=finding_sort_key)

    funnel = {
        "initial_flows": len(classes.paths),
        "constraint_pruned": len(pruned),
        "protected_dropped": len(protected),
        "budget_truncated": len(classes.paths) - len(outcomes),
        "findings": len(finding_dicts),
    }
    accounted = (
        funnel["constraint_pruned"] + funnel["protected_dropped"] + funnel["budget_truncated"] + funnel["findings"]
    )
    if funnel["initial_flows"] != accounted:
        raise RuntimeError(f"funnel conservation violated: {funnel['initial_flows']} classes, {accounted} accounted")

    def source_name(el: Element) -> str:
        return el.name or call_callee(el) or el.kind.value

    entry = program.manifest.entry_service()
    payload = {
        "schema": 5,
        "tool": "privflow",
        "reasoner": reasoner_name,
        "options": {
            "basic_sink": options.basic_sink,
            "on_demand_context": options.on_demand_context,
        },
        "program": {
            "entry_service": entry,
            "services": [
                {
                    "name": s.name,
                    "entry": s.name == entry,
                    "elements": len(s.elements),
                    "edges": len(s.edges),
                    "channels": len(s.channels),
                }
                for s in sorted(program.services, key=lambda s: s.name)
            ],
        },
        "privileged_operations": [*op_records.values()],
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
        "flows_truncated_at_cap": classes.truncated,
        "pruned_flows": sorted(pruned),
        "protected_flows": sorted(protected),
        "findings": finding_dicts,
        "hops": hops,
        "elements": elements,
        "context_elements": sorted(context_ids),
        "budget": {
            "max_tool_calls_per_phase": budget.max_tool_calls_per_phase,
            "max_flows": PATH_CAP,
            "tool_calls": {phase: tracer.per_phase[phase] for phase in sorted(tracer.per_phase)},
            "reasoner_calls": {phase: tracer.reasoner_calls.get(phase, 0) for phase in sorted(tracer.per_phase)},
            "exhausted": exhausted_reason is not None,
            "exhausted_reason": exhausted_reason,
        },
        "trace_file": options.trace_path,
    }
    return payload
