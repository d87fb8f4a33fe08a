"""Cross-service data-flow stitching.

Builds the global reachability graph in two phases: per-service flow edges
from untrusted sources to privileged operations and outbound communication
call sites, then channel edges connecting outbound call sites to the
receiving endpoints. Global paths alternate intra-service flow witnesses
with channel hops; a path's derived facts (node ids, id, flow segments,
services) are fixed when it is built, in one pass over its segments.
``q_globalflow`` does not list every path: it finds the path classes, the
paths that reach one sink with one check summary, and gives each class a
witness path and its number of paths.
Segments are plain values (``FlowPath`` and ``ChannelEdge`` are named
tuples), so paths that share a segment hold equal ones, and per-segment
work can be kept in a cache keyed by the segment itself.
``check_summary`` is the one walk over a flow segment's elements: its
check-relevant functions and their guards. ``merge_summaries`` is the one
rule that merges a path's segment summaries into its class's, which
validation reads.

The graph's tool calls go to a ``Recorder``: one ``q_flow`` record per flow
search, which lists all the targets the search sought and counts the paths
it found, so ``privflow query --op flow`` with one ``--to`` per target
replays it. ``q_user`` asks its tasks through the reasoner it is given,
which records them when it is a scan's ``reasoner.Memo``.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, NamedTuple

from .model import Channel, Element, ElementKind, Program, Record, Service, call_callee, is_wildcard_segment, short_id
from .reasoner import ConfirmUserSource
from .search import FlowPath, InterScan, flow_sinks, q_flow, service_index


#: ``record(tool, args, count)`` takes one tool call for the trace, which
#: also checks the budget: it raises ``BudgetExhausted`` when the budget
#: runs out.
Recorder = Callable[[str, dict, int], None]


class BudgetExhausted(Exception):
    """A scan's budget ran out in ``phase``. A stage that keeps what it
    found so far raises it again with that as ``partial``."""

    def __init__(self, phase: str, reason: str, partial=None):
        self.phase = phase
        self.reason = reason
        self.partial = partial
        super().__init__(f"{phase}: {reason}")


def unrecorded(*call) -> None:
    """The recorder of a caller that keeps no trace."""


class ChannelEdge(NamedTuple):
    """A matched (outbound call, receiving endpoint) pair."""

    from_service: str
    from_element: str
    to_service: str
    to_element: str
    identifier: str
    match_rule: str  # "exact" | "wildcard"

    @property
    def src(self) -> str:
        return self.from_element

    @property
    def dst(self) -> str:
        return self.to_element


def q_source(service: Service) -> tuple[Element, ...]:
    """Untrusted data entry points: endpoints and message consumers."""
    return service_index(service).inter.sources


def q_user(program: Program, reasoner) -> list[Element]:
    """External user inputs: the sources of every service a gateway route
    targets, each confirmed by the reasoner against the prefixes of the
    routes to its service, one task per source. Under a scan's
    ``reasoner.Memo`` an endpoint path one of those prefixes covers is
    confirmed without a backend call; an uncovered path and a ``consume``
    source are the backend's to answer. Services come in program order,
    which ``validate_program`` makes manifest order; a service no route
    targets has no user source. When the budget runs out, the raised
    ``BudgetExhausted`` carries the sources confirmed before it did."""
    prefixes: dict[str, tuple[str, ...]] = {}
    for route in program.manifest.gateway_routes:
        prefixes[route.target] = (*prefixes.get(route.target, ()), route.prefix)
    confirmed = []
    try:
        for service in program.services:
            routed = prefixes.get(service.name)
            if routed is None:
                continue
            for src in q_source(service):
                identifier = src.name if src.kind is ElementKind.ENDPOINT else call_callee(src)
                verdict = reasoner.reason(ConfirmUserSource(identifier=identifier, route_prefixes=routed))
                if verdict.is_user_source:
                    confirmed.append(src)
    except BudgetExhausted as exc:
        raise BudgetExhausted(exc.phase, exc.reason, partial=confirmed)
    return confirmed


def q_inter(service: Service) -> InterScan:
    """Inter-service communication points.

    Outbound channels come from the stored constant-resolved identifiers;
    endpoint elements double as inbound HTTP channels. Call sites whose
    identifier did not resolve to a constant are reported as diagnostics,
    not channels.
    """
    return service_index(service).inter


#: ``scheme://`` and the authority after it, which ends at the first
#: ``/``, ``?`` or ``#``.
_AUTHORITY_RE = re.compile(r"^[a-z][a-z0-9+.-]*://[^/?#]*", re.IGNORECASE)


def normalize_http_identifier(identifier: str) -> str:
    """Reduce a URL to its path: drop ``scheme://authority``, then the
    query and the fragment; an empty path is ``/``."""
    path = _AUTHORITY_RE.sub("", identifier, count=1)
    return path.partition("?")[0].partition("#")[0] or "/"


def _segments(path: str) -> tuple[str, ...]:
    return tuple(s for s in path.split("/") if s != "")


def _http_paths_match(out_path: str, in_path: str) -> str | None:
    """Segment-wise comparison; endpoint wildcard segments match any one
    segment. Returns the match rule or None."""
    out_segs = _segments(out_path)
    in_segs = _segments(in_path)
    if len(out_segs) != len(in_segs):
        return None
    rule = "exact"
    for o, i in zip(out_segs, in_segs):
        if is_wildcard_segment(i):
            rule = "wildcard"
            continue
        if o != i:
            return None
    return rule


def channels_match(out_ch: Channel, in_ch: Channel) -> str | None:
    if out_ch.protocol != in_ch.protocol:
        return None
    if out_ch.protocol == "topic":
        return "exact" if out_ch.identifier == in_ch.identifier else None
    return _http_paths_match(normalize_http_identifier(out_ch.identifier), in_ch.identifier)


def _channel_key(protocol: str, identifier: str) -> tuple:
    """What a channel matches on when no wildcard is involved: its topic,
    or the segments of its HTTP path."""
    return (protocol, _segments(identifier) if protocol == "http" else identifier)


def match_channels(program: Program) -> list[ChannelEdge]:
    """Every (outbound, inbound) channel pair that matches, across all
    service pairs. Ambiguous outbound channels produce one edge per match.

    The inbound channels are indexed once: topics and wildcard-free HTTP
    paths by their key, endpoints with a wildcard segment in a list that
    each outbound channel checks through ``channels_match``."""
    exact: dict[tuple, list[tuple[str, Channel]]] = {}
    wildcard: list[tuple[str, Channel]] = []
    outbound: list[tuple[str, Channel]] = []
    for service in program.services:
        for ch in q_inter(service).channels:
            if ch.direction == "out":
                outbound.append((service.name, ch))
                continue
            key = _channel_key(ch.protocol, ch.identifier)
            if ch.protocol == "http" and any(map(is_wildcard_segment, key[1])):
                wildcard.append((service.name, ch))
            else:
                exact.setdefault(key, []).append((service.name, ch))
    edges: list[ChannelEdge] = []
    for out_name, out_ch in outbound:
        identifier = out_ch.identifier
        if out_ch.protocol == "http":
            identifier = normalize_http_identifier(identifier)
        hits = [(name, ch, "exact") for name, ch in exact.get(_channel_key(out_ch.protocol, identifier), ())]
        hits += [(name, ch, rule) for name, ch in wildcard if (rule := channels_match(out_ch, ch))]
        for in_name, in_ch, rule in hits:
            if in_name != out_name:
                edges.append(
                    ChannelEdge(
                        from_service=out_name,
                        from_element=out_ch.element,
                        to_service=in_name,
                        to_element=in_ch.element,
                        identifier=in_ch.identifier,
                        match_rule=rule,
                    )
                )
    # each (outbound, inbound) element pair matches once: the sort fixes the order
    edges.sort(key=lambda e: (e.from_service, e.from_element, e.to_service, e.to_element))
    return edges


def ambiguous_matches(edges: list[ChannelEdge]) -> list[str]:
    """Outbound call sites whose identifier matched endpoints in more than
    one service; surfaced as diagnostics for the validator."""
    targets: dict[str, set[str]] = {}
    for e in edges:
        targets.setdefault(e.from_element, set()).add(e.to_service)
    return sorted(el for el, svcs in targets.items() if len(svcs) > 1)


class GlobalGraph:
    """Cross-service reachability graph. Nodes are element ids; ``edges``
    maps a node to the witnesses of its out-edges, each an intra-service
    flow path or a channel match (both have ``src`` and ``dst``), sorted
    by destination, flow witnesses ahead of a channel to the same one."""

    __slots__ = ("nodes", "edges")

    def __init__(
        self, nodes: set[str] | None = None, edges: dict[str, list[FlowPath | ChannelEdge]] | None = None
    ) -> None:
        self.nodes = set() if nodes is None else nodes
        self.edges = {} if edges is None else edges

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())


def build_global_graph(
    program: Program,
    privops,
    channel_edges: list[ChannelEdge],
    record: Recorder = unrecorded,
) -> GlobalGraph:
    """Two-phase construction: per-service source-to-sink/boundary flow
    edges, then the matched channel edges (``match_channels``) across
    service boundaries. A service's targets, the privileged operations of
    that service (``PrivilegedOperation.service``) and its outbound channel
    call sites, are resolved once, then one flow search runs per source.
    ``record`` gets every call, each search as one ``q_flow`` record of
    its targets counting the paths found. Each node's witnesses are sorted
    once, at the end. Deterministic and idempotent."""
    graph = GlobalGraph()
    privops_of: dict[str, set[str]] = {}
    for op in privops:
        privops_of.setdefault(op.service, set()).add(op.element)

    # Phase 1: intra-service reachability
    for service in sorted(program.services, key=lambda s: s.name):
        sources = q_source(service)
        record("q_source", {"service": service.name}, len(sources))
        scan = q_inter(service)
        out_channels = [ch.element for ch in scan.channels if ch.direction == "out"]
        record("q_inter", {"service": service.name}, len(scan.channels))
        # privileged operations and channels are call sites, not functions,
        # so each target resolves to itself and the trace names the targets
        targets = flow_sinks(service, *sorted(privops_of.get(service.name, ())), *out_channels)
        target_ids = set(targets)
        for src in sources:
            graph.nodes.add(src.id)
            dsts = targets if src.id not in target_ids else tuple(dst for dst in targets if dst != src.id)
            if not dsts:
                continue
            paths = q_flow(service, src.id, sinks=dsts)
            record("q_flow", {"service": service.name, "from": src.id, "to": [*dsts]}, len(paths))
            if paths:
                graph.nodes.update(path.dst for path in paths)
                graph.edges.setdefault(src.id, []).extend(paths)

    # Phase 2: connect boundaries through matched channels
    for chedge in channel_edges:
        graph.nodes.update((chedge.src, chedge.dst))
        graph.edges.setdefault(chedge.src, []).append(chedge)
    for witnesses in graph.edges.values():
        if len(witnesses) > 1:
            witnesses.sort(key=attrgetter("dst"))  # stable: flow witnesses stay first
    return graph


class GlobalPath(Record):
    """Alternating intra-service flow segments and channel hops, from a user
    source to a privileged operation. Derived facts are set when the path
    is built, in one pass over its segments; equality and hashing use
    ``segments`` alone. ``node_ids`` lists each node once where a segment
    starts at the node the previous one ends at, and ``id`` hashes them."""

    _fields = ("segments",)
    __slots__ = ("segments", "node_ids", "id")

    def __init__(self, segments: tuple[FlowPath | ChannelEdge, ...]) -> None:
        if not segments:
            raise ValueError("GlobalPath needs at least one segment")
        ids: list[str] = []
        for segment in segments:
            chain = segment.elements if isinstance(segment, FlowPath) else (segment.from_element, segment.to_element)
            ids.extend(chain[1:] if ids and ids[-1] == chain[0] else chain)
        self.segments = segments
        self.node_ids = tuple(ids)
        self.id = short_id("p", ids)

    @property
    def sink(self) -> str:
        return self.node_ids[-1]


#: What validation reads from a path: ``((service name, function id or
#: None), guard ids)`` per check-relevant function group, in order of first
#: visit (``check_summary``).
CheckSummary = tuple[tuple[tuple[str, str | None], frozenset[str]], ...]


def check_summary(program: Program, segment: FlowPath) -> CheckSummary:
    """What validation reads from one flow segment, the one walk over its
    elements: the elements grouped by enclosing function, in order of first
    visit, each group as ((service name, function id or None), the ids of
    the conditionals whose block holds one of its elements). Only the
    groups whose function is in the service's
    ``ServiceIndex.check_relevant`` are kept: any other has no guards and
    no decorator checks. A relevant function is kept when the segment
    reaches it unguarded too, since that fixes its group's place among the
    others."""
    index = service_index(program.service(segment.service))
    place, relevant = index.place, index.check_relevant
    groups: dict[str | None, set[str]] = {}
    for eid in segment.elements:
        fn, chain = place(eid)
        fn_id = fn.id if fn else None
        if fn_id in relevant:
            groups.setdefault(fn_id, set()).update(guard.id for guard in chain)
    return tuple(((segment.service, fn_id), frozenset(guards)) for fn_id, guards in groups.items())


def merge_summaries(summary: CheckSummary, segment: CheckSummary) -> CheckSummary:
    """The check summary of a path extended by a segment: a function met
    before keeps its place and gains the new guards, and a new one comes
    last."""
    merged = dict(summary)
    for key, guards in segment:
        known = merged.get(key)
        merged[key] = guards if known is None else known | guards
    return tuple(merged.items())


class GlobalFlows(NamedTuple):
    """The path classes ``q_globalflow`` found, in the order it reached
    them: each class's witness, its check summary and its
    ``witness_count``, and whether the cap cut the search off."""

    paths: list[GlobalPath]
    summaries: list[CheckSummary]
    counts: list[int]
    truncated: bool


#: The most path classes one search returns.
PATH_CAP = 10_000


def q_globalflow(
    program: Program,
    graph: GlobalGraph,
    sources,
    sinks,
    cap: int = PATH_CAP,
) -> GlobalFlows:
    """The path classes from any source element to any privileged
    operation. A path's class is its sink and its check summary, the
    ``check_summary`` of its flow segments merged in order: every path of a
    class gives validation the same inputs, and validation reads them from
    the class's summary, which the result lists next to its witness.

    A depth-first search over states (graph node, check summary) visits
    each state once: the sources sorted, each node's witnesses in their
    destination-sorted order, and a class for each (sink, summary) state
    it reaches, capped with a flag. A class's witness is the path that
    first reaches its state. On an acyclic graph that is the class's first
    path in lexicographic order of the graph nodes it visits, and its
    ``witness_count`` is the class's number of paths, counted over the
    states the search reached. On a cyclic graph a path may pass a node
    again once its summary has grown, and an edge back to a state on the
    search's current path is not counted. A capped search counts only the
    paths it explored.

    The search is a loop over a stack of witness iterators, one per state
    on the current path, so no closure holds the paths it builds. Each
    state keeps the states of its counted in-edges, which the count reads
    once the search is done. Each graph witness is walked once, at the
    first state that leaves through it."""
    sink_ids = {op.element for op in sinks}
    # a segment in a service with no check-relevant function adds nothing
    # to a summary, so it is not walked
    relevant = {service.name for service in program.services if service_index(service).check_relevant}
    summary_of: dict[int, CheckSummary] = {}  # id(witness) -> its check summary
    # each distinct summary is hashed once, and a state is keyed by its number
    summary_ids: dict[CheckSummary, int] = {(): 0}
    distinct: list[CheckSummary] = [()]
    states: dict[tuple[str, int], int] = {}  # (node, summary number) -> state number
    parent: list[int] = []  # the state each state was first reached from, -1 for a root
    more: dict[int, list[int]] = {}  # a state's later counted in-edges, by source state
    active: list[bool] = []  # on the current path
    finished: list[int] = []  # states in the order the search left them
    roots: list[int] = []
    classes: list[int] = []
    witnesses: list[GlobalPath] = []
    summaries: list[CheckSummary] = []
    truncated = False
    for src in sorted({s.id for s in sources}):
        root = states.get((src, 0))
        if root is not None:  # reached from an earlier source
            roots.append(root)
            continue
        root = states[(src, 0)] = len(parent)
        roots.append(root)
        parent.append(-1)
        active.append(True)
        segments: list[FlowPath | ChannelEdge] = []
        stack = [(root, 0, iter(graph.edges.get(src, ())))]
        while stack:
            state, summary, out = stack[-1]
            witness = next(out, None)
            if witness is None:  # every out-edge of the state is done
                stack.pop()
                active[state] = False
                finished.append(state)
                if segments:
                    segments.pop()
                continue
            nxt_summary = summary
            if isinstance(witness, FlowPath) and witness.service in relevant:
                step = summary_of.get(id(witness))
                if step is None:
                    step = summary_of[id(witness)] = check_summary(program, witness)
                if step:
                    merged = merge_summaries(distinct[summary], step)
                    nxt_summary = summary_ids.setdefault(merged, len(distinct))
                    if nxt_summary == len(distinct):
                        distinct.append(merged)
            dst = witness.dst
            nxt = states.get((dst, nxt_summary))
            if nxt is not None:
                if not active[nxt]:  # an edge back to the current path is not counted
                    more.setdefault(nxt, []).append(state)
                continue
            segments.append(witness)
            if dst in sink_ids:
                if len(classes) >= cap:
                    truncated = True
                    break
                classes.append(len(parent))
                witnesses.append(GlobalPath(tuple(segments)))
                summaries.append(distinct[nxt_summary])
            nxt = states[(dst, nxt_summary)] = len(parent)
            parent.append(state)
            active.append(True)
            stack.append((nxt, nxt_summary, iter(graph.edges.get(dst, ()))))
        if truncated:
            finished.extend(state for state, _, _ in reversed(stack))
            break

    # every counted in-edge comes from a state the search left later, so
    # the reverse of that order counts each state after its predecessors
    counts = [0] * len(parent)
    for root in roots:
        counts[root] += 1
    for state in reversed(finished):
        first = parent[state]
        if first >= 0:
            counts[state] += counts[first]
        later = more.get(state)
        if later is not None:
            counts[state] += sum(counts[pred] for pred in later)
    return GlobalFlows(witnesses, summaries, [counts[state] for state in classes], truncated)


def to_dot(graph: GlobalGraph, program: Program) -> str:
    """Render the global graph in DOT text for inspection. Every id and
    label is a quoted DOT string, so a name holding a quote stays one."""
    def label(eid: str) -> str:
        svc, el = program.find_element(eid)
        text = el.name or call_callee(el) or el.kind.value
        return f"{svc.name}:{text}"

    def q(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'

    lines = ["digraph privflow {"]
    for node in sorted(graph.nodes):
        lines.append(f"  {q(node)} [label={q(label(node))}];")
    for src in sorted(graph.edges):
        for witness in graph.edges[src]:
            if isinstance(witness, ChannelEdge):
                lines.append(f"  {q(src)} -> {q(witness.dst)} [style=dashed, label={q(witness.identifier)}];")
            else:
                lines.append(f"  {q(src)} -> {q(witness.dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
