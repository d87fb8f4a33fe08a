"""Reference code the path class tests check ``crossflow.q_globalflow``
against: every simple path from a source to a sink, enumerated one by one
in lexicographic order of the graph nodes they visit, each path's function
groups from one walk over its elements, and those paths grouped into the
classes a scan validates once each."""

from __future__ import annotations

from privflow.crossflow import GlobalGraph, GlobalPath
from privflow.model import Program
from privflow.search import FlowPath, service_index


def flow_segments(path: GlobalPath) -> list[FlowPath]:
    """The path's intra-service flow segments, in path order."""
    return [segment for segment in path.segments if isinstance(segment, FlowPath)]


def all_simple_paths(graph: GlobalGraph, sources, sinks) -> list[GlobalPath]:
    """All simple paths of at least one edge from any source element to any
    privileged operation, lexicographic by the sequence of graph nodes they
    visit: a depth-first search over the destination-sorted witnesses, a
    path before its extensions, siblings ascending."""
    sink_ids = {op.element for op in sinks}
    found: list[GlobalPath] = []
    for src in sorted({s.id for s in sources}):
        segments = []
        on_path = {src}
        stack = [iter(graph.edges.get(src, ()))]
        while stack:
            witness = next(stack[-1], None)
            if witness is None:
                stack.pop()
                if segments:
                    on_path.discard(segments.pop().dst)
                continue
            if witness.dst in on_path:
                continue
            segments.append(witness)
            on_path.add(witness.dst)
            if witness.dst in sink_ids:
                found.append(GlobalPath(tuple(segments)))
            stack.append(iter(graph.edges.get(witness.dst, ())))
    return found


def per_element_groups(program: Program, path: GlobalPath) -> list[tuple]:
    """The path's function groups from one walk over every element of the
    path, in path order: ``(service, function, guards)`` per enclosing
    function (None outside any function), groups in order of first visit,
    guards in order of first appearance. A function met again, in a later
    segment, keeps its group."""
    groups = {}
    for segment in flow_segments(path):
        service = program.service(segment.service)
        index = service_index(service)
        for eid in segment.elements:
            fn, chain = index.place(eid)
            guards = groups.setdefault((service.name, fn.id if fn else None), (service, fn, {}))[2]
            for guard in chain:
                guards.setdefault(guard.id, guard)
    return [(service, fn, tuple(guards.values())) for service, fn, guards in groups.values()]


def class_key(program: Program, path: GlobalPath) -> tuple:
    """The path's sink and what validation reads from it: its
    ``per_element_groups`` whose function can carry a check, in order,
    each with its set of guard ids."""
    return (
        path.sink,
        tuple(
            (service.name, fn.id if fn else None, frozenset(guard.id for guard in guards))
            for service, fn, guards in per_element_groups(program, path)
            if (fn.id if fn else None) in service_index(service).check_relevant
        ),
    )


def reference_classes(program: Program, paths: list[GlobalPath]) -> dict[tuple, list[GlobalPath]]:
    """``paths`` grouped by ``class_key``, classes in order of their first
    path, each class's paths in the order given."""
    classes: dict[tuple, list[GlobalPath]] = {}
    for path in paths:
        classes.setdefault(class_key(program, path), []).append(path)
    return classes
