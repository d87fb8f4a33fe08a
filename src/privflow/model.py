"""Immutable code-facts data model shared by every analysis stage.

A ``Program`` is a set of ``Service`` objects plus the application manifest.
Each service is a flat bag of ``Element`` records (functions, variables,
calls, literals, endpoints, ...) connected by typed ``Edge`` records.
Everything is frozen after construction so analyses can share it freely
across threads.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum


class ElementKind(str, Enum):
    FUNCTION = "function"
    CLASS = "class"
    VARIABLE = "variable"
    PARAMETER = "parameter"
    CALL = "call"
    FIELD_ACCESS = "field_access"
    ASSIGNMENT = "assignment"
    CONDITIONAL = "conditional"
    DECORATOR = "decorator"
    STRING_LITERAL = "string_literal"
    RETURN_STMT = "return_stmt"
    ENDPOINT = "endpoint"


class EdgeKind(str, Enum):
    CALLS = "calls"
    DATAFLOW = "dataflow"
    CONTAINS = "contains"
    DECORATES = "decorates"


#: Closed vocabulary for Element.inferred_type.
TYPE_TAGS = frozenset({"int", "string", "bool", "object", "function", "unknown"})


@dataclass(frozen=True, order=True)
class Location:
    """1-based source position of an element."""

    file: str
    line: int
    col: int

    def __post_init__(self) -> None:
        if not self.file:
            raise ValueError("Location.file must be non-empty")
        if self.line < 1 or self.col < 1:
            raise ValueError(f"Location line/col must be >= 1, got {self.line}:{self.col}")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


def element_id(service: str, file: str, line: int, col: int, kind: ElementKind) -> str:
    """Deterministic element identifier.

    Hash of the defining coordinates, so re-runs, serialization round-trips
    and independently built facts agree on ids.
    """
    key = "\x1f".join((service, file, str(line), str(col), kind.value))
    return "e" + hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Element:
    """One named or anonymous code fact.

    Anonymous elements (calls, literals, field accesses, statement markers)
    carry ``name == ""`` so name-based search never matches them by accident.
    ``source`` is the verbatim text the element spans.
    """

    id: str
    service: str
    kind: ElementKind
    name: str
    location: Location
    source: str
    inferred_type: str = "unknown"

    def __post_init__(self) -> None:
        if self.inferred_type not in TYPE_TAGS:
            raise ValueError(f"unknown type tag {self.inferred_type!r}")

    @property
    def sort_key(self) -> tuple:
        return (self.location.file, self.location.line, self.location.col, self.kind.value)


@dataclass(frozen=True, order=True)
class Edge:
    kind: EdgeKind
    src: str
    dst: str


@dataclass(frozen=True, order=True)
class Channel:
    """An inter-service communication point with its resolved identifier.

    ``element`` is the call-site element for outbound calls and message
    consumers, and the endpoint element for inbound HTTP routes.
    """

    element: str
    direction: str  # "out" | "in"
    protocol: str  # "http" | "topic"
    identifier: str

    def __post_init__(self) -> None:
        if self.direction not in ("out", "in"):
            raise ValueError(f"channel direction must be out|in, got {self.direction!r}")
        if self.protocol not in ("http", "topic"):
            raise ValueError(f"channel protocol must be http|topic, got {self.protocol!r}")
        if not self.identifier:
            raise ValueError("channel identifier must be non-empty")


_CALLEE_RE = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*\(")


def call_callee(element: Element) -> str:
    """Callee path of a call element, recovered from its source text.

    Returns "" when the element is not a call or the text does not look
    like one (external facts are free to use any source layout).
    """
    if element.kind is not ElementKind.CALL:
        return ""
    m = _CALLEE_RE.match(element.source)
    return m.group(1) if m else ""


@dataclass(frozen=True)
class Service:
    """All facts for one service. Use :meth:`build` so collections are
    canonically ordered; structural equality and serialization depend on it.
    """

    name: str
    elements: tuple[Element, ...]
    edges: tuple[Edge, ...]
    channels: tuple[Channel, ...] = ()
    entry: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_id", {e.id: e for e in self.elements})

    @classmethod
    def build(
        cls,
        name: str,
        elements: list[Element] | tuple[Element, ...],
        edges: list[Edge] | tuple[Edge, ...] = (),
        channels: list[Channel] | tuple[Channel, ...] = (),
        entry: bool = False,
    ) -> "Service":
        return cls(
            name=name,
            elements=tuple(sorted(elements, key=lambda e: (e.sort_key, e.id))),
            edges=tuple(sorted(set(edges))),
            channels=tuple(sorted(set(channels))),
            entry=entry,
        )

    def element(self, eid: str) -> Element | None:
        return self._by_id.get(eid)

    def __contains__(self, eid: str) -> bool:
        return eid in self._by_id

    def with_entry(self, entry: bool) -> "Service":
        if entry == self.entry:
            return self
        return Service(self.name, self.elements, self.edges, self.channels, entry)


@dataclass(frozen=True, order=True)
class GatewayRoute:
    prefix: str
    target: str


@dataclass(frozen=True)
class ManifestService:
    name: str
    entry: bool = False
    base_url: str = ""
    sources: tuple[str, ...] = ()
    facts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Manifest:
    version: int
    services: tuple[ManifestService, ...]
    gateway_routes: tuple[GatewayRoute, ...] = ()

    def entry_service(self) -> str | None:
        for s in self.services:
            if s.entry:
                return s.name
        return None


@dataclass(frozen=True)
class Program:
    services: tuple[Service, ...]
    manifest: Manifest

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", {s.name: s for s in self.services})

    def service(self, name: str) -> Service | None:
        return self._by_name.get(name)

    def element(self, service: str, eid: str) -> Element | None:
        """The element of that id in the named service, if both exist."""
        s = self._by_name.get(service)
        return s.element(eid) if s is not None else None

    def find_element(self, eid: str) -> tuple[Service, Element] | None:
        for s in self.services:
            e = s.element(eid)
            if e is not None:
                return s, e
        return None


@dataclass(frozen=True)
class IntegrityViolation:
    """A well-formedness defect found in a Program. Data, not an exception."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


def dangling_edge(service: str, edge: Edge, missing: str) -> IntegrityViolation:
    return IntegrityViolation("DanglingEdge", f"{service}: edge {edge.kind.value} {edge.src}->{edge.dst} references unknown id {missing}")


def validate_program(program: Program) -> list[IntegrityViolation]:
    """Return every invariant violation; an empty list means well-formed."""
    violations: list[IntegrityViolation] = []
    seen_names: set[str] = set()
    owners: dict[str, str] = {}  # element id -> first service declaring it
    entries = [s.name for s in program.services if s.entry]

    for svc in program.services:
        if svc.name in seen_names:
            violations.append(IntegrityViolation("DuplicateService", svc.name))
        seen_names.add(svc.name)

        ids: set[str] = set()
        for e in svc.elements:
            owner = owners.setdefault(e.id, svc.name)
            if e.id in ids:
                violations.append(IntegrityViolation("DuplicateId", f"{svc.name}: element id {e.id} occurs more than once"))
            elif owner != svc.name:
                detail = f"element id {e.id} is declared by services {owner} and {svc.name}"
                violations.append(IntegrityViolation("DuplicateId", detail))
            ids.add(e.id)
            if e.service != svc.name:
                violations.append(
                    IntegrityViolation("ForeignElement", f"{svc.name}: element {e.id} declares service {e.service}")
                )
        for edge in svc.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in ids:
                    violations.append(dangling_edge(svc.name, edge, endpoint))
        for ch in svc.channels:
            if ch.element not in ids:
                violations.append(
                    IntegrityViolation("DanglingChannel", f"{svc.name}: channel references unknown id {ch.element}")
                )

    if not entries:
        violations.append(IntegrityViolation("NoEntryService", ""))
    elif len(entries) > 1:
        violations.append(IntegrityViolation("MultipleEntryServices", ", ".join(sorted(entries))))

    manifest_names = {s.name for s in program.manifest.services}
    for route in program.manifest.gateway_routes:
        if route.target not in manifest_names:
            violations.append(
                IntegrityViolation("UnknownRouteTarget", f"route {route.prefix} -> {route.target}")
            )
    return violations
