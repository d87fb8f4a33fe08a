"""Immutable code-facts data model shared by every analysis stage.

A ``Program`` is a set of ``Service`` objects plus the application manifest.
Each service is a flat bag of ``Element`` records (functions, variables,
calls, literals, endpoints, ...) connected by typed ``Edge`` records.
Nothing is written after construction, so analyses can share it freely
across threads.

The record rule, for every module: no record is a dataclass and no module
imports ``dataclasses``, whose class builds and imports (``inspect``,
``ast``, ``dis``, ``tokenize``) cost a cold start more than the analysis of a
small corpus. A record is one of three kinds, chosen by what it is for:

* a ``typing.NamedTuple`` for a small plain value that is used whole:
  compared, hashed, sorted or unpacked in C, and built by few classes, each
  of which never meets a field-equal record of another type in ``==``, a
  hash, a memo key or a report payload (which writes a tuple as a JSON
  array): edges, flow segments, tokens, manifest entries;
* a ``Record`` subclass for a record that is read field by field, that is
  one of a family of many classes, or that must equal only a record of its
  own type: a ``__slots__`` class, whose field reads Python 3.11
  specializes as it does not a named tuple's, equal and hashed by its type
  and fields. The fourteen MiniSrv AST node classes (read field by field
  by the lowering), the formula nodes, the checker results, the reasoner
  tasks and their descriptors are of this kind, as are the records read
  most in a scan (``Element``,
  ``Location``, ``Service``, ``Program``, ``GlobalPath``). A record that
  only stores its fields declares them once, in ``__slots__`` (and its
  trailing defaults in ``_defaults``), and ``Record`` compiles its
  constructor, so the class builds in less time than a named tuple; one
  that validates or derives writes its own ``__init__``;
* a plain class with ``__slots__`` for a record that is mutated (the
  global graph, a function's lowering state): it is neither hashed nor
  compared by value.

Records are not written after ``__init__``, and one whose ``__init__``
validates (a ``constraints.PathConstraint``) is valid once it is built:
nothing that reads it checks again. Every record class has its own docstring,
which names the values a field takes when they are a closed set.
"""

from __future__ import annotations

import hashlib
import re
from enum import Enum
from operator import attrgetter
from typing import NamedTuple


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


class Record:
    """Base of the ``__slots__`` record classes. A subclass lists its fields
    in ``__slots__``, or in ``_fields`` when it keeps derived state in
    further slots. One that writes no ``__init__`` gets one, built when the
    class is created, that takes the fields in order and stores each; the
    trailing fields named in ``_defaults``, in order, default to its values.
    One that validates or derives writes an ``__init__`` that takes the
    fields in that order. Equality and the hash read the type and the
    fields, so two records are equal only when they are of one type with
    equal fields; ``repr`` shows the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._key = property(attrgetter("__class__", *cls._fields))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, Record) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


def _storing_init(cls: type[Record]):
    """An ``__init__`` for ``cls`` that stores each field under its name.
    It is compiled from the field names, as ``collections.namedtuple``
    compiles ``__new__``, so a construction runs what a hand-written
    constructor would."""
    fields, defaults = cls._fields, cls._defaults
    if tuple(defaults) != fields[len(fields) - len(defaults) :]:
        raise TypeError(f"{cls.__name__}._defaults must name its trailing fields, in order")
    body = "".join(f"\n    self.{name} = {name}" for name in fields) or "\n    pass"
    namespace: dict = {}
    exec(f"def __init__({', '.join(('self', *fields))}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


#: Closed vocabulary for Element.inferred_type.
TYPE_TAGS = frozenset({"int", "string", "bool", "object", "function", "unknown"})


class Location(Record):
    """1-based source position of an element."""

    __slots__ = ("file", "line", "col")

    def __init__(self, file: str, line: int, col: int) -> None:
        if not file:
            raise ValueError("Location.file must be non-empty")
        if line < 1 or col < 1:
            raise ValueError(f"Location line/col must be >= 1, got {line}:{col}")
        self.file = file
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


def short_id(prefix: str, parts) -> str:
    """``prefix`` and 12 hex digits of the sha1 of ``parts`` joined by
    ``\x1f``: the rule behind element, path and hop ids."""
    return prefix + hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()[:12]


def element_id(service: str, file: str, line: int, col: int, kind: ElementKind) -> str:
    """Deterministic element identifier.

    Hash of the defining coordinates, so re-runs, serialization round-trips
    and independently built facts agree on ids.
    """
    return short_id("e", (service, file, str(line), str(col), kind.value))


class Element(Record):
    """One named or anonymous code fact.

    Anonymous elements (calls, literals, field accesses, statement markers)
    carry ``name == ""`` so name-based search never matches them by accident.
    ``source`` is the verbatim text the element spans.
    """

    __slots__ = ("id", "service", "kind", "name", "location", "source", "inferred_type")

    def __init__(
        self,
        id: str,
        service: str,
        kind: ElementKind,
        name: str,
        location: Location,
        source: str,
        inferred_type: str = "unknown",
    ) -> None:
        if inferred_type not in TYPE_TAGS:
            raise ValueError(f"unknown type tag {inferred_type!r}")
        if kind is ElementKind.ENDPOINT and not name:  # its route: the inbound channel's identifier
            raise ValueError(f"endpoint {id} needs a non-empty name")
        self.id = id
        self.service = service
        self.kind = kind
        self.name = name
        self.location = location
        self.source = source
        self.inferred_type = inferred_type


#: The one element order, a flat key ``(file, line, col, kind, id)`` (a
#: str-valued kind compares as its value): ``Service.build`` sorts by it,
#: so every search result read off ``Service.elements`` follows it.
element_order = attrgetter("location.file", "location.line", "location.col", "kind", "id")


class Edge(NamedTuple):
    """A typed relation between two element ids. A plain tuple, so sets and
    sorts of edges run in C; edges order by ``(kind, src, dst)``, kinds by
    their value."""

    kind: EdgeKind
    src: str
    dst: str


class Channel(Record):
    """An inter-service communication point with its resolved identifier.

    ``element`` is the call-site element for outbound calls and message
    consumers, and the endpoint element for inbound HTTP routes. Channels
    sort among themselves by their fields, in order.
    """

    __slots__ = ("element", "direction", "protocol", "identifier")

    def __init__(self, element: str, direction: str, protocol: str, identifier: str) -> None:
        if direction not in ("out", "in"):
            raise ValueError(f"channel direction must be out|in, got {direction!r}")
        if protocol not in ("http", "topic"):
            raise ValueError(f"channel protocol must be http|topic, got {protocol!r}")
        if not identifier:
            raise ValueError("channel identifier must be non-empty")
        self.element = element
        self.direction = direction
        self.protocol = protocol
        self.identifier = identifier

    def __lt__(self, other):
        return self._key < other._key if type(other) is type(self) else NotImplemented


def is_wildcard_segment(seg: str) -> bool:
    """An endpoint path segment written ``{x}`` or ``:x``, which matches any
    one segment: of a channel's path, or of a gateway route prefix."""
    return (seg.startswith("{") and seg.endswith("}")) or seg.startswith(":")


#: Callees that send to another service, by channel protocol. Their call
#: sites are outbound channels.
OUTBOUND_INTRINSICS = {"http_post": "http", "http_get": "http", "publish": "topic"}
#: Callees that receive from another service, by channel protocol. Their
#: call sites are inbound channels and untrusted sources, as endpoints are.
INBOUND_INTRINSICS = {"consume": "topic"}

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


class Service(Record):
    """All facts for one service. Use :meth:`build` so collections are
    canonically ordered; structural equality, serialization and the order
    of every search result (which follows ``elements``) depend on it.
    ``build`` sorts each collection once: elements by ``element_order``,
    edges and channels, de-duplicated, by their fields. ``_index`` holds
    the service's ``search.ServiceIndex`` once it is built; a service can be
    weakly referenced. Which service is the entry is the manifest's to say
    (``Manifest.entry_service``).
    """

    _fields = ("name", "elements", "edges", "channels")
    __slots__ = (*_fields, "_by_id", "_index", "__weakref__")

    def __init__(
        self,
        name: str,
        elements: tuple[Element, ...],
        edges: tuple[Edge, ...],
        channels: tuple[Channel, ...] = (),
    ) -> None:
        self.name = name
        self.elements = elements
        self.edges = edges
        self.channels = channels
        self._by_id = {e.id: e for e in elements}
        self._index = None

    @classmethod
    def build(
        cls,
        name: str,
        elements: list[Element] | tuple[Element, ...],
        edges: list[Edge] | tuple[Edge, ...] = (),
        channels: list[Channel] | tuple[Channel, ...] = (),
    ) -> "Service":
        return cls(
            name=name,
            elements=tuple(sorted(elements, key=element_order)),
            edges=tuple(sorted(set(edges))),
            channels=tuple(sorted(set(channels))),
        )

    def element(self, eid: str) -> Element | None:
        return self._by_id.get(eid)

    def __contains__(self, eid: str) -> bool:
        return eid in self._by_id


class GatewayRoute(NamedTuple):
    """A manifest gateway route: requests under ``prefix`` go to ``target``."""

    prefix: str
    target: str


class ManifestService(NamedTuple):
    """One service entry of the manifest, with its source and facts files."""

    name: str
    entry: bool = False
    base_url: str = ""
    sources: tuple[str, ...] = ()
    facts: tuple[str, ...] = ()


class Manifest(NamedTuple):
    """The application manifest: its services and gateway routes."""

    version: int
    services: tuple[ManifestService, ...]
    gateway_routes: tuple[GatewayRoute, ...] = ()

    def entry_service(self) -> str | None:
        for s in self.services:
            if s.entry:
                return s.name
        return None


class Program(Record):
    """The services of one corpus and its manifest."""

    _fields = ("services", "manifest")
    __slots__ = (*_fields, "_by_name")

    def __init__(self, services: tuple[Service, ...], manifest: Manifest) -> None:
        self.services = services
        self.manifest = manifest
        self._by_name = {s.name: s for s in services}

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


class IntegrityViolation(NamedTuple):
    """A well-formedness defect found in a Program. Data, not an exception."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


def validate_program(program: Program) -> list[IntegrityViolation]:
    """Return every invariant violation; an empty list means well-formed.
    The manifest must list exactly the program's services, in program order
    (``ManifestMismatch``). ``scan`` calls this first; no later stage checks
    these facts again."""
    violations: list[IntegrityViolation] = []
    seen_names: set[str] = set()
    owners: dict[str, str] = {}  # element id -> first service declaring it
    entries = [s.name for s in program.manifest.services if s.entry]

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
                    detail = f"{svc.name}: edge {edge.kind.value} {edge.src}->{edge.dst} references unknown id {endpoint}"
                    violations.append(IntegrityViolation("DanglingEdge", detail))
        for ch in svc.channels:
            if ch.element not in ids:
                violations.append(
                    IntegrityViolation("DanglingChannel", f"{svc.name}: channel references unknown id {ch.element}")
                )

    listed = [s.name for s in program.manifest.services]
    names = [s.name for s in program.services]
    if listed != names:
        violations.append(IntegrityViolation("ManifestMismatch", f"manifest lists {listed}, program has {names}"))
    if not entries:
        violations.append(IntegrityViolation("NoEntryService", ""))
    elif len(entries) > 1:
        violations.append(IntegrityViolation("MultipleEntryServices", ", ".join(sorted(entries))))

    for route in program.manifest.gateway_routes:
        if route.target not in seen_names:
            violations.append(
                IntegrityViolation("UnknownRouteTarget", f"route {route.prefix} -> {route.target}")
            )
    return violations
