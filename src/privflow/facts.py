"""Language-neutral facts interchange format and application manifest.

Facts files (``*.facts.jsonl``) are line-delimited JSON, one record per
line, each self-described by a ``rec`` tag:

* ``{"rec": "header", "version": 1}``, the mandatory first record;
* ``{"rec": "element", "id", "service", "kind", "name", "file", "line",
  "col", "source", "type"}``;
* ``{"rec": "edge", "kind", "from", "to"}``;
* ``{"rec": "channel", "element", "direction", "protocol", "identifier"}``.

The manifest (``privflow.manifest.json``) declares the services, which one
is the system entry point, and the gateway route table. External frontends
for any language can feed the engine by emitting these two files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

from .model import (
    Channel,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    GatewayRoute,
    Location,
    Manifest,
    ManifestService,
    Service,
)

FORMAT_VERSION = 1
MANIFEST_FILENAME = "privflow.manifest.json"


class ManifestError(Exception):
    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class FactsError(Exception):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# --- manifest ---------------------------------------------------------------


def read_manifest(file: str | Path) -> Manifest:
    """Read and validate the application manifest."""
    path = Path(file)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError("file", f"{path} does not exist")
    except json.JSONDecodeError as exc:
        raise ManifestError("file", f"invalid JSON: {exc}")
    return parse_manifest(raw)


def parse_manifest(raw: object) -> Manifest:
    if not isinstance(raw, dict):
        raise ManifestError("root", "manifest must be a JSON object")
    version = raw.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ManifestError("version", f"expected {FORMAT_VERSION}, got {version!r}")

    services_raw = raw.get("services")
    if not isinstance(services_raw, list) or not services_raw:
        raise ManifestError("services", "must be a non-empty list")
    services: list[ManifestService] = []
    names: set[str] = set()
    for i, item in enumerate(services_raw):
        field = f"services[{i}]"
        if not isinstance(item, dict) or not isinstance(item.get("name"), str) or not item["name"]:
            raise ManifestError(field, "each service needs a non-empty name")
        name = item["name"]
        if name in names:
            raise ManifestError(field, f"duplicate service name {name!r}")
        names.add(name)
        sources = item.get("sources", [])
        facts = item.get("facts", [])
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise ManifestError(f"{field}.sources", "must be a list of file names")
        if not isinstance(facts, list) or not all(isinstance(s, str) for s in facts):
            raise ManifestError(f"{field}.facts", "must be a list of file names")
        if not sources and not facts:
            raise ManifestError(field, "a service needs sources and/or facts files")
        entry = item.get("entry", False)
        base_url = item.get("base_url", "")
        if not isinstance(entry, bool):
            raise ManifestError(f"{field}.entry", f"must be true or false, got {entry!r}")
        if not isinstance(base_url, str):
            raise ManifestError(f"{field}.base_url", f"must be a string, got {base_url!r}")
        services.append(ManifestService(name, entry, base_url, tuple(sources), tuple(facts)))

    entries = [s.name for s in services if s.entry]
    if not entries:
        raise ManifestError("services", "no entry service declared")
    if len(entries) > 1:
        raise ManifestError("services", f"multiple entry services: {', '.join(entries)}")

    routes_raw = raw.get("gateway_routes", [])
    if not isinstance(routes_raw, list):
        raise ManifestError("gateway_routes", "must be a list")
    routes: list[GatewayRoute] = []
    for i, item in enumerate(routes_raw):
        field = f"gateway_routes[{i}]"
        if not isinstance(item, dict):
            raise ManifestError(field, "each route must be an object")
        prefix = item.get("prefix")
        target = item.get("target")
        if not isinstance(prefix, str) or not prefix.startswith("/"):
            raise ManifestError(f"{field}.prefix", "must be an absolute path starting with '/'")
        if target not in names:
            raise ManifestError(f"{field}.target", f"unknown service {target!r}")
        routes.append(GatewayRoute(prefix=prefix, target=target))

    return Manifest(version=version, services=tuple(services), gateway_routes=tuple(routes))


# --- facts ------------------------------------------------------------------


def write_facts(service: Service) -> str:
    """Serialize a service deterministically: header, elements sorted by
    (file, line, col, kind), then edges, then channels."""
    lines = [json.dumps({"rec": "header", "version": FORMAT_VERSION}, sort_keys=True)]
    for e in service.elements:
        lines.append(
            json.dumps(
                {
                    "rec": "element",
                    "id": e.id,
                    "service": e.service,
                    "kind": e.kind.value,
                    "name": e.name,
                    "file": e.location.file,
                    "line": e.location.line,
                    "col": e.location.col,
                    "source": e.source,
                    "type": e.inferred_type,
                },
                sort_keys=True,
            )
        )
    for edge in service.edges:
        lines.append(
            json.dumps({"rec": "edge", "kind": edge.kind.value, "from": edge.src, "to": edge.dst}, sort_keys=True)
        )
    for ch in service.channels:
        lines.append(
            json.dumps(
                {
                    "rec": "channel",
                    "element": ch.element,
                    "direction": ch.direction,
                    "protocol": ch.protocol,
                    "identifier": ch.identifier,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def read_facts(stream: Iterable[str] | IO[str] | str, service_name: str) -> Service:
    """Parse a facts record stream into a Service.

    Fails atomically: the first malformed record raises FactsError with its
    line number and nothing is returned.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [line.rstrip("\n") for line in stream]

    elements: list[Element] = []
    ids: set[str] = set()
    edges: list[tuple[int, Edge]] = []
    channels: list[tuple[int, Channel]] = []
    saw_header = False

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FactsError(lineno, f"invalid JSON: {exc.msg}")
        if not isinstance(rec, dict) or "rec" not in rec:
            raise FactsError(lineno, "record must be an object with a 'rec' tag")
        tag = rec["rec"]

        if tag == "header":
            if saw_header:
                raise FactsError(lineno, "duplicate header record")
            if type(rec.get("version")) is not int or rec["version"] != FORMAT_VERSION:
                raise FactsError(lineno, f"unsupported version {rec.get('version')!r}")
            saw_header = True
            continue
        if not saw_header:
            raise FactsError(lineno, "missing header record")

        if tag == "element":
            el = _parse_element(rec, lineno)
            if el.id in ids:
                raise FactsError(lineno, f"duplicate element id {el.id}")
            ids.add(el.id)
            elements.append(el)
        elif tag == "edge":
            edges.append((lineno, _parse_edge(rec, lineno)))
        elif tag == "channel":
            channels.append((lineno, _parse_channel(rec, lineno)))
        else:
            raise FactsError(lineno, f"unknown record tag {tag!r}")

    if lines and not saw_header:
        raise FactsError(1, "missing header record")

    for lineno, edge in edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in ids:
                raise FactsError(lineno, f"edge references unknown element {endpoint}")
    seen_channel_elements: set[str] = set()
    for lineno, ch in channels:
        if ch.element not in ids:
            raise FactsError(lineno, f"channel references unknown element {ch.element}")
        if ch.element in seen_channel_elements:
            raise FactsError(lineno, f"duplicate channel for element {ch.element}")
        seen_channel_elements.add(ch.element)

    return Service.build(service_name, elements, [e for _, e in edges], [c for _, c in channels])


def _require(rec: dict, lineno: int, record: str, fields: tuple[str, ...], ints: tuple[str, ...]) -> None:
    """Every field is present with its JSON type: ``ints`` are integers
    (``true`` is not one), the others strings; nothing is coerced."""
    for key in fields:
        if key not in rec:
            raise FactsError(lineno, f"{record} record missing field {key!r}")
        want = int if key in ints else str
        if type(rec[key]) is not want:
            article = "an integer" if want is int else "a string"
            raise FactsError(lineno, f"{record} field {key!r} must be {article}, got {rec[key]!r}")


def _parse_element(rec: dict, lineno: int) -> Element:
    _require(rec, lineno, "element", ("id", "service", "kind", "name", "file", "line", "col", "source", "type"), ("line", "col"))
    try:
        kind = ElementKind(rec["kind"])
    except ValueError:
        raise FactsError(lineno, f"unknown element kind {rec['kind']!r}")
    try:
        location = Location(rec["file"], rec["line"], rec["col"])
    except ValueError as exc:
        raise FactsError(lineno, f"bad location: {exc}")
    try:
        return Element(rec["id"], rec["service"], kind, rec["name"], location, rec["source"], rec["type"])
    except ValueError as exc:
        raise FactsError(lineno, str(exc))


def _parse_edge(rec: dict, lineno: int) -> Edge:
    _require(rec, lineno, "edge", ("kind", "from", "to"), ())
    try:
        kind = EdgeKind(rec["kind"])
    except ValueError:
        raise FactsError(lineno, f"unknown edge kind {rec['kind']!r}")
    return Edge(kind, rec["from"], rec["to"])


def _parse_channel(rec: dict, lineno: int) -> Channel:
    _require(rec, lineno, "channel", ("element", "direction", "protocol", "identifier"), ())
    try:
        return Channel(rec["element"], rec["direction"], rec["protocol"], rec["identifier"])
    except ValueError as exc:
        raise FactsError(lineno, str(exc))
