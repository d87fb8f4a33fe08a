"""Assemble a Program from a corpus directory.

A corpus is a directory holding ``privflow.manifest.json`` plus the MiniSrv
sources (``*.msv``) and/or facts files (``*.facts.jsonl``) each service
declares. Supplied and frontend-derived channels are merged. An element id
repeated across a service's files is an ingest error, and so is a channel
repeated within a facts file (``read_facts``).

Each file's frontend output is memoized for the life of the process, so a
process that loads a corpus again (a test session, a daemon, a warm rescan)
parses and lowers only the files whose text changed. The key is (part kind,
service name, file name as written in the manifest); the value is the
file's exact text and its part, the elements, edges and channels it lowers
or reads to. Lowering and reading facts are pure functions of those inputs.
Every load reads every declared file: a part is reused only when the text
read equals the stored text, and a different text replaces the entry, so
the memo holds at most one part per key, the one last loaded. A file that
fails to parse, lower or read stores nothing and raises again on the next
load. Only immutable records are shared between loads: the ``Element``,
``Edge`` and ``Channel`` records, and the tuples holding them when a service
has one file. The merge, with its check for an element id repeated across
files, and each ``Service`` and the ``Program`` are fresh on every load, so
each service gets its own ``search.ServiceIndex`` and dies with its program.
"""

from __future__ import annotations

import heapq
from pathlib import Path

from .facts import MANIFEST_FILENAME, read_facts, read_manifest
from .minisrv import lower, parse_source
from .model import Channel, Edge, Element, Program, Service, element_order


class LoadError(Exception):
    pass


# What one source or facts file contributes to its service: its elements,
# edges and channels, each in ``Service.build`` order.
Part = tuple[tuple[Element, ...], tuple[Edge, ...], tuple[Channel, ...]]


# (part kind, service name, file name) -> (text, part). The Service a part
# came out of is not kept, so neither is its element table.
_parts: dict[tuple[str, str, str], tuple[str, Part]] = {}


def load_program(root: str | Path) -> Program:
    root = Path(root)
    manifest = read_manifest(root / MANIFEST_FILENAME)
    services = [_load_service(root, spec) for spec in manifest.services]
    return Program(services=tuple(services), manifest=manifest)


def _part(kind: str, spec, root: Path, file: str) -> Part:
    """The part one declared file contributes to its service, from the memo
    when the file's text is the one stored under its key."""
    path = root / file
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise LoadError(f"{spec.name}: {kind} file {path} does not exist") from None
    key = (kind, spec.name, file)
    stored = _parts.pop(key, None)
    if stored is not None and stored[0] == text:
        part = stored[1]
    else:
        if kind == "source":
            service = lower(parse_source(text, file), spec.name)
        else:
            service = read_facts(text, spec.name)
        part = (service.elements, service.edges, service.channels)
    _parts[key] = (text, part)
    return part


def _load_service(root: Path, spec) -> Service:
    """Lower or read each part, then merge the parts' canonically ordered
    collections: element ids, and so edges and channels, are unique across
    parts, which makes the merge the collections ``Service.build`` would
    sort the concatenated parts into. A service of one part takes that
    part's collections as they are.

    Within a part, element ids are unique by construction (``lower`` keys
    its elements by id, ``read_facts`` rejects a repeat), and so are channel
    elements, so only a repeat across parts is checked. A channel names an
    element of its own part, so a channel repeated across parts repeats
    that element's id first."""
    files = [("source", file) for file in spec.sources] + [("facts", file) for file in spec.facts]
    parts: list[Part] = []
    ids: set[str] = set()
    for kind, file in files:
        part = _part(kind, spec, root, file)
        if len(files) > 1:
            for el in part[0]:
                if el.id in ids:
                    raise LoadError(f"{spec.name}: duplicate element id {el.id} while merging {file}")
                ids.add(el.id)
        parts.append(part)

    elements, edges, channels = zip(*parts)
    return Service(spec.name, _merged(elements, element_order), _merged(edges), _merged(channels))


def _merged(collections: tuple[tuple, ...], key=None) -> tuple:
    """The parts' ordered collections merged into one; a single part's as it is."""
    if len(collections) == 1:
        return collections[0]
    return tuple(heapq.merge(*collections, key=key))
