"""Assemble a Program from a corpus directory.

A corpus is a directory holding ``privflow.manifest.json`` plus the MiniSrv
sources (``*.msv``) and/or facts files (``*.facts.jsonl``) each service
declares. Supplied and frontend-derived channels are merged; a duplicate
channel for the same element is an ingest error.
"""

from __future__ import annotations

import heapq
from pathlib import Path

from .facts import MANIFEST_FILENAME, read_facts, read_manifest
from .minisrv import lower, parse_source
from .model import Program, Service, element_order


class LoadError(Exception):
    pass


def load_program(root: str | Path) -> Program:
    root = Path(root)
    manifest = read_manifest(root / MANIFEST_FILENAME)
    services = [_load_service(root, spec) for spec in manifest.services]
    return Program(services=tuple(services), manifest=manifest)


def _load_service(root: Path, spec) -> Service:
    """Lower or read each part, then merge the parts' canonically ordered
    collections: element ids, and so edges and channels, are unique across
    parts, which makes the merge the collections ``Service.build`` would
    sort the concatenated parts into."""
    parts: list[Service] = []
    ids: set[str] = set()
    channel_elements: set[str] = set()

    def merge(part: Service, origin: str) -> None:
        for el in part.elements:
            if el.id in ids:
                raise LoadError(f"{spec.name}: duplicate element id {el.id} while merging {origin}")
            ids.add(el.id)
        for ch in part.channels:
            if ch.element in channel_elements:
                raise LoadError(f"{spec.name}: duplicate channel for element {ch.element} in {origin}")
            channel_elements.add(ch.element)
        parts.append(part)

    for source_file in spec.sources:
        path = root / source_file
        if not path.exists():
            raise LoadError(f"{spec.name}: source file {path} does not exist")
        text = path.read_text(encoding="utf-8")
        ast = parse_source(text, spec.name, source_file)
        merge(lower(ast, spec.name), source_file)

    for facts_file in spec.facts:
        path = root / facts_file
        if not path.exists():
            raise LoadError(f"{spec.name}: facts file {path} does not exist")
        merge(read_facts(path.read_text(encoding="utf-8"), spec.name), facts_file)

    return Service(
        spec.name,
        tuple(heapq.merge(*(part.elements for part in parts), key=element_order)),
        tuple(heapq.merge(*(part.edges for part in parts))),
        tuple(heapq.merge(*(part.channels for part in parts))),
        entry=spec.entry,
    )
