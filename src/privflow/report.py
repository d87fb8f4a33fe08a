"""Report rendering and exit-status policy.

The JSON payload produced by the pipeline is the single source of truth
(schema field pinned at 6); markdown is derived from it, never computed
separately. Reports carry no timestamps so equal scans render byte-identically.
``exit_status`` and the markdown renderer read the payload's keys directly:
their one producer, ``pipeline._report_payload``, always writes them.

The JSON text is exactly ``json.dumps(payload, indent=2, sort_keys=True) +
"\n"``, produced mostly by the stdlib's C encoder, which has no indented
mode. Python walks only the containers that hold other containers. Every
scalar, and every container holding only scalars, is encoded in one C call
whose item separator carries the newline and indent of its depth. Exact
``str`` members are encoded inline, and each distinct member type is
tested once per container.

The pipeline writes each path segment's record once, in the report's
``hops`` table, and each path element's once, in its ``elements`` table,
which findings name by id; every other record is built per finding. So a
scan's payload is a tree, and one render encodes each of its containers
once. A payload that holds one container in several places renders to the
same text, encoded at each place.
"""

from __future__ import annotations

import functools
import json
from enum import IntEnum
from json.encoder import c_make_encoder, encode_basestring_ascii


class ExitStatus(IntEnum):
    CLEAN = 0
    FINDINGS = 1
    CONFIG_ERROR = 2
    BUDGET_EXHAUSTED = 3


def exit_status(payload: dict) -> ExitStatus:
    if payload["budget"]["exhausted"]:
        return ExitStatus.BUDGET_EXHAUSTED
    if payload["findings"]:
        return ExitStatus.FINDINGS
    return ExitStatus.CLEAN


def render_report(payload: dict, fmt: str = "json") -> str:
    if fmt == "json":
        chunks: list[str] = []
        _render_json(payload, 0, chunks, {})
        chunks.append("\n")
        return "".join(chunks)
    if fmt == "md":
        return _render_md(payload)
    raise ValueError(f"unknown report format {fmt!r}")


_NESTED = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _level(depth: int) -> tuple:
    """(C encoder, inner line start, outer line start) for a container at
    nesting ``depth``. The encoder's item separator starts a line indented
    for ``depth + 1``, so on a container of scalars it lays out the items as
    the stdlib does; only the brackets' own lines are missing."""
    inner = "\n" + "  " * (depth + 1)
    encoder = c_make_encoder(
        None,  # markers: a container of scalars cannot be circular
        json.JSONEncoder().default,
        encode_basestring_ascii,
        None,  # indent: the item separator does the indenting
        ": ",
        "," + inner,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return encoder, inner, "\n" + "  " * depth


def _key_text(key, keys: dict[str, str]) -> str:
    """A dict key as the stdlib converts it, quoted, and the ``": "`` after
    it; kept in ``keys`` when the key is exactly a ``str``. A key that is
    no ``str`` never equals a kept one, and a ``str`` subclass that equals
    one has its characters, so a lookup in ``keys`` finds no wrong text."""
    if isinstance(key, str):
        text = encode_basestring_ascii(key) + ": "
        if type(key) is str:
            keys[key] = text
        return text
    if key is None or isinstance(key, (int, float)):
        encoder = _level(0)[0]
        return encode_basestring_ascii("".join(encoder(key, 0))) + ": "
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _nested_types(values) -> set:
    """The types of the values that are dicts, lists or tuples; each
    distinct type is tested once."""
    types = set(map(type, values))
    if types <= _SCALARS:
        return set()
    return {t for t in types if issubclass(t, _NESTED)}


def _render_json(value, depth: int, chunks: list[str], keys: dict[str, str]) -> None:
    """Append ``value``'s text at nesting ``depth`` to ``chunks``. Python
    walks only the containers that hold other containers. ``keys`` maps
    each ``str`` dict key met so far to its quoted text and the ``": "``
    after it."""
    encoder, inner, outer = _level(depth)
    if isinstance(value, dict):
        members = value.values()
    elif isinstance(value, (list, tuple)):
        members = value
    else:
        members = ()
    nested = _nested_types(members)
    if not nested:
        # the C encoder flushes its buffer into a new chunk every 100,000
        # pieces, so a long container comes back in several chunks
        text = "".join(encoder(value, 0))
        if len(text) > 2 and text[0] in "[{":
            text = f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"
        chunks.append(text)
        return
    if isinstance(value, dict):
        # the stdlib sorts (key, value) pairs, then converts the keys
        items = [(keys.get(k) or _key_text(k, keys), v) for k, v in sorted(value.items())]
        opener, closer = "{", "}"
    else:
        items = [("", v) for v in value]
        opener, closer = "[", "]"
    chunks.append(opener)
    sep, comma = inner, "," + inner
    for prefix, member in items:
        kind = type(member)
        if kind is str:
            chunks.append(sep + prefix + encode_basestring_ascii(member))
        elif kind not in nested:
            chunks.append(sep + prefix)
            chunks += encoder(member, 0)  # a scalar's text is the same at any depth
        else:
            chunks.append(sep + prefix)
            _render_json(member, depth + 1, chunks, keys)
        sep = comma
    chunks.append(outer + closer)


def _render_md(payload: dict) -> str:
    lines: list[str] = []
    out = lines.append

    out("# privflow scan report")
    out("")
    program = payload["program"]
    out(f"Entry service: `{program['entry_service']}`; reasoner: {payload['reasoner']}")
    out("")
    out("| service | elements | edges | channels |")
    out("|---|---|---|---|")
    for svc in program["services"]:
        marker = " (entry)" if svc["entry"] else ""
        out(f"| {svc['name']}{marker} | {svc['elements']} | {svc['edges']} | {svc['channels']} |")
    out("")

    ops = payload["privileged_operations"]
    out(f"## Privileged operations ({len(ops)})")
    out("")
    for op in ops:
        out(f"- `{op['name'] or op['source']}` [{op['category']}] at {op['file']}:{op['line']} in {op['service']}: {op['rationale']}")
    out("")

    funnel = payload["funnel"]
    out("## Funnel")
    out("")
    out(
        f"{funnel['initial_flows']} initial path classes: "
        f"{funnel['constraint_pruned']} constraint-pruned, "
        f"{funnel['protected_dropped']} protected-dropped, "
        f"{funnel['budget_truncated']} budget-truncated, "
        f"{funnel['findings']} findings."
    )
    out("")

    findings = payload["findings"]
    hops = payload["hops"]
    elements = payload["elements"]
    out(f"## Findings ({len(findings)})")
    for i, finding in enumerate(findings, start=1):
        op = finding["privileged_operation"]
        out("")
        out(f"### {i}. {finding['verdict']}: {op['name'] or op['source']} ({op['service']})")
        out("")
        out(f"- Category: {op['category']}")
        out(f"- Location: {op['file']}:{op['line']}")
        out(f"- Feasibility: {finding['feasibility']} (constraints: {finding['constraint']['status']})")
        out(f"- Rationale: {finding['rationale']}")
        out(f"- Flows in class: {finding['witness_count']}")
        out("- Path:")
        for hop_id in finding["path"]["hops"]:
            hop = hops[hop_id]
            if hop["type"] == "flow":
                steps = " -> ".join(elements[eid]["name"] or elements[eid]["kind"] for eid in hop["steps"])
                out(f"  - [{hop['service']}] {steps}")
            else:
                out(
                    f"  - => channel \"{hop['identifier']}\" ({hop['match']}) "
                    f"{hop['from_service']} to {hop['to_service']}"
                )
        checks = finding["checks"]
        if checks:
            out("- Checks found on path:")
            for c in checks:
                label = c["name"] or "inline conditional"
                subtype = f"/{c['authz_subtype']}" if c["classification"] == "authz" else ""
                out(f"  - {c['attachment']} `{label}`: {c['classification']}{subtype}: {c['rationale']}")
        else:
            out("- Checks found on path: none")
        out(f"- Evidence snippets: {len(finding['evidence'])}")
    out("")

    channels = payload["channels"]
    unresolved = channels["unresolved"]
    ambiguous = channels["ambiguous"]
    if unresolved or ambiguous:
        out("## Diagnostics")
        out("")
        for u in unresolved:
            out(f"- unresolved channel: {u}")
        for a in ambiguous:
            out(f"- ambiguous channel match from element {a}")
        out("")

    budget = payload["budget"]
    calls = ", ".join(f"{k}={v}" for k, v in sorted(budget["tool_calls"].items()))
    asked = ", ".join(f"{k}={v}" for k, v in sorted(budget["reasoner_calls"].items()))
    out(f"Budget: {calls or 'no tool calls'}; reasoner calls: {asked or 'none'}; exhausted: {budget['exhausted']}")
    return "\n".join(lines) + "\n"
