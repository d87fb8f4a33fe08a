"""Seeded, deterministic MiniSrv corpus generators with ground truth.

Two shapes:

* ``chain(S, E)``: S services with E endpoints each. Endpoint j of service i
  does an unguarded ``db.write`` and forwards its input to endpoint j of
  service i+1. Every ``db.write`` is reachable from the entry service, so
  the ground truth is S*E unprotected sinks, one flow each.
* ``fanout(S, K)``: S services with K endpoints each. Every endpoint of
  service i posts to all K endpoints of service i+1 and the endpoints of
  the last service run ``exec``. There are K**S simple paths to K sinks;
  the ground truth is the K ``exec`` sinks, each unprotected.

The seed permutes service names, endpoint names and the order of functions
in each file, never the shape. Every name comes from a word list that none
of the scripted oracle's privileged-operation or check keywords match, so
the reasoner's decisions, and hence its call counts, do not depend on the
seed. The same arguments always produce byte-identical files.

Ground truth is a set of ``(service, file, line, callee, verdict)`` sink
keys: findings are compared as sink sets, not path counts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SERVICE_WORDS = (
    "alder", "aspen", "banyan", "beech", "birch", "catalpa", "cedar", "cypress",
    "dogwood", "ebony", "elm", "fir", "ginkgo", "hazel", "hemlock", "hickory",
    "holly", "juniper", "kapok", "larch", "laurel", "linden", "magnolia", "maple",
    "myrtle", "oak", "olive", "palm", "pine", "poplar", "quince", "rowan",
)
ENDPOINT_WORDS = (
    "auk", "avocet", "bittern", "crane", "curlew", "dove", "dunlin", "egret",
    "finch", "gannet", "godwit", "grebe", "grouse", "gull", "heron", "ibis",
    "junco", "kite", "lark", "loon", "osprey", "petrel", "pipit", "plover",
    "puffin", "quail", "raven", "robin", "stork", "swift", "tern", "thrush",
    "vireo", "wren",
)

MANIFEST = "privflow.manifest.json"
VERDICT = "unprotected"


def _write_corpus(out: Path, services: list[str], sources: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": 1,
        "services": [
            {
                "name": name,
                "entry": name == services[0],
                "base_url": f"http://{name}:8080",
                "sources": [f"{name}.msv"],
            }
            for name in sorted(services)
        ],
        "gateway_routes": [{"prefix": f"/{services[0]}", "target": services[0]}],
    }
    (out / MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    for name in sorted(sources):
        (out / f"{name}.msv").write_text(sources[name], encoding="utf-8")


def _emit(service: str, next_service: str | None, functions: list[list[str]], rng: random.Random):
    """Service source text plus the line where each function starts."""
    order = list(range(len(functions)))
    rng.shuffle(order)
    lines = [f"// {service}"]
    if next_service is not None:
        lines.append(f'const NEXT = "http://{next_service}:8080"')
    starts: dict[int, int] = {}
    for idx in order:
        lines.append("")
        starts[idx] = len(lines) + 1
        lines.extend(functions[idx])
    return "\n".join(lines) + "\n", starts


def chain(seed: int, services: int, endpoints: int, out: Path) -> set[tuple]:
    """Write a chain corpus to ``out``; return its ground-truth sink set."""
    rng = random.Random(seed)
    svc = rng.sample(SERVICE_WORDS, services)
    eps = rng.sample(ENDPOINT_WORDS, endpoints)
    truth: set[tuple] = set()
    sources: dict[str, str] = {}
    for i, name in enumerate(svc):
        nxt = svc[i + 1] if i + 1 < services else None
        functions = []
        for ep in eps:
            body = [
                f'@route("POST", "/{name}/{ep}")',
                f"fn handle_{ep}() {{",
                '  v = request.param("v")',
                f'  db.write("insert into {name}_{ep} values " + v)',
            ]
            if nxt is not None:
                body.append(f'  http_post(NEXT + "/{nxt}/{ep}", v)')
            body.append("}")
            functions.append(body)
        text, starts = _emit(name, nxt, functions, rng)
        sources[name] = text
        for j in range(endpoints):
            # the db.write is the fourth line of its function
            truth.add((name, f"{name}.msv", starts[j] + 3, "db.write", VERDICT))
    _write_corpus(out, svc, sources)
    return truth


def fanout(seed: int, services: int, width: int, out: Path) -> set[tuple]:
    """Write a fan-out corpus to ``out``; return its ground-truth sink set."""
    rng = random.Random(seed)
    svc = rng.sample(SERVICE_WORDS, services)
    eps = rng.sample(ENDPOINT_WORDS, width)
    truth: set[tuple] = set()
    sources: dict[str, str] = {}
    for i, name in enumerate(svc):
        nxt = svc[i + 1] if i + 1 < services else None
        functions = []
        for ep in eps:
            body = [f'@route("POST", "/{name}/{ep}")', f"fn handle_{ep}() {{", '  v = request.param("v")']
            if nxt is None:
                body.append("  exec(v)")
            else:
                body.extend(f'  http_post(NEXT + "/{nxt}/{target}", v)' for target in eps)
            body.append("}")
            functions.append(body)
        text, starts = _emit(name, nxt, functions, rng)
        sources[name] = text
        if nxt is None:
            for k in range(width):
                truth.add((name, f"{name}.msv", starts[k] + 3, "exec", VERDICT))
    _write_corpus(out, svc, sources)
    return truth


def sink_set(payload: dict) -> set[tuple]:
    """The report's findings as a ground-truth-comparable sink set."""
    out = set()
    for f in payload["findings"]:
        op = f["privileged_operation"]
        out.add((op["service"], op["file"], op["line"], op["name"], f["verdict"]))
    return out
