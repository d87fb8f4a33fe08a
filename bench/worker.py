"""One cold analysis in a fresh process, as the CLI runs it.

Usage: python3 bench/worker.py JOB_JSON

JOB_JSON holds ``corpora`` (directories analysed in order, one analysis),
``budget`` ("default" or "open"), ``warmup`` (analyse the corpora once
first, untimed, in this process), ``trace`` and ``analysis`` (the id that
traced spans carry). Prints one JSON line:
set-up and analysis seconds, the reference time taken right before and
after the analysis (see reference.py), reasoner calls, peak RSS, per-corpus report
digests and findings, and, when traced, the layer metrics and spans.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from privflow import search  # noqa: E402
from privflow.load import load_program  # noqa: E402
from privflow.pipeline import ScanBudget, scan  # noqa: E402
from privflow.reasoner import ScriptedOracle  # noqa: E402
from privflow.report import render_report  # noqa: E402

from gen import sink_set  # noqa: E402
from reference import reference_s  # noqa: E402
from tracer import CountingReasoner, Tracer, layer_metrics  # noqa: E402

# Non-binding budget for the synthetic corpora: the default 40 calls per
# phase meters deterministic primitives too, so even a 3x4 chain exhausts
# the flow phase and reports nothing (ROADMAP item 4).
OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)
CACHED = ("build_flow_graph", "_containment_parent", "function_call_graph")


def cache_counts() -> tuple[int, int]:
    """(hits, misses) summed over search's lru_caches; 0 once they are gone."""
    hits = misses = 0
    for name in CACHED:
        info = getattr(getattr(search, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def analyse(corpora, reasoners, budget, load=load_program, run=scan, render=render_report):
    out = []
    for corpus, reasoner in zip(corpora, reasoners):
        program = load(corpus)
        payload = run(program, reasoner, budget)
        out.append((program, payload, render(payload, "json")))
    return out


def main(job: dict) -> dict:
    budget = ScanBudget() if job["budget"] == "default" else OPEN_BUDGET
    corpora = [Path(c) for c in job["corpora"]]
    warmup_s = None
    if job["warmup"]:
        started = time.perf_counter()
        analyse(corpora, [ScriptedOracle() for _ in corpora], budget)
        warmup_s = time.perf_counter() - started
    tracer = Tracer(job["analysis"]) if job["trace"] else None
    # one reasoner per scan, as the CLI builds one per run
    reasoners = [CountingReasoner(ScriptedOracle(), tracer) for _ in corpora]
    setup_s = time.perf_counter() - _STARTED
    ref_before = reference_s()

    hits0, misses0 = cache_counts()
    if tracer is None:
        started = time.perf_counter()
        results = analyse(corpora, reasoners, budget)
        analyze_s = time.perf_counter() - started
    else:
        tracer.install()
        results = tracer.call(
            "analysis",
            analyse,
            (corpora, reasoners, budget),
            {
                "load": tracer.wrap("load_program", load_program),
                "run": tracer.wrap("scan", scan),
                "render": tracer.wrap("render_report", render_report),
            },
        )
        root = tracer.spans[0]
        analyze_s = root[4] - root[3]
    hits1, misses1 = cache_counts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # bracket the analysis, so the machine's speed during it is tracked
    # even when the analysis takes seconds
    ref_s = (ref_before + reference_s()) / 2

    reports = []
    for program, payload, text in results:
        reports.append(
            {
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "bytes": len(text.encode("utf-8")),
                "funnel": payload["funnel"],
                "exhausted": payload["budget"]["exhausted"],
                "tool_calls": payload["budget"]["tool_calls"],
                "sinks": sorted(sink_set(payload)),
                "elements": sum(len(s.elements) for s in program.services),
                "edges": sum(len(s.edges) for s in program.services),
            }
        )
    result = {
        "setup_s": setup_s,
        "analyze_s": analyze_s,
        "warmup_s": warmup_s,
        "reference_s": ref_s,
        "reasoner_calls": sum(r.calls for r in reasoners),
        "peak_rss_mb": peak_rss_mb,
        "cache_hits": hits1 - hits0,
        "cache_misses": misses1 - misses0,
        "reports": reports,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        result["reasoner_distinct"] = sum(len(r.distinct) for r in reasoners)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
