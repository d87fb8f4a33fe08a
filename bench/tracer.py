"""Outside-in layer tracing for one analysis.

The tracer wraps privflow's public functions in the namespace where the
calling module looks them up (``pipeline`` imports them by name, so
``privflow.pipeline.q_flow`` and ``privflow.crossflow.q_flow`` are patched
separately). Each call becomes a span ``(id, name, parent, start, end,
analysis, n)``; ``n`` is a result-derived count for the few spans whose
result size is a layer metric. Spans stay in memory until the analysis
ends. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute) pairs wrapped in a traced analysis, in the namespace
# where the caller looks them up.
TRACED = {
    "privflow.pipeline": (
        "validate_program", "find_privileged_ops", "build_global_graph", "match_channels",
        "q_inter", "q_user", "q_globalflow", "extract_path_constraints", "check_sat",
        "locate_checks", "assess_flow", "q_cg", "q_name",
    ),
    "privflow.crossflow": ("q_flow", "q_inter", "match_channels"),
    "privflow.load": ("parse_source", "lower", "read_manifest"),
}

# Result-derived counts recorded on a span.
RESULT_COUNTS = {
    "pipeline.find_privileged_ops": len,
    "pipeline.build_global_graph": lambda graph: graph.edge_count(),
    "pipeline.q_globalflow": lambda flows: len(flows.paths),
    "pipeline.check_sat": lambda verdict: int(type(verdict).__name__ == "Unsat"),
}

TASK_NAMES = (
    "AssessSufficiency", "ClassifyCheck", "ClassifyPrivileged",
    "ConfirmUserSource", "ExtractConstraints", "NextSearchAction",
)


class CountingReasoner:
    """Reasoner proxy that counts ``reason()`` calls; with a tracer it also
    records one span per call and the distinct tasks seen."""

    def __init__(self, inner, tracer: "Tracer | None" = None):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.tracer = tracer
        self.distinct: set = set()

    def reason(self, task):
        self.calls += 1
        if self.tracer is None:
            return self.inner.reason(task)
        self.distinct.add(task)
        return self.tracer.call("reasoner." + type(task).__name__, self.inner.reason, (task,), {})


class Tracer:
    def __init__(self, analysis: int = 0):
        self.analysis = analysis
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserves the id; filled in when the call returns
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        count = RESULT_COUNTS.get(name)
        self.spans[sid] = (sid, name, parent, start, end, self.analysis, count(result) if count else 0)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Patch every TRACED name; the process ends after the analysis, so
        nothing is restored."""
        for module_name, attrs in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            for attr in attrs:
                setattr(module, attr, self.wrap(f"{short}.{attr}", getattr(module, attr)))


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals of one traced analysis, keyed by metric name."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        name = s[1]
        total[name] = total.get(name, 0.0) + (s[4] - s[3])
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[6]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    reasoner = [n for n in total if n.startswith("reasoner.")]
    out = {
        "load.s": t("load_program"),
        "minisrv.parse.s": t("load.parse_source"),
        "minisrv.lower.s": t("load.lower"),
        "pipeline.privops.s": t("pipeline.find_privileged_ops"),
        "pipeline.privops.ops": counts.get("pipeline.find_privileged_ops", 0),
        "search.q_name.calls": c("pipeline.q_name"),
        "search.q_flow.calls": c("crossflow.q_flow"),
        "search.q_flow.s": t("crossflow.q_flow"),
        "crossflow.graph.s": t("pipeline.build_global_graph"),
        "crossflow.graph.edges": counts.get("pipeline.build_global_graph", 0),
        "crossflow.match_channels.calls": c("pipeline.match_channels", "crossflow.match_channels"),
        "crossflow.match_channels.s": t("pipeline.match_channels", "crossflow.match_channels"),
        "constraints.extract.s": t("pipeline.extract_path_constraints"),
        "constraints.check_sat.calls": c("pipeline.check_sat"),
        "constraints.check_sat.s": t("pipeline.check_sat"),
        "constraints.unsat": counts.get("pipeline.check_sat", 0),
        "pipeline.locate_checks.s": t("pipeline.locate_checks"),
        "pipeline.assess.s": t("pipeline.assess_flow"),
        "pipeline.scan.self_s": sum(own[s[0]] for s in spans if s[1] == "scan"),
        "crossflow.paths.s": t("pipeline.q_globalflow"),
        "crossflow.paths.flows": counts.get("pipeline.q_globalflow", 0),
        "reasoner.s": t(*reasoner),
        "report.render.s": t("render_report"),
        "trace.self_sum_s": sum(own.values()),
    }
    for task in TASK_NAMES:
        out[f"reasoner.calls.{task}"] = calls.get(f"reasoner.{task}", 0)
    return out
