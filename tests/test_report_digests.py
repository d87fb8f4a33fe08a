"""Byte-identity gate: sha256 digests of reports and traces, checked in as
``report_digests.json`` next to this file.

Covered outputs:

* the JSON and Markdown reports and the tool-call trace, with its
  ``elapsed_ms`` timings removed, of every corpus under ``tests/corpora``
  with default options, with ``basic_sink`` and with
  ``on_demand_context=False``;
* the same three outputs of ``role_update`` with ``basic_sink`` and a
  wall-clock budget of 6 and 7 seconds on a clock that moves one second
  per reading (``ticking``), so the scan stops at its 7th and its 8th
  record. Both run out in the flow phase, the first in the graph, before
  channel matching (no matched channels), the second after it (one). No
  corpus sends a flow-phase task to the backend, so a budget of backend
  calls cannot stop this phase here;
* the three outputs and every ``emit_smt_dir`` file of a scan of
  ``conftest.write_fanout_corpus(root, 4, 2)`` at an open budget
  (``SHARED``): 16 flows through 4 guarded services, which share their
  segments and their constraint. Each corpus above has at most 2 flows;
* the JSON report and the trace of a scan of the benchmark's own corpora
  (``GENERATED``), ``bench/gen.py``'s chain 4x12 and fan-out 8x2 with
  seed 1 at an open budget: 48 path classes of one flow each, whose
  witness ids pin every path's node ids, and 2 classes of 128 flows each.
  Each asks the backend one task, so the same two corpora run out of a
  wall-clock budget on the ``ticking`` clock: chain 4x12 at 19 and
  fan-out 8x2 at 32 seconds stop at a ``q_flow`` record inside the graph,
  at 82 and 60 seconds at the flow phase's last record, ``q_globalflow``,
  and at 89 and 63 seconds in validation, after 3 of 48 and 1 of 2 path
  classes;
* the three outputs of ``class_replay`` (``REPLAY``), whose two flows form
  one path class with a non-empty ``locate_checks`` call list: at an
  open budget; with ``basic_sink`` and a ``ticking`` budget of 5, 6 and 8
  seconds, which runs out in the flow phase, at the first source's and at
  the second source's ``ConfirmUserSource`` record and at
  ``q_globalflow``; and with ``basic_sink`` at 1 backend call per phase,
  which runs out at validation's second ``ClassifyCheck``.

The trace is written to ``trace.jsonl`` in the working directory, so the
report's ``trace_file`` field is the same on every machine.

A change that alters a report on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_report_digests.py

and says which outputs changed and why.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from privflow import crossflow, pipeline
from privflow.load import load_program
from privflow.pipeline import ScanBudget, ScanOptions, scan
from privflow.reasoner import ConfirmUserSource, ScriptedOracle, task_digest
from privflow.report import render_report

from conftest import bench_gen, write_fanout_corpus

CORPORA = Path(__file__).resolve().parent / "corpora"
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
TRACE = "trace.jsonl"

VARIANTS = {"default": {}, "basic_sink": {"basic_sink": True}, "no_odctx": {"on_demand_context": False}}
# case name -> (``ticking`` seconds, matched channels in the partial report)
PARTIAL = {"role_update/basic_sink/budget6s": (6, 0), "role_update/basic_sink/budget7s": (7, 1)}
SHARED = "fanout4x2/open/emit_smt"
SMT_DIR = "smt"
OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)
# case name -> (``bench/gen.py`` generator, its shape arguments, ``ticking``
# seconds or None for an open budget, findings)
GENERATED = {
    "gen/chain4x12/open": ("chain", (4, 12), None, 48),
    "gen/fanout8x2/open": ("fanout", (8, 2), None, 2),
    "gen/chain4x12/budget19s": ("chain", (4, 12), 19, 0),
    "gen/chain4x12/budget82s": ("chain", (4, 12), 82, 0),
    "gen/chain4x12/budget89s": ("chain", (4, 12), 89, 3),
    "gen/fanout8x2/budget32s": ("fanout", (8, 2), 32, 0),
    "gen/fanout8x2/budget60s": ("fanout", (8, 2), 60, 0),
    "gen/fanout8x2/budget63s": ("fanout", (8, 2), 63, 1),
}


# case name -> (options, budget, whether the budget's seconds are ``ticking``)
REPLAY = {
    "class_replay/open": ({}, OPEN_BUDGET, False),
    "class_replay/basic_sink/budget5s": (VARIANTS["basic_sink"], ScanBudget(max_seconds=5), True),
    "class_replay/basic_sink/budget6s": (VARIANTS["basic_sink"], ScanBudget(max_seconds=6), True),
    "class_replay/basic_sink/budget8s": (VARIANTS["basic_sink"], ScanBudget(max_seconds=8), True),
    "class_replay/basic_sink/budget1": (VARIANTS["basic_sink"], ScanBudget(max_tool_calls_per_phase=1), False),
}


@contextlib.contextmanager
def ticking():
    """A clock that moves one second per reading. A scan's tracer reads it
    once when it starts and once per record, so a budget of N seconds runs
    out at the scan's record N + 1."""
    ticks = itertools.count()
    with mock.patch.object(pipeline, "time", SimpleNamespace(monotonic=lambda: float(next(ticks)))):
        yield


def _cases() -> dict[str, tuple[Path, dict, ScanBudget, bool]]:
    cases = {}
    for corpus in sorted(p for p in CORPORA.iterdir() if p.is_dir()):
        for variant, options in VARIANTS.items():
            cases[f"{corpus.name}/{variant}"] = (corpus, options, ScanBudget(), False)
    for name, (seconds, _) in PARTIAL.items():
        cases[name] = (CORPORA / "role_update", VARIANTS["basic_sink"], ScanBudget(max_seconds=seconds), True)
    for name, (options, budget, clocked) in REPLAY.items():
        cases[name] = (CORPORA / "class_replay", options, budget, clocked)
    return cases


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(corpus: Path, options: dict, budget: ScanBudget, clocked: bool = False) -> tuple[dict[str, str], dict]:
    """Digests of one scan's outputs, and its report; writes ``TRACE`` in
    the working directory. A ``clocked`` scan runs on the ``ticking``
    clock."""
    with ticking() if clocked else contextlib.nullcontext():
        payload = scan(load_program(corpus), ScriptedOracle(), budget, ScanOptions(trace_path=TRACE, **options))
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["elapsed_ms"]
    trace = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    digests = {"json": _sha(render_report(payload, "json")), "md": _sha(render_report(payload, "md")), "trace": _sha(trace)}
    return digests, payload


def _shared_digests() -> dict[str, str]:
    """Digests of the ``SHARED`` scan's outputs, one ``smt/<file>`` entry
    per SMT file; writes the corpus, ``TRACE`` and ``SMT_DIR`` in the
    working directory."""
    corpus = Path("fanout")
    corpus.mkdir()
    write_fanout_corpus(corpus, 4, 2)
    digests, payload = _digests(corpus, {"emit_smt_dir": SMT_DIR}, OPEN_BUDGET)
    assert payload["funnel"]["findings"] == 16
    for path in sorted(Path(SMT_DIR).iterdir()):
        digests[f"{SMT_DIR}/{path.name}"] = _sha(path.read_text(encoding="utf-8"))
    return digests


def _generated_digests(name: str) -> dict[str, str]:
    """Digests of the JSON report and the trace of the ``GENERATED`` scan
    ``name``; writes the corpus and ``TRACE`` in the working directory."""
    generator, shape, seconds, findings = GENERATED[name]
    corpus = Path("corpus")
    getattr(bench_gen(), generator)(1, *shape, corpus)
    budget = OPEN_BUDGET if seconds is None else ScanBudget(max_seconds=seconds)
    digests, payload = _digests(corpus, {}, budget, clocked=seconds is not None)
    assert payload["funnel"]["findings"] == findings
    assert payload["budget"]["exhausted"] == (seconds is not None)
    if seconds is not None:
        assert payload["budget"]["exhausted_reason"].endswith(f": exceeded {seconds}s wall clock")
        assert sum(payload["budget"]["tool_calls"].values()) == seconds + 1
    return {key: digests[key] for key in ("json", "trace")}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_checked_in_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests, payload = _digests(*CASES[name])
    if name in PARTIAL:
        seconds, channels = PARTIAL[name]
        assert payload["budget"]["exhausted_reason"] == f"flow: exceeded {seconds}s wall clock"
        assert len(payload["channels"]["matched"]) == channels
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


def test_shared_segment_outputs_match_checked_in_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = _shared_digests()
    assert len([name for name in digests if name.startswith(SMT_DIR + "/")]) == 16
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[SHARED]


def test_shared_scan_renders_each_distinct_constraint_once(tmp_path, monkeypatch):
    """The ``SHARED`` scan's 16 flows are 16 path classes, which share
    their constraint: its SMT-LIB text is rendered once per distinct
    constraint, and still written to one file per class with the
    checked-in digests."""
    extracted, rendered = [], []
    real_extract, real_emit = pipeline.extract_path_constraints, pipeline.emit_smtlib

    def counting_extract(groups, reasoner):
        extracted.append(real_extract(groups, reasoner))
        return extracted[-1]

    def counting_emit(constraint):
        rendered.append(constraint)
        return real_emit(constraint)

    monkeypatch.setattr(pipeline, "extract_path_constraints", counting_extract)
    monkeypatch.setattr(pipeline, "emit_smtlib", counting_emit)
    monkeypatch.chdir(tmp_path)
    digests = _shared_digests()
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[SHARED]
    assert len(extracted) == 16
    assert len(rendered) == len(set(rendered)) == len(set(extracted)) == 1


def test_generated_fanout_validates_each_path_class_once(tmp_path, monkeypatch):
    """The 256 flows of fan-out 8x2 form 2 path classes of 128 flows,
    one per sink: a scan validates each class once, records its 2 task
    lookups per class (the first class's decided, the second's memo hits)
    and reports each class as one finding, and the outputs keep their
    checked-in digests."""
    called = collections.Counter()

    def counting(name):
        real = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            called[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("extract_path_constraints", "locate_checks", "assess_flow"):
        monkeypatch.setattr(pipeline, name, counting(name))
    monkeypatch.chdir(tmp_path)
    name = "gen/fanout8x2/open"
    assert _generated_digests(name) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert called == {"extract_path_constraints": 2, "locate_checks": 2, "assess_flow": 2}
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    validation = collections.Counter((r["tool"], r["args"]["task"]) for r in records if r["phase"] == "validation")
    assert validation == {
        ("decided", "ExtractConstraints"): 1,
        ("memo_hit", "ExtractConstraints"): 1,
        ("decided", "AssessSufficiency"): 1,
        ("memo_hit", "AssessSufficiency"): 1,
    }
    payload = scan(load_program("corpus"), ScriptedOracle(), OPEN_BUDGET)
    assert [f["witness_count"] for f in payload["findings"]] == [128, 128]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_outputs_match_checked_in_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _generated_digests(name) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize(
    "name, phase, last_tool",
    [
        ("gen/chain4x12/budget19s", "flow", "q_flow"),
        ("gen/fanout8x2/budget32s", "flow", "q_flow"),
        ("gen/chain4x12/budget82s", "flow", "q_globalflow"),
        ("gen/fanout8x2/budget60s", "flow", "q_globalflow"),
        ("gen/chain4x12/budget89s", "validation", "memo_hit"),
        ("gen/fanout8x2/budget63s", "validation", "memo_hit"),
    ],
)
def test_generated_budgets_run_out_where_their_digests_say(name, phase, last_tool, tmp_path, monkeypatch):
    """Where each clocked ``GENERATED`` scan stops, and what its report
    keeps: inside the graph, at a source's one ``q_flow`` record, it lists
    no channel and no user source; at ``q_globalflow`` the channels and
    the user sources but no path class; in validation, at a class's
    ``ExtractConstraints`` lookup, the classes validated before it, as
    the open scan reports them, and the rest as truncated."""
    monkeypatch.chdir(tmp_path)
    _generated_digests(name)
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    assert (records[-1]["phase"], records[-1]["tool"]) == (phase, last_tool)
    with ticking():
        payload = scan(load_program("corpus"), ScriptedOracle(), ScanBudget(max_seconds=GENERATED[name][2]))
    full = scan(load_program("corpus"), ScriptedOracle(), OPEN_BUDGET)
    assert bool(payload["channels"]["matched"]) == (last_tool != "q_flow")
    assert payload["user_sources"] == (full["user_sources"] if last_tool != "q_flow" else [])
    funnel = payload["funnel"]
    if phase == "flow":
        assert funnel["initial_flows"] == 0
    else:
        assert records[-1]["args"]["task"] == "ExtractConstraints"
        assert funnel["initial_flows"] == full["funnel"]["initial_flows"]
        assert funnel["budget_truncated"] == funnel["initial_flows"] - funnel["findings"] > 0
        assert all(finding in full["findings"] for finding in payload["findings"])


def _validation_records() -> list[tuple]:
    """The validation records of ``TRACE`` as (tool, args)."""
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    return [(r["tool"], r["args"]) for r in records if r["phase"] == "validation"]


def test_class_replay_validates_its_one_class_once(tmp_path, monkeypatch):
    """``class_replay``'s two flows are one path class: ``locate_checks``
    runs once, and the class's one finding counts both flows. Its
    non-empty list of located calls is recorded once, between the
    witness's ``ExtractConstraints`` and ``AssessSufficiency`` records."""
    called = collections.Counter()
    real = pipeline.locate_checks

    def counting(*args, **kwargs):
        called["locate_checks"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "locate_checks", counting)
    monkeypatch.chdir(tmp_path)
    digests, payload = _digests(*CASES["class_replay/open"])
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))["class_replay/open"]
    assert called == {"locate_checks": 1}
    assert [(f["verdict"], f["witness_count"]) for f in payload["findings"]] == [("missing_authz", 2)]
    records = _validation_records()
    assert [tool for tool, _ in records[1:-1]] == ["get_source", "q_cg", "get_source", "q_cg", "reason", "reason"]
    assert [args["task"] for _, args in records[-3:-1]] == ["ClassifyCheck", "ClassifyCheck"]
    assert [(tool, args["task"]) for tool, args in (records[0], records[-1])] == [
        ("reason", "ExtractConstraints"),
        ("decided", "AssessSufficiency"),
    ]


@pytest.mark.parametrize(
    "name, last_tool, source",
    [
        ("class_replay/basic_sink/budget5s", "decided", 0),
        ("class_replay/basic_sink/budget6s", "decided", 1),
        ("class_replay/basic_sink/budget8s", "q_globalflow", None),
    ],
)
def test_class_replay_budgets_run_out_where_their_digests_say(name, last_tool, source, tmp_path, monkeypatch):
    """Where each clocked ``class_replay`` scan stops: at the
    ``ConfirmUserSource`` record of the first and of the second user
    source, each before its answer, and at ``q_globalflow``. The report
    lists no path class, and the user sources confirmed before the budget
    ran out: none before the first source's record, the first source
    before the second's, and both once ``q_user`` has returned."""
    monkeypatch.chdir(tmp_path)
    digests, payload = _digests(*CASES[name])
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    seconds = REPLAY[name][1].max_seconds
    assert payload["budget"]["exhausted_reason"] == f"flow: exceeded {seconds:.0f}s wall clock"
    assert payload["budget"]["tool_calls"] == {"flow": seconds, "privileged_ops": 1}
    assert payload["budget"]["reasoner_calls"] == {"flow": 0, "privileged_ops": 0}
    assert len(payload["user_sources"]) == (source if source is not None else 2)
    assert payload["funnel"]["initial_flows"] == 0
    last = json.loads(Path(TRACE).read_text(encoding="utf-8").splitlines()[-1])
    assert (last["phase"], last["tool"]) == ("flow", last_tool)
    if source is not None:
        program = load_program(CORPORA / "class_replay")
        endpoints = [src for service in program.services for src in crossflow.q_source(service)]
        task = ConfirmUserSource(endpoints[source].name, ("/",))
        assert last["args"] == {"task": "ConfirmUserSource", "digest": task_digest(task)}


def test_class_replay_backend_budget_runs_out_in_validation(tmp_path, monkeypatch):
    """At one backend call per phase, ``class_replay`` runs out at its one
    class's second backend call, the second ``ClassifyCheck``: the class
    is truncated, and no record follows the one that exhausted the
    budget."""
    monkeypatch.chdir(tmp_path)
    name = "class_replay/basic_sink/budget1"
    digests, payload = _digests(*CASES[name])
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert payload["budget"]["exhausted_reason"] == "validation: exceeded 1 reasoner calls"
    assert payload["budget"]["reasoner_calls"] == {"flow": 0, "privileged_ops": 0, "validation": 2}
    assert payload["funnel"]["budget_truncated"] == payload["funnel"]["initial_flows"] == 1
    last = _validation_records()[-1]
    assert (last[0], last[1]["task"]) == ("reason", "ClassifyCheck")


def test_digests_cover_exactly_the_cases():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted([*CASES, SHARED, *GENERATED])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = {name: _digests(*CASES[name])[0] for name in sorted(CASES)}
        table[SHARED] = _shared_digests()
        table.update((name, _generated_digests(name)) for name in GENERATED)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
