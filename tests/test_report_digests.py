"""Byte-identity gate: sha256 digests of reports and traces, checked in as
``report_digests.json`` next to this file.

Covered outputs:

* the JSON and Markdown reports and the tool-call trace, with its
  ``elapsed_ms`` timings removed, of every corpus under ``tests/corpora``
  with default options, with ``basic_sink`` and with
  ``on_demand_context=False``;
* the same three outputs of ``role_update`` with ``basic_sink`` at 4 and 6
  tool calls per phase. Both run out of budget in the flow phase, the first
  before channel matching (no matched channels), the second after it (one);
* the three outputs and every ``emit_smt_dir`` file of a scan of
  ``conftest.write_fanout_corpus(root, 4, 2)`` at an open budget
  (``SHARED``): 16 flows through 4 guarded services, which share their
  segments and their constraint. Each corpus above has at most 2 flows;
* the JSON report and the trace of a scan of the benchmark's own corpora
  (``GENERATED``), ``bench/gen.py``'s chain 4x12 and fan-out 8x2 with
  seed 1 at an open budget: 48 path classes of one flow each, whose
  witness ids pin every path's node ids, and 2 classes of 128 flows each.
  The same two corpora also run out of budget in the flow phase: chain
  4x12 at 41, 517 and 1012 and fan-out 8x2 at 70 tool calls per phase
  stop inside one source's flow search, between two of its per-pair
  ``q_flow`` records; chain 4x12 at 1029 and fan-out 8x2 at 79 stop at
  the phase's last record, ``q_globalflow``, after one ``reason`` record
  per user source (12 and 2);
* the three outputs of ``class_replay`` (``REPLAY``), whose two flows form
  one path class with a non-empty ``locate_checks`` call list: at an
  open budget, and with ``basic_sink`` at 4, 5 and 7 tool calls per
  phase. These run out in the flow phase, at the first source's and at
  the second source's ``ConfirmUserSource`` record and at
  ``q_globalflow``. Validation records no more calls than the flow phase
  here, so no per-phase budget stops it.

The trace is written to ``trace.jsonl`` in the working directory, so the
report's ``trace_file`` field is the same on every machine.

A change that alters a report on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_report_digests.py

and says which outputs changed and why.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from privflow import pipeline
from privflow.load import load_program
from privflow.pipeline import ScanBudget, ScanOptions, scan
from privflow.reasoner import ScriptedOracle
from privflow.report import render_report

from conftest import bench_gen, write_fanout_corpus

CORPORA = Path(__file__).resolve().parent / "corpora"
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
TRACE = "trace.jsonl"

VARIANTS = {"default": {}, "basic_sink": {"basic_sink": True}, "no_odctx": {"on_demand_context": False}}
# case name -> (tool calls per phase, matched channels in the partial report)
PARTIAL = {"role_update/basic_sink/budget4": (4, 0), "role_update/basic_sink/budget6": (6, 1)}
SHARED = "fanout4x2/open/emit_smt"
SMT_DIR = "smt"
OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)
# case name -> (``bench/gen.py`` generator, its shape arguments, tool calls
# per phase, findings); a scan that runs out of budget has none
GENERATED = {
    "gen/chain4x12/open": ("chain", (4, 12), 10**9, 48),
    "gen/fanout8x2/open": ("fanout", (8, 2), 10**9, 2),
    "gen/chain4x12/budget41": ("chain", (4, 12), 41, 0),
    "gen/chain4x12/budget517": ("chain", (4, 12), 517, 0),
    "gen/chain4x12/budget1012": ("chain", (4, 12), 1012, 0),
    "gen/chain4x12/budget1029": ("chain", (4, 12), 1029, 0),
    "gen/fanout8x2/budget70": ("fanout", (8, 2), 70, 0),
    "gen/fanout8x2/budget79": ("fanout", (8, 2), 79, 0),
}


# case name -> (options, tool calls per phase) of a ``class_replay`` scan
REPLAY = {
    "class_replay/open": ({}, 10**9),
    "class_replay/basic_sink/budget4": (VARIANTS["basic_sink"], 4),
    "class_replay/basic_sink/budget5": (VARIANTS["basic_sink"], 5),
    "class_replay/basic_sink/budget7": (VARIANTS["basic_sink"], 7),
}


def _cases() -> dict[str, tuple[Path, dict, ScanBudget]]:
    cases = {}
    for corpus in sorted(p for p in CORPORA.iterdir() if p.is_dir()):
        for variant, options in VARIANTS.items():
            cases[f"{corpus.name}/{variant}"] = (corpus, options, ScanBudget())
    for name, (calls, _) in PARTIAL.items():
        cases[name] = (CORPORA / "role_update", VARIANTS["basic_sink"], ScanBudget(max_tool_calls_per_phase=calls))
    for name, (options, calls) in REPLAY.items():
        cases[name] = (CORPORA / "class_replay", options, ScanBudget(max_tool_calls_per_phase=calls))
    return cases


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(corpus: Path, options: dict, budget: ScanBudget) -> tuple[dict[str, str], dict]:
    """Digests of one scan's outputs, and its report; writes ``TRACE`` in
    the working directory."""
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
    generator, shape, calls, findings = GENERATED[name]
    corpus = Path("corpus")
    getattr(bench_gen(), generator)(1, *shape, corpus)
    digests, payload = _digests(corpus, {}, ScanBudget(max_tool_calls_per_phase=calls))
    assert payload["funnel"]["findings"] == findings
    if findings == 0:
        assert payload["budget"]["exhausted_reason"] == f"flow: exceeded {calls} tool calls"
        assert payload["budget"]["tool_calls"]["flow"] == calls + 1
    return {key: digests[key] for key in ("json", "trace")}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_checked_in_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests, payload = _digests(*CASES[name])
    if name in PARTIAL:
        assert payload["budget"]["exhausted_reason"].startswith("flow:")
        assert len(payload["channels"]["matched"]) == PARTIAL[name][1]
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
    one per sink: a scan validates each class once, records 2 validation
    tool calls per class and reports each class as one finding, and the
    outputs keep their checked-in digests."""
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
    validation = collections.Counter(r["args"]["task"] for r in records if r["phase"] == "validation")
    assert validation == {"ExtractConstraints": 2, "AssessSufficiency": 2}
    payload = scan(load_program("corpus"), ScriptedOracle(), OPEN_BUDGET)
    assert [f["witness_count"] for f in payload["findings"]] == [128, 128]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_outputs_match_checked_in_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _generated_digests(name) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize(
    "name, last_tool",
    [
        ("gen/chain4x12/budget41", "q_flow"),
        ("gen/chain4x12/budget517", "q_flow"),
        ("gen/chain4x12/budget1012", "q_flow"),
        ("gen/fanout8x2/budget70", "q_flow"),
        ("gen/chain4x12/budget1029", "q_globalflow"),
        ("gen/fanout8x2/budget79", "q_globalflow"),
    ],
)
def test_generated_budgets_run_out_where_their_digests_say(name, last_tool, tmp_path, monkeypatch):
    """Where each budgeted ``GENERATED`` scan stops: a ``q_flow`` budget
    runs out inside one source's flow search, after a record of the same
    source and before the rest of its pairs, which a scan of the same
    corpus at an open budget records."""
    monkeypatch.chdir(tmp_path)
    _generated_digests(name)
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    last = records[-1]
    assert (last["phase"], last["tool"]) == ("flow", last_tool)
    if last_tool == "q_flow":
        source = (last["args"]["service"], last["args"]["from"])
        assert (records[-2]["args"].get("service"), records[-2]["args"].get("from")) == source
        scan(load_program("corpus"), ScriptedOracle(), OPEN_BUDGET, ScanOptions(trace_path="open.jsonl"))
        pairs = [json.loads(line)["args"] for line in Path("open.jsonl").read_text(encoding="utf-8").splitlines()]
        searched = [args["to"] for args in pairs if (args.get("service"), args.get("from")) == source]
        assert searched.index(last["args"]["to"]) < len(searched) - 1


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
    assert [(tool, args["task"], args["flow"]) for tool, args in (records[0], records[-1])] == [
        ("reason", "ExtractConstraints", payload["findings"][0]["id"]),
        ("reason", "AssessSufficiency", payload["findings"][0]["id"]),
    ]


@pytest.mark.parametrize(
    "name, last_tool, source",
    [
        ("class_replay/basic_sink/budget4", "reason", 0),
        ("class_replay/basic_sink/budget5", "reason", 1),
        ("class_replay/basic_sink/budget7", "q_globalflow", None),
    ],
)
def test_class_replay_budgets_run_out_where_their_digests_say(name, last_tool, source, tmp_path, monkeypatch):
    """Where each budgeted ``class_replay`` scan stops: at the
    ``ConfirmUserSource`` record of the first and of the second user
    source, each before its question, and at ``q_globalflow``. The
    report lists no path class, and the user sources confirmed before the
    budget ran out: none before the first source's record, the first
    source before the second's, and both once ``q_user`` has returned."""
    monkeypatch.chdir(tmp_path)
    digests, payload = _digests(*CASES[name])
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    calls = REPLAY[name][1]
    assert payload["budget"]["exhausted_reason"] == f"flow: exceeded {calls} tool calls"
    assert payload["budget"]["tool_calls"] == {"flow": calls + 1, "privileged_ops": 1}
    assert len(payload["user_sources"]) == (source if source is not None else 2)
    assert payload["funnel"]["initial_flows"] == 0
    records = [json.loads(line) for line in Path(TRACE).read_text(encoding="utf-8").splitlines()]
    last = records[-1]
    assert (last["phase"], last["tool"]) == ("flow", last_tool)
    if source is not None:
        endpoints = [r for r in records if r["tool"] == "q_flow"]
        assert last["args"] == {"task": "ConfirmUserSource", "element": endpoints[source]["args"]["from"]}


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
