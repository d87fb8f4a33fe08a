"""The loader's per-file memo: a file whose text is unchanged is neither
parsed nor lowered again, while every load still returns a fresh Program of
fresh Services, merged and checked as before."""

import json
import os
import re
import shutil
from pathlib import Path

import pytest

from privflow import load
from privflow.facts import write_facts
from privflow.load import LoadError, load_program
from privflow.minisrv import ParseError
from privflow.pipeline import ScanBudget, ScanOptions, scan
from privflow.reasoner import ScriptedOracle
from privflow.report import render_report

from conftest import CORPORA, lower_snippet, write_fanout_corpus

SOURCE_A = """@route("POST", "/a")
fn handle_a() {
  v = request.param("v")
  helper(v)
}
"""
SOURCE_B = """fn helper(x) {
  exec(x)
}
"""


@pytest.fixture
def calls(monkeypatch):
    """An empty memo, and the frontend calls the loader makes, by name."""
    monkeypatch.setattr(load, "_parts", {})
    made = {"parse_source": 0, "lower": 0, "read_facts": 0}
    for name in made:
        inner = getattr(load, name)

        def counting(*args, _name=name, _inner=inner):
            made[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(load, name, counting)
    return made


def write_corpus(root: Path, services: dict[str, dict[str, list[str]]], files: dict[str, str]) -> Path:
    """A corpus under ``root``: ``services`` maps a service name to its
    ``sources`` and ``facts`` lists, ``files`` a file name to its text. The
    first service is the entry."""
    root.mkdir(parents=True, exist_ok=True)
    specs = [{"name": name, "entry": i == 0, "base_url": "", **lists} for i, (name, lists) in enumerate(services.items())]
    manifest = {"version": 1, "services": specs, "gateway_routes": []}
    (root / "privflow.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_second_load_lowers_nothing(calls):
    load_program(CORPORA / "role_update")
    assert calls == {"parse_source": 2, "lower": 2, "read_facts": 0}
    load_program(CORPORA / "role_update")
    assert calls == {"parse_source": 2, "lower": 2, "read_facts": 0}


def test_second_load_is_equal_but_fresh(calls):
    first = load_program(CORPORA / "role_update")
    second = load_program(CORPORA / "role_update")
    assert first == second and first is not second
    for a, b in zip(first.services, second.services, strict=True):
        assert a == b and a is not b
        assert all(x is y for x, y in zip(a.elements, b.elements, strict=True))


def _scan_outputs(corpus: Path, workdir: Path) -> dict[str, str]:
    """The JSON report, the trace without ``elapsed_ms`` and every
    ``--emit-smt`` file of an open-budget scan, written under ``workdir``."""
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        options = ScanOptions(emit_smt_dir="smt", trace_path="trace.jsonl")
        payload = scan(load_program(corpus), ScriptedOracle(), ScanBudget(max_tool_calls_per_phase=10**9), options)
    finally:
        os.chdir(cwd)
    records = [json.loads(line) for line in (workdir / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["elapsed_ms"]
    outputs = {"json": render_report(payload, "json"), "trace": "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)}
    for path in sorted((workdir / "smt").iterdir()):
        outputs[f"smt/{path.name}"] = path.read_text(encoding="utf-8")
    return outputs


def test_second_load_scans_to_identical_outputs(calls, tmp_path):
    corpus = tmp_path / "fanout"
    corpus.mkdir()
    write_fanout_corpus(corpus, 3, 2)
    first = _scan_outputs(corpus, tmp_path / "first")
    lowered = calls["lower"]
    second = _scan_outputs(corpus, tmp_path / "second")
    assert calls["lower"] == lowered == 3
    assert len([name for name in first if name.startswith("smt/")]) == 8
    assert second == first


def test_edited_file_alone_is_lowered_again(calls, tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path, {"svc": {"sources": ["a.msv", "b.msv"]}}, {"a.msv": SOURCE_A, "b.msv": SOURCE_B})
    load_program(corpus)
    (corpus / "b.msv").write_text(SOURCE_B.replace("exec(x)", "exec(x)\n  db.write(x)"), encoding="utf-8")
    edited = load_program(corpus)
    assert calls == {"parse_source": 3, "lower": 3, "read_facts": 0}
    assert "db.write(x)" in {e.source for e in edited.service("svc").elements}
    monkeypatch.setattr(load, "_parts", {})
    assert load_program(corpus) == edited


def test_same_file_under_another_service_is_lowered_for_it(calls, tmp_path):
    first = load_program(write_corpus(tmp_path / "one", {"svc": {"sources": ["a.msv"]}}, {"a.msv": SOURCE_A}))
    second = load_program(write_corpus(tmp_path / "two", {"other": {"sources": ["a.msv"]}}, {"a.msv": SOURCE_A}))
    assert calls["lower"] == 2
    assert {e.service for e in second.service("other").elements} == {"other"}
    assert not {e.id for e in first.service("svc").elements} & {e.id for e in second.service("other").elements}


def test_parse_error_raises_again_on_reload(calls, tmp_path):
    corpus = write_corpus(tmp_path, {"svc": {"sources": ["a.msv"]}}, {"a.msv": SOURCE_A})
    load_program(corpus)
    (corpus / "a.msv").write_text("fn broken( {\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ParseError):
            load_program(corpus)
    assert calls["parse_source"] == 3 and calls["lower"] == 1
    assert ("source", "svc", "a.msv") not in load._parts
    (corpus / "a.msv").write_text(SOURCE_A, encoding="utf-8")
    assert load_program(corpus).service("svc").elements


def test_duplicate_element_id_raises_on_a_memo_hit(calls, tmp_path):
    lowered = lower_snippet(SOURCE_A, "svc", "a.msv")
    services = {"svc": {"sources": ["a.msv"], "facts": ["a.facts.jsonl"]}}
    corpus = write_corpus(tmp_path, services, {"a.msv": SOURCE_A, "a.facts.jsonl": write_facts(lowered)})
    message = f"svc: duplicate element id {lowered.elements[0].id} while merging a.facts.jsonl"
    for _ in range(2):
        with pytest.raises(LoadError, match=f"^{re.escape(message)}$"):
            load_program(corpus)
    assert calls == {"parse_source": 1, "lower": 1, "read_facts": 1}


def test_missing_file_is_a_load_error(calls, tmp_path):
    corpus = write_corpus(tmp_path, {"svc": {"sources": ["a.msv"], "facts": ["a.facts.jsonl"]}}, {})
    with pytest.raises(LoadError, match=re.escape(f"svc: source file {tmp_path / 'a.msv'} does not exist")):
        load_program(corpus)
    (corpus / "a.msv").write_text(SOURCE_A, encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(f"svc: facts file {tmp_path / 'a.facts.jsonl'} does not exist")):
        load_program(corpus)


def test_copied_corpus_shares_the_memo(calls, tmp_path):
    """The key is the file name as the manifest writes it, not its path:
    an identical copy of a corpus elsewhere lowers nothing."""
    load_program(CORPORA / "role_update")
    copy = shutil.copytree(CORPORA / "role_update", tmp_path / "copy")
    assert load_program(copy) == load_program(CORPORA / "role_update")
    assert calls["lower"] == 2

