"""The report's ``hops`` and ``elements`` tables: findings name path
segments and path elements by id, each table holds one record per named
segment or element, and the payload is a tree."""

from pathlib import Path

import pytest

from privflow.load import load_program
from privflow.model import call_callee, short_id
from privflow.pipeline import ScanBudget, scan
from privflow.reasoner import ScriptedOracle

from conftest import CORPORA, bench_gen, path_hops

OPEN = ScanBudget(max_tool_calls_per_phase=10**9)
CORPUS_NAMES = sorted(p.name for p in CORPORA.iterdir() if p.is_dir())
# ``bench/gen.py`` generator and shape arguments of each generated corpus
GENERATED = {"gen/chain4x12": ("chain", (4, 12)), "gen/fanout8x2": ("fanout", (8, 2))}


def _scan(case: str, tmp_path: Path):
    if case in GENERATED:
        generator, shape = GENERATED[case]
        getattr(bench_gen(), generator)(1, *shape, tmp_path / "corpus")
        program = load_program(tmp_path / "corpus")
        return program, scan(program, ScriptedOracle(), OPEN)
    program = load_program(CORPORA / case)
    return program, scan(program, ScriptedOracle())


@pytest.mark.parametrize("case", CORPUS_NAMES + [*GENERATED])
def test_findings_name_exactly_the_elements_of_the_table(case, tmp_path):
    """Every id a finding's evidence or a flow hop's steps name is a key of
    ``elements``, every key is named by some finding, and each record is
    its element's facts. A finding's evidence lists its path's elements,
    then its checks', each once, at its first mention."""
    program, payload = _scan(case, tmp_path)
    elements = payload["elements"]
    named: set[str] = set()
    for finding in payload["findings"]:
        steps = [eid for hop in path_hops(payload, finding) if hop["type"] == "flow" for eid in hop["steps"]]
        checks = [check["element"] for check in finding["checks"]]
        assert finding["evidence"] == [*dict.fromkeys(steps + checks)]
        named.update(finding["evidence"])
    assert named == set(elements)
    if case in GENERATED:
        assert elements
    for eid, record in elements.items():
        el = program.element(record["service"], eid)
        assert el is not None
        assert record == {
            "service": el.service,
            "kind": el.kind.value,
            "name": el.name or call_callee(el),
            "file": el.location.file,
            "line": el.location.line,
            "source": el.source,
        }


@pytest.mark.parametrize("case", CORPUS_NAMES + [*GENERATED])
def test_findings_name_exactly_the_hops_of_the_table(case, tmp_path):
    """Every id in a finding's path is a key of ``hops``, every key is
    named by some finding, and every flow hop's steps are keys of
    ``elements``. A hop's id is ``short_id("h", ...)`` of its node ids:
    a flow's steps, or the elements a channel joins, the last step before
    it and the first after it."""
    _, payload = _scan(case, tmp_path)
    hops = payload["hops"]
    named: set[str] = set()
    for finding in payload["findings"]:
        hop_ids = finding["path"]["hops"]
        assert set(hop_ids) <= set(hops)
        named.update(hop_ids)
        records = path_hops(payload, finding)
        for i, (hop_id, hop) in enumerate(zip(hop_ids, records)):
            if hop["type"] == "flow":
                assert set(hop["steps"]) <= set(payload["elements"])
                node_ids = hop["steps"]
            else:
                node_ids = [records[i - 1]["steps"][-1], records[i + 1]["steps"][0]]
            assert hop_id == short_id("h", node_ids)
    assert named == set(hops)
    if case in GENERATED:
        assert hops


@pytest.mark.parametrize("case", CORPUS_NAMES + [*GENERATED])
def test_the_payload_is_a_tree(case, tmp_path):
    """No dict, list or tuple is reachable twice from a scan's payload, so
    editing one record changes the report in one place."""
    _, payload = _scan(case, tmp_path)
    seen: set[int] = set()
    stack = [payload]
    while stack:
        value = stack.pop()
        assert id(value) not in seen
        seen.add(id(value))
        members = value.values() if isinstance(value, dict) else value
        stack += [member for member in members if isinstance(member, (dict, list, tuple))]
    assert len(seen) > 10
