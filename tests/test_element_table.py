"""The report's ``elements`` table: findings name path elements by id, and
the table holds one record per named element, the element's own facts."""

from pathlib import Path

import pytest

from privflow.load import load_program
from privflow.model import call_callee
from privflow.pipeline import ScanBudget, scan
from privflow.reasoner import ScriptedOracle

from conftest import CORPORA, bench_gen

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
        steps = [eid for hop in finding["path"]["hops"] if hop["type"] == "flow" for eid in hop["steps"]]
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
