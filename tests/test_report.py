"""The JSON report text is exactly ``json.dumps(payload, indent=2,
sort_keys=True) + "\\n"``; the stdlib call is the oracle here."""

import json
import math
import re
from enum import Enum, IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privflow.load import load_program
from privflow.model import GatewayRoute, Manifest, ManifestService, Program
from privflow.pipeline import ScanBudget, ScanOptions, scan
from privflow.report import render_report

from conftest import CORPORA, lower_snippet, write_fanout_corpus

OPEN_BUDGET = ScanBudget(max_tool_calls_per_phase=10**9)


def oracle_text(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


STRINGS = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    st.sampled_from(['"', "\\", '\\"', "é", " ", "\U0001f600", "a\nb\tc", "}", "],\n  [", "\x00"]),
)
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, STRINGS)


def _containers(children):
    # one key type per dict: the stdlib sorts keys, so str mixed with
    # numbers or None raises TypeError there as well
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(STRINGS, children, max_size=5),
        st.dictionaries(st.one_of(NUMBERS, st.booleans()), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    )


TREES = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_render_matches_stdlib(value):
    assert render_report(value, "json") == oracle_text(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}]],
        {"x": (1, (2, {"y": ()})), "z": [(), ("t",)]},
        {2: [1], 10: {"k": 1}, 1.5: [], True: [0], False: {}},
        {None: [{}]},
        {math.nan: [1], math.inf: [2], -math.inf: {"a": None}},
        [-0.0, 1e300, math.nan, math.inf, -math.inf, 10**100, -(10**100)],
        {"é\"\\\n": ["\x00\x1f", "\U0001f600"]},
        "just a string",
        None,
        math.nan,
    ],
)
def test_render_matches_stdlib_examples(value):
    assert render_report(value, "json") == oracle_text(value)


@given(st.lists(st.sampled_from(["dict", "list", "tuple"]), min_size=40, max_size=40), SCALARS)
@settings(max_examples=25, deadline=None)
def test_render_matches_stdlib_40_levels_deep(shape, leaf):
    value = leaf
    for depth, kind in enumerate(shape):
        if kind == "dict":
            value = {f"k{depth}": value, "scalar": depth}
        elif kind == "list":
            value = [depth, value, {}]
        else:
            value = ("t", value)
    assert render_report(value, "json") == oracle_text(value)


@pytest.mark.parametrize(
    "value",
    [
        [f"s{i}" for i in range(60_000)],
        {f"k{i}": i for i in range(30_000)},
        {"nested": [[i, f"s{i}", None] for i in range(3)], "flat": list(range(120_000))},
    ],
    ids=["list-60k", "dict-30k", "nested-list-120k"],
)
def test_render_matches_stdlib_on_long_flat_containers(value):
    # the C encoder returns a container of 100,000 or more pieces in several chunks
    assert render_report(value, "json") == oracle_text(value)


def test_keys_outside_json_are_rejected():
    with pytest.raises(TypeError):
        render_report({("a",): [1]}, "json")
    with pytest.raises(TypeError):
        render_report({"a": [object()]}, "json")


# Shared sub-objects: a container met again at the same or another depth
# renders from the text or chunks of its first meeting. Scalars are kept
# small here; the tests above cover their encoding.
SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "a", 'q"\n']))


def _small_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.sampled_from("abcd"), children, max_size=4),
    )


CONTAINERS = st.one_of(
    st.builds(dict),
    st.builds(list),
    st.builds(tuple),
    _small_containers(SMALL_SCALARS),
    _small_containers(_small_containers(SMALL_SCALARS)),
)


@st.composite
def shared_trees(draw):
    """A tree whose leaves may be the very objects of a pool of
    containers, or lists and tuples made only of them, placed so that the
    tree meets itself at one depth twice and again deeper, and each pool
    member recurs at two depths."""
    pool = draw(st.lists(CONTAINERS, min_size=1, max_size=4))
    of_pool = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    leaves = st.one_of(SMALL_SCALARS, st.sampled_from(pool), of_pool, of_pool.map(tuple))
    tree = draw(st.recursive(leaves, _small_containers, max_leaves=16))
    return {
        "a": tree,
        "b": tree,
        "pool": pool,
        "deeper": [pool, {"again": tree}, tuple(pool)],
        "of_pool": draw(st.lists(of_pool, max_size=3)),
    }


@settings(max_examples=100, deadline=None)
@given(shared_trees())
def test_render_matches_stdlib_with_shared_members(value):
    text = render_report(value, "json")
    assert text == oracle_text(value)
    assert render_report(value, "json") == text


SCALAR_DICT = {"k": 1, "s": "x"}
SCALAR_LIST = [1, "two", None]
NESTED_DICT = {"inner": SCALAR_DICT, "list": [SCALAR_LIST, SCALAR_LIST]}
NESTED_TUPLE = (NESTED_DICT, [NESTED_DICT])
EMPTY_DICT, EMPTY_LIST, EMPTY_TUPLE = {}, [], ()


@pytest.mark.parametrize(
    "value",
    [
        [SCALAR_DICT, SCALAR_DICT],
        {"a": SCALAR_LIST, "b": SCALAR_LIST, "c": {"d": SCALAR_LIST}},
        [EMPTY_DICT, EMPTY_LIST, EMPTY_TUPLE, [EMPTY_DICT, EMPTY_LIST, EMPTY_TUPLE], EMPTY_DICT],
        [NESTED_DICT, NESTED_DICT, {"x": NESTED_DICT}, [[NESTED_DICT]]],
        {"t": NESTED_TUPLE, "u": [NESTED_TUPLE, NESTED_TUPLE], "v": NESTED_DICT},
        [SCALAR_LIST, [SCALAR_LIST, [SCALAR_LIST, [SCALAR_LIST]]], SCALAR_LIST],
    ],
    ids=["dict-same-depth", "list-two-depths", "empties", "nested-dict", "tuple-of-shared", "list-every-depth"],
)
def test_render_matches_stdlib_on_shared_examples(value):
    assert render_report(value, "json") == oracle_text(value)


# A list or tuple whose members were all rendered at its members' depth
# takes their texts by reference; the others render member by member.
SHARED_A = {"a": 1, "s": "x"}
SHARED_B = {"b": [2, 3], "c": {"d": None}}
SHARED_C = {"c": [SHARED_A]}
SHARED_LIST = [SHARED_A, SHARED_B]
SHARED_TUPLE = (SHARED_A, SHARED_B)


class Role(str, Enum):
    ADMIN = "admin"
    USER = "user"


class Level(IntEnum):
    LOW = 1
    HIGH = 2


@pytest.mark.parametrize(
    "value",
    [
        [[SHARED_A, SHARED_B], [SHARED_B, SHARED_A], [SHARED_A, SHARED_A, SHARED_B]],
        {"x": [SHARED_A], "y": [SHARED_A, SHARED_C], "z": [SHARED_C, SHARED_A, {"fresh": [1]}, SHARED_B]},
        {"x": SHARED_LIST, "y": [SHARED_LIST, {"z": SHARED_LIST}], "w": SHARED_LIST, "v": [[SHARED_LIST]]},
        [SHARED_TUPLE, (SHARED_B, SHARED_A), [SHARED_TUPLE, SHARED_TUPLE], {"t": (SHARED_A,)}],
        [
            [Role.ADMIN, Level.HIGH, True, 1, "s", 2.5, None, SHARED_A],
            [SHARED_A, Role.USER, False, Level.LOW],
            {"role": Role.ADMIN, "level": Level.LOW, "flag": True, "n": 0, "sub": SHARED_A, Role.USER: [SHARED_A]},
        ],
    ],
    ids=["all-rendered", "some-rendered", "one-list-two-depths", "tuples-of-shared", "str-int-bool-subclasses"],
)
def test_render_matches_stdlib_on_lists_of_rendered_members(value):
    text = render_report(value, "json")
    assert text == oracle_text(value)
    assert render_report(value, "json") == text


@pytest.fixture(scope="module")
def fanout_payload(tmp_path_factory, oracle):
    corpus = write_fanout_corpus(tmp_path_factory.mktemp("fanout"))
    return scan(load_program(corpus), oracle, OPEN_BUDGET)


def test_render_matches_stdlib_on_a_large_report(fanout_payload):
    assert len(fanout_payload["findings"]) > 200
    text = render_report(fanout_payload, "json")
    assert text == oracle_text(fanout_payload)
    assert render_report(fanout_payload, "json") == text


SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "report-schema.md"


def test_schema_doc_lists_the_report_fields(role_update_program, oracle):
    """docs/report-schema.md's title names the report's schema version, its
    table names every top-level field of a report, and its finding example
    has a finding's keys and a finding path's keys."""
    doc = SCHEMA_DOC.read_text(encoding="utf-8")
    table = doc.split("Top-level fields:", 1)[1].split("\n\n", 2)[1]
    documented = {name for row in table.splitlines()[2:] for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    example = json.loads(doc.split("```json\n", 1)[1].split("```", 1)[0])
    payload = scan(role_update_program, oracle)
    assert payload["findings"]
    assert documented == set(payload)
    assert re.search(r"^# Scan report schema \(version (\d+)\)$", doc, re.M).group(1) == str(payload["schema"])
    assert set(example) == set(payload["findings"][0])
    assert set(example["path"]) == set(payload["findings"][0]["path"])
    budget_row = next(row for row in table.splitlines() if row.startswith("| `budget` |"))
    assert set(re.findall(r"`(\w+)`", budget_row)) >= set(payload["budget"])


def test_schema_doc_lists_the_trace_record_kinds(role_update_program, oracle, tmp_path):
    """docs/report-schema.md's trace table has a row for every record kind
    a scan writes, and only for those that exist. The guarded fan-out
    2x2's four path classes repeat one ``decided`` ``AssessSufficiency``,
    so its scan writes ``memo_hit`` records."""
    doc = SCHEMA_DOC.read_text(encoding="utf-8")
    table = doc.split("## Trace", 1)[1].split("| tool |", 1)[1].split("\n\n", 1)[0]
    documented = {name for row in table.splitlines()[2:] for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    tools = set()
    fanout = load_program(write_fanout_corpus(tmp_path, 2, 2))
    for program in (role_update_program, load_program(CORPORA / "order_payment"), fanout):
        trace = tmp_path / "trace.jsonl"
        scan(program, oracle, options=ScanOptions(trace_path=str(trace)))
        tools |= {json.loads(line)["tool"] for line in trace.read_text(encoding="utf-8").splitlines()}
    assert tools == documented


def test_markdown_lists_unresolved_and_ambiguous_channels(oracle):
    """The Markdown report's Diagnostics section names the channel whose
    identifier is read at run time and the outbound call that matches
    endpoints in two services, one line each."""
    front = lower_snippet(
        '@route("POST", "/role") fn f() { base = session.get("url") body = request.param("b") '
        'http_post(base + "/x", body) }\n'
        'fn g() { http_post("http://x:1/orders", "b") }',
        service="front",
        file="front.msv",
    )
    recv_a = lower_snippet('@route("POST", "/orders") fn h() { x = 1 }', service="recv_a", file="a.msv")
    recv_b = lower_snippet('@route("POST", "/orders") fn h() { x = 1 }', service="recv_b", file="b.msv")
    unresolved, ambiguous = (
        next(e.id for e in front.elements if e.source.startswith(prefix))
        for prefix in ('http_post(base', 'http_post("http://x:1/orders"')
    )
    manifest = Manifest(
        1,
        (
            ManifestService("front", entry=True, sources=("front.msv",)),
            ManifestService("recv_a", sources=("a.msv",)),
            ManifestService("recv_b", sources=("b.msv",)),
        ),
        (GatewayRoute("/", "front"),),
    )
    text = render_report(scan(Program((front, recv_a, recv_b), manifest), oracle), "md")
    diagnostics = text.split("## Diagnostics\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert diagnostics == [
        f"- unresolved channel: front: http_post call {unresolved} has a non-constant channel identifier",
        f"- ambiguous channel match from element {ambiguous}",
    ]
