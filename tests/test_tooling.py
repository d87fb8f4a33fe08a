"""Tooling checks. The benchmark's tracer patches privflow functions by
name; a refactor that drops one of those names, or stops calling one, must
fail here, not in a traced benchmark run. The import direction between
privflow's modules is pinned here too."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from privflow import reasoner
from privflow.model import Record
from privflow.reasoner import (
    AssessSufficiency,
    ClassifyCheck,
    ClassifyPrivileged,
    ConfirmUserSource,
    ExtractConstraints,
    NextSearchAction,
    ScriptedOracle,
)
from privflow.remote import PROMPTS_DIR, RemoteConfig, RemoteReasoner

from conftest import CORPORA

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "privflow"
TRACER = ROOT / "bench" / "tracer.py"
WORKER = ROOT / "bench" / "worker.py"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("privflow_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, attrs in tracer.TRACED.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_worker_times_every_validation_layer():
    """One traced analysis of role_update and order_payment, run as the
    benchmark runs it: each validation layer and the graph's layers take
    time, the graph's flow searches go through the traced
    ``crossflow.q_flow``, the per-task reasoner counts add up to the total,
    and the backend is asked each distinct task once (order_payment
    records one ClassifyCheck task twice)."""
    corpora = [str(CORPORA / "role_update"), str(CORPORA / "order_payment")]
    job = {"corpora": corpora, "budget": "default", "warmup": False, "trace": True, "analysis": 0}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave bench/ as it is
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    for name in (
        "constraints.extract.s",
        "pipeline.locate_checks.s",
        "pipeline.assess.s",
        "crossflow.graph.s",
        "crossflow.match_channels.s",
        "search.q_flow.s",
        "search.q_flow.calls",
    ):
        assert layers[name] > 0, name
    per_task = [value for name, value in layers.items() if name.startswith("reasoner.calls.")]
    assert len(per_task) == 6
    assert sum(per_task) == result["reasoner_calls"] > 0
    assert result["reasoner_calls"] == result["reasoner_distinct"]


def _privflow_imports(path: Path) -> set[str]:
    """The top-level privflow modules (``model``, ``minisrv``, ...) a source
    file imports anywhere in it, relative or absolute."""
    package = ["privflow", *path.relative_to(SRC).parent.parts]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            if node.module:
                targets = [base + node.module.split(".")]
            else:
                targets = [base + [alias.name] for alias in node.names]
        else:
            continue
        found.update(t[1] for t in targets if len(t) > 1 and t[0] == "privflow")
    return found


def test_import_layers():
    """``model`` is the bottom layer and ``search`` reads only it.
    ``constraints`` imports no other stage: only ``model`` (its records are
    ``model.Record``s) and the MiniSrv expression parser that
    ``translate_guards``, the scripted oracle's guard parser, uses. The
    frontend is imported only by the loader, the CLI and ``constraints``,
    so the engine runs on facts from any frontend. The loader (and its
    per-file memo) reads only the frontend, the facts reader and ``model``,
    so ``privflow query`` and ``privflow facts`` never import the scan
    engine. The MiniSrv parser and its AST nodes import only ``model``."""
    imports = {
        ".".join(path.relative_to(SRC).with_suffix("").parts): _privflow_imports(path)
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {"model", "search", "constraints", "crossflow", "pipeline", "minisrv.lower"} <= imports.keys()
    assert imports["model"] == set()
    assert imports["search"] == {"model"}
    assert imports["constraints"] == {"model", "minisrv"}
    assert imports["load"] == {"facts", "minisrv", "model"}
    frontend_users = {name for name, found in imports.items() if "minisrv" in found and not name.startswith("minisrv")}
    assert frontend_users <= {"load", "cli", "constraints"}
    assert "model" in imports["minisrv.lower"]
    # the parser's "minisrv" is its sibling ``minisrv.nodes``
    assert imports["minisrv.nodes"] == {"model"}
    assert imports["minisrv.parser"] == {"minisrv", "model"}



def test_every_task_has_a_prompt_a_scripted_answer_and_a_remote_parse():
    """Each task in ``reasoner.TASKS`` has a remote prompt named after it
    (``ClassifyPrivileged`` -> ``classify_privileged.md``), a scripted
    answer and a remote parse, each giving the same verdict type; no other
    type has a prompt or a scripted answer. A task added without one of
    them fails here, not in a scan."""
    samples = {
        ClassifyPrivileged: (ClassifyPrivileged("e", "f", "fn f() { }"), {"category": "none"}),
        ClassifyCheck: (ClassifyCheck("e", "g", "g()"), {"classification": "none", "subtype": "none"}),
        AssessSufficiency: (AssessSufficiency("f", "f(x)", "protected-state", ()), {"verdict": "unprotected"}),
        ExtractConstraints: (ExtractConstraints(()), {"skip": True}),
        ConfirmUserSource: (ConfirmUserSource("/x", ("/x",)), {"is_user_source": True}),
        NextSearchAction: (NextSearchAction(1, ("s",), (), (), ("q_name",)), {"queries": [{"tool": "q_name"}]}),
    }
    assert set(samples) == set(reasoner.TASKS)
    prompts = {re.sub(r"(?<!^)(?=[A-Z])", "_", t.__name__).lower() + ".md" for t in reasoner.TASKS}
    assert {p.name for p in PROMPTS_DIR.glob("*.md")} == prompts | {"system.md"}
    for name in prompts:
        assert "{task_json}" in (PROMPTS_DIR / name).read_text(encoding="utf-8"), name
    assert set(ScriptedOracle.__dict__["reason"].dispatcher.registry) == {object, *reasoner.TASKS}

    oracle = ScriptedOracle()
    for task, reply in samples.values():
        content = json.dumps({**reply, "rationale": "r"})
        backend = RemoteReasoner(
            RemoteConfig("http://fake/v1/chat/completions", "m"),
            transport=lambda url, headers, payload, timeout: (200, {"choices": [{"message": {"content": content}}]}),
        )
        assert type(backend.reason(task)) is type(oracle.reason(task)), type(task).__name__


#: privflow classes that are dataclasses once a scripted scan's modules are
#: loaded; every record is a named tuple, a ``model.Record`` or a plain
#: class (see ``privflow.model``).
MAX_STARTUP_DATACLASSES = 0

_STARTUP_PROBE = """
import json, sys
import privflow.load, privflow.pipeline, privflow.report
from privflow.reasoner import ScriptedOracle

def classes():
    return [
        cls
        for name, module in sorted(sys.modules.items())
        if name.startswith("privflow")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
    ]

def is_record(cls):
    return "__slots__" in cls.__dict__ or "_fields" in cls.__dict__

ScriptedOracle()
loaded = {name: name in sys.modules for name in ("privflow.remote", "requests", "dataclasses", "inspect")}
count = sum("__dataclass_fields__" in cls.__dict__ for cls in classes())
import privflow.remote
records = [cls for cls in classes() if is_record(cls)]
undocumented = [
    cls.__qualname__ for cls in records if not cls.__dict__.get("__doc__") or cls.__doc__.startswith(cls.__name__ + "(")
]
print(json.dumps({"loaded": loaded, "dataclasses": count, "records": len(records), "undocumented": undocumented}))
"""


def test_scripted_start_up_builds_no_remote_backend_and_no_dataclass():
    """A fresh interpreter that loads what a scripted scan needs imports
    neither the remote backend nor ``requests``, builds no privflow
    dataclass, and imports neither ``dataclasses`` nor ``inspect``, which
    ``dataclasses`` loads: a dataclass costs several times a named tuple to
    build, and a named tuple about ten times a ``__slots__`` class. Every
    record class (named tuple, ``model.Record`` or other ``__slots__``
    class) has its own docstring; a named tuple without one gets
    ``Name(field, ...)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == {"privflow.remote": False, "requests": False, "dataclasses": False, "inspect": False}
    assert result["dataclasses"] <= MAX_STARTUP_DATACLASSES
    assert result["records"] > 50
    assert result["undocumented"] == []


def test_record_constructors_take_their_fields_in_order():
    """``Record``'s ``repr``, ``==`` and hash and ``reasoner.task_fields`` read
    ``_fields`` as what the constructor took, so every ``model.Record``
    subclass that writes an ``__init__`` takes exactly its fields, in order."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        importlib.import_module(".".join(("privflow", *parts)).removesuffix(".__init__"))
    records, pending = [], [Record]
    while pending:
        subclasses = [cls for cls in pending.pop().__subclasses__() if cls.__module__.startswith("privflow.")]
        records += subclasses
        pending += subclasses
    with_init = [cls for cls in records if "__init__" in cls.__dict__]
    assert len(with_init) >= 30
    for cls in with_init:
        assert tuple(inspect.signature(cls.__init__).parameters)[1:] == cls._fields, cls.__qualname__


def _privflow_records() -> list[type]:
    """Every ``model.Record`` subclass in privflow, once each module is loaded."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        importlib.import_module(".".join(("privflow", *parts)).removesuffix(".__init__"))
    records, pending = [], [Record]
    while pending:
        subclasses = [cls for cls in pending.pop().__subclasses__() if cls.__module__.startswith("privflow.")]
        records += subclasses
        pending += subclasses
    return records


def _only_stores_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether each statement of ``init`` (a docstring aside) is
    ``self.name = name`` for one of its parameters."""
    params = {arg.arg for arg in init.args.args[1:]}
    body = [stmt for stmt in init.body if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
    return all(
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(target := stmt.targets[0], ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and isinstance(stmt.value, ast.Name)
        and stmt.value.id == target.attr
        and target.attr in params
        for stmt in body
    )


def test_no_record_writes_a_constructor_that_only_stores_its_fields():
    """``Record`` builds the constructor of a record that only stores its
    fields, so its fields are declared once; a hand-written ``__init__``
    validates or derives. The built constructor takes the fields in order,
    the trailing ones defaulting to the class's ``_defaults``."""
    written, built = [], []
    for cls in _privflow_records():
        init = cls.__dict__["__init__"]
        (built if init.__code__.co_filename == "<string>" else written).append(cls)
    assert len(written) >= 10 and len(built) >= 20
    for cls in written:
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__dict__["__init__"])))
        assert not _only_stores_its_parameters(tree.body[0]), cls.__qualname__
    for cls in built:
        init = cls.__dict__["__init__"]
        assert init.__code__.co_varnames[1 : init.__code__.co_argcount] == cls._fields, cls.__qualname__
        assert init.__defaults__ == (tuple(cls._defaults.values()) or None), cls.__qualname__
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"


def test_only_stores_its_parameters_tells_a_field_store_from_a_derivation():
    stores = ("def __init__(self, a, b):\n self.a = a\n self.b = b", 'def __init__(self, a):\n """Doc."""\n self.a = a')
    derives = (
        "def __init__(self, a):\n self.a = a\n check(a)",
        "def __init__(self, a):\n self.a = tuple(a)",
        "def __init__(self, a, b):\n self.a = b",
        "def __init__(self, a):\n self.a = a\n self.n = n",
        "def __init__(self, a):\n other.a = a",
    )
    for source in stores + derives:
        assert _only_stores_its_parameters(ast.parse(source).body[0]) == (source in stores), source


def test_bench_report_passes():
    """The micro-benchmarks in ``tests/bench_report.py``, which the default
    run does not collect, still pass when each runs once, untimed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave the tree as it is
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable", "-p", "no:cacheprovider", "tests/bench_report.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


#: the scan engine: what a ``privflow query`` or ``facts`` process never runs
ENGINE_MODULES = ("privflow.pipeline", "privflow.constraints", "privflow.crossflow", "privflow.reasoner")

_QUERY_PROBE = """
import contextlib, io, json, sys
engine = {engine!r}
import privflow.search
after_import = [name for name in engine if name in sys.modules]
from privflow.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["query", {corpus!r}, "--service", "usermgmt", "--op", "name", "--pattern", "set.*", "--mode", "regex"],
         standalone_mode=False)
after_query = [name for name in engine if name in sys.modules]
print(json.dumps({{"after_import": after_import, "after_query": after_query, "rows": len(out.getvalue().splitlines())}}))
"""


def test_search_and_query_start_without_the_scan_engine():
    """``import privflow.search`` and a ``query`` run through the CLI load
    none of the scan engine's modules: the package resolves its ``scan``
    and reasoner re-exports on first use, and the CLI imports the engine
    inside ``scan`` and ``graph`` only."""
    probe = _QUERY_PROBE.format(engine=ENGINE_MODULES, corpus=str(CORPORA / "role_update"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rows"] > 0
    assert result["after_import"] == result["after_query"] == []


def test_package_re_exports_resolve_on_first_use():
    import privflow
    from privflow import pipeline

    assert privflow.scan is pipeline.scan and privflow.ScanBudget is pipeline.ScanBudget
    assert privflow.ScriptedOracle is ScriptedOracle and privflow.load_rules is reasoner.load_rules
    for name in privflow.__all__:
        getattr(privflow, name)
    try:
        privflow.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("privflow.no_such_name resolved")


def test_labelled_workload_corpora_are_pinned():
    """``tests/corpora/bench.json`` defines the benchmark's ``labelled``
    workload: ``bench/run.py`` scans exactly these corpora, in this order,
    and scores each report against its labels. Changing the list is a change to the
    benchmark's definition, to be made with the benchmark's own changes,
    so a regression corpus added under ``tests/corpora`` stays out of it."""
    bench = json.loads((CORPORA / "bench.json").read_text(encoding="utf-8"))
    assert [corpus["path"] for corpus in bench["corpora"]] == [
        "role_update",
        "order_payment",
        "exec_open",
        "topic_grant",
        "account_update",
        "wildcard_cancel",
        "perm_delete",
        "role_update_patched",
        "infeasible",
        "ownership_cancel",
        "unreachable",
        "admin_guarded",
        "logging_only",
    ]
