"""Command-line entry point.

Exit codes: 0 clean, 1 findings present, 2 configuration or ingest error,
3 budget exhausted with partial results. User errors print one-line
diagnostics, never stack traces.

The scan engine (``pipeline``, ``crossflow``, ``reasoner``) is imported by
the commands that run it, so ``query`` and ``facts`` start without it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .facts import FactsError, ManifestError, write_facts
from .load import LoadError, load_program
from .minisrv import LoweringError, ParseError
from .model import ElementKind, validate_program
from .report import ExitStatus, exit_status, render_report
from .search import BadPattern, NotAFunction, UnknownElement, q_ast, q_cg, q_flow, q_name

USER_ERRORS = (
    ManifestError,
    FactsError,
    ParseError,
    LoweringError,
    LoadError,
    BadPattern,
    UnknownElement,
    NotAFunction,
    ValueError,
    OSError,
)


def _engine_errors() -> tuple[type[Exception], ...]:
    """The user errors the scan engine adds, for the commands that run it."""
    from .pipeline import ProgramInvalid
    from .reasoner import BackendUnavailable, RulesError, SchemaViolation

    return (ProgramInvalid, RulesError, BackendUnavailable, SchemaViolation)


def _fail(message: str) -> None:
    click.echo(f"privflow: {message}", err=True)
    sys.exit(int(ExitStatus.CONFIG_ERROR))


@click.group()
@click.version_option(package_name="privflow", prog_name="privflow")
def main() -> None:
    """Privilege-escalation scanner for multi-service codebases."""


@main.command()
@click.argument("corpus", type=click.Path(exists=True, file_okay=False))
@click.option("--reasoner", "reasoner_kind", type=click.Choice(["scripted", "remote"]), default="scripted", show_default=True)
@click.option("--rules", "rules_file", type=click.Path(exists=True, dir_okay=False), default=None, help="Oracle rules file")
@click.option("--basic-sink", is_flag=True, help="Only standard sink intrinsics, no discovered operations")
@click.option(
    "--no-odctx",
    is_flag=True,
    help="Classify each decorator check from its own source alone, without the sources of the functions it calls "
    "(up to 3 call hops)",
)
@click.option("--format", "fmt", type=click.Choice(["json", "md"]), default="json", show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None, help="Write the tool-call trace (JSON lines)")
@click.option("--emit-smt", "emit_smt", type=click.Path(file_okay=False), default=None, help="Dump one SMT-LIB file per path class into this directory")
@click.option("--budget-calls", type=int, default=40, show_default=True, help="Max reasoner backend calls per phase")
@click.option("--budget-seconds", type=float, default=600.0, show_default=True, help="Wall-clock limit")
def scan(corpus, reasoner_kind, rules_file, basic_sink, no_odctx, fmt, trace_path, emit_smt, budget_calls, budget_seconds):
    """Scan a corpus directory for privilege-escalation flows."""
    from .pipeline import ScanBudget, ScanOptions
    from .pipeline import scan as run_scan
    from .reasoner import load_rules, make_reasoner

    try:
        program = load_program(corpus)
        backend = make_reasoner(reasoner_kind, load_rules(rules_file))
        budget = ScanBudget(max_tool_calls_per_phase=budget_calls, max_seconds=budget_seconds)
        options = ScanOptions(
            basic_sink=basic_sink,
            on_demand_context=not no_odctx,
            emit_smt_dir=emit_smt,
            trace_path=trace_path,
        )
        payload = run_scan(program, backend, budget, options)
    except USER_ERRORS + _engine_errors() as exc:
        _fail(str(exc))
        return
    click.echo(render_report(payload, fmt), nl=False)
    sys.exit(int(exit_status(payload)))


@main.command()
@click.argument("corpus", type=click.Path(exists=True, file_okay=False))
@click.option("--service", required=True, help="Service to query")
@click.option("--op", "operation", type=click.Choice(["name", "ast", "flow", "cg"]), required=True)
@click.option("--pattern", default=None, help="Name pattern (op=name)")
@click.option("--mode", type=click.Choice(["exact", "regex"]), default="exact", show_default=True)
@click.option("--kind", default=None, help="Element kind (op=ast)")
@click.option("--from", "from_sel", default=None, help="Source selector (op=flow)")
@click.option("--to", "to_sels", multiple=True, help="Sink selector (op=flow); repeat for several sinks")
@click.option("--function", default=None, help="Function selector (op=cg)")
@click.option("--direction", type=click.Choice(["callers", "callees"]), default="callers", show_default=True)
@click.option("--depth", type=int, default=1, show_default=True)
def query(corpus, service, operation, pattern, mode, kind, from_sel, to_sels, function, direction, depth):
    """Run one code-search primitive; results as JSON lines."""
    try:
        program = load_program(corpus)
        svc = program.service(service)
        if svc is None:
            raise LoadError(f"unknown service {service!r}")
        if operation == "name":
            if not pattern:
                raise LoadError("--pattern is required for --op name")
            rows = [_element_row(e) for e in q_name(svc, pattern, mode)]
        elif operation == "ast":
            if not kind:
                raise LoadError("--kind is required for --op ast")
            rows = [_element_row(e) for e in q_ast(svc, ElementKind(kind))]
        elif operation == "flow":
            if not from_sel or not to_sels:
                raise LoadError("--from and --to are required for --op flow")
            rows = [{"service": p.service, "elements": list(p.elements)} for p in q_flow(svc, from_sel, *to_sels)]
        else:
            if not function:
                raise LoadError("--function is required for --op cg")
            rows = [_element_row(e) for e in q_cg(svc, function, direction, depth)]
    except USER_ERRORS as exc:
        _fail(str(exc))
        return
    for row in rows:
        click.echo(json.dumps(row, sort_keys=True))


def _element_row(e) -> dict:
    return {
        "id": e.id,
        "service": e.service,
        "kind": e.kind.value,
        "name": e.name,
        "file": e.location.file,
        "line": e.location.line,
        "col": e.location.col,
        "type": e.inferred_type,
    }


@main.command()
@click.argument("corpus", type=click.Path(exists=True, file_okay=False))
@click.option("--reasoner", "reasoner_kind", type=click.Choice(["scripted", "remote"]), default="scripted", show_default=True)
@click.option("--rules", "rules_file", type=click.Path(exists=True, dir_okay=False), default=None)
def graph(corpus, reasoner_kind, rules_file):
    """Dump the global reachability graph in DOT format."""
    from .crossflow import build_global_graph, match_channels, to_dot
    from .pipeline import BudgetExhausted, ProgramInvalid, find_privileged_ops
    from .reasoner import load_rules, make_reasoner

    exhausted = None
    try:
        program = load_program(corpus)
        violations = validate_program(program)
        if violations:
            raise ProgramInvalid(violations)
        backend = make_reasoner(reasoner_kind, load_rules(rules_file))
        try:
            privops = find_privileged_ops(program, backend)
        except BudgetExhausted as exc:
            privops, exhausted = exc.partial, exc
        g = build_global_graph(program, privops, match_channels(program))
    except USER_ERRORS + _engine_errors() as exc:
        _fail(str(exc))
        return
    click.echo(to_dot(g, program), nl=False)
    if exhausted is not None:
        click.echo(f"privflow: budget exhausted: {exhausted}", err=True)
        sys.exit(int(ExitStatus.BUDGET_EXHAUSTED))


@main.command()
@click.argument("corpus", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
def facts(corpus, out_dir):
    """Export every service's facts as .facts.jsonl files."""
    try:
        program = load_program(corpus)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for service in program.services:
            path = out / f"{service.name}.facts.jsonl"
            path.write_text(write_facts(service), encoding="utf-8")
            written.append(path)
    except USER_ERRORS as exc:
        _fail(str(exc))
        return
    for path in written:
        click.echo(str(path))


if __name__ == "__main__":
    main()
