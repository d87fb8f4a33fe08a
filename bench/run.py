"""privflow benchmark: cold analyses of generated and labelled corpora.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S

Each sample is one analysis (``load_program`` -> ``scan`` ->
``render_report(..., "json")``) in a fresh worker process, one at a time:
a closed loop with one client. A run keeps sampling for ``--seconds``
seconds and reports medians. With ``--trace 0`` it prints the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it alternates untraced
and traced analyses of the same corpus and prints the per-layer metrics.
Every analysis is checked against ground truth; the last line of output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are reported at the reference speed (see reference.py): each
analysis's seconds are scaled by how fast a fixed piece of Python work ran
in the same process right before and after it, so the machine's slow and
fast phases cancel. The raw wall-clock medians are printed on the lines above.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
CORPORA = ROOT / "tests" / "corpora"
WORK = ROOT / ".bench_work"

# Shapes are fixed; the seed only permutes names, file order and, for
# labelled, corpus order. Sizes keep one analysis well under a second so a
# run holds enough samples for a tail percentile (see bench/README.md).
WORKLOADS = {
    "chain": {"shape": "chain", "size": (4, 12), "budget": "open", "warmup": False},
    "fanout": {"shape": "fanout", "size": (8, 2), "budget": "open", "warmup": False},
    "labelled": {"shape": None, "size": None, "budget": "default", "warmup": False},
    "rescan": {"shape": "chain", "size": (4, 8), "budget": "open", "warmup": True},
}
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
MIN_SAMPLES = TAIL_BEYOND + 1
HARD_CAP_S = 100.0  # stop topping up to MIN_SAMPLES after this long
WORKER_TIMEOUT_S = 50.0


class WorkerFailed(Exception):
    pass


def make_inputs(spec: dict, rng: random.Random, workdir: Path, index: int):
    """(corpus dirs, per-corpus ground truth, generation seconds)."""
    if spec["shape"] is None:
        entries = json.loads((CORPORA / "bench.json").read_text(encoding="utf-8"))["corpora"]
        rng.shuffle(entries)
        truths = [{(e["service"], e["sink"], e["verdict"]) for e in entry["expected"]} for entry in entries]
        return [str(CORPORA / e["path"]) for e in entries], truths, 0.0
    out = workdir / f"s{index}"
    started = time.perf_counter()
    truth = getattr(gen, spec["shape"])(rng.getrandbits(32), *spec["size"], out)
    return [str(out)], [truth], time.perf_counter() - started


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors = proc.stderr.strip().splitlines()
        raise WorkerFailed(errors[-1] if errors else f"exit {proc.returncode}")
    return json.loads(lines[-1])


def check(result: dict, truths: list[set], labelled: bool) -> list[str]:
    """Why this analysis fails the correctness gate; empty when it passes."""
    problems = []
    for report, truth in zip(result["reports"], truths):
        funnel = report["funnel"]
        exits = funnel["constraint_pruned"] + funnel["protected_dropped"] + funnel["budget_truncated"]
        if funnel["initial_flows"] != exits + funnel["findings"]:
            problems.append(f"funnel not conserved: {funnel}")
        if report["exhausted"]:
            problems.append(f"budget exhausted: {report['tool_calls']}")
        sinks = {(s[0], s[3], s[4]) if labelled else tuple(s) for s in report["sinks"]}
        if sinks != truth:
            problems.append(f"findings differ from ground truth: missing {sorted(truth - sinks)[:3]}, extra {sorted(sinks - truth)[:3]}")
    if "layers" in result:
        gap = abs(result["layers"]["trace.self_sum_s"] - result["analyze_s"])
        if gap > 1e-6:
            problems.append(f"span self times miss {gap:.9f}s of the traced analysis")
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def layer_row(result: dict) -> dict:
    layers = dict(result["layers"])
    reports = result["reports"]
    phases = ("privileged_ops", "flow", "validation")
    layers.update(
        {
            "model.elements": sum(r["elements"] for r in reports),
            "model.edges": sum(r["edges"] for r in reports),
            "search.cache.hits": result["cache_hits"],
            "search.cache.misses": result["cache_misses"],
            "reasoner.calls": result["reasoner_calls"],
            "reasoner.distinct": result["reasoner_distinct"],
            "reasoner.useful_ratio": result["reasoner_distinct"] / max(result["reasoner_calls"], 1),
            "report.bytes": sum(r["bytes"] for r in reports),
        }
    )
    # the budget is per scan, so the largest scan's count is what meets the limit
    for phase in phases:
        layers[f"pipeline.tool_calls.{phase}"] = max(r["tool_calls"].get(phase, 0) for r in reports)
    return layers


def measure(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    plain: list[dict] = []
    traced: list[dict] = []
    spans: list = []
    problems: list[str] = []
    attempted = failed = index = 0
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (index >= MIN_SAMPLES or elapsed >= HARD_CAP_S):
                break
            index += 1
            corpora, truths, gen_s = make_inputs(spec, rng, workdir, index)
            digests = {}
            # alternate which of the pair runs first, so drift cancels in trace.overhead_s
            order = (False, True) if index % 2 else (True, False)
            for traced_mode in order if trace else (False,):
                attempted += 1
                job = {"corpora": corpora, "budget": spec["budget"], "warmup": spec["warmup"],
                       "trace": traced_mode, "analysis": index}
                try:
                    result = run_worker(job)
                except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                    failed += 1
                    problems.append(f"analysis {index} raised: {exc}")
                    continue
                errors = check(result, truths, spec["shape"] is None)
                digests[traced_mode] = [r["sha256"] for r in result["reports"]]
                if len(digests) == 2 and digests[False] != digests[True]:
                    errors.append("traced report differs from the untraced one")
                if errors:
                    failed += 1
                    problems.extend(f"analysis {index}: {e}" for e in errors)
                    continue
                result["setup_s"] += gen_s
                result["scale"] = reference.NOMINAL_S / result["reference_s"]
                if traced_mode:
                    spans.extend(result.pop("spans"))
                    traced.append(result)
                else:
                    plain.append(result)
            shutil.rmtree(workdir / f"s{index}", ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = {r["reasoner_calls"] for r in plain + traced}
    if len(calls) > 1:
        problems.append(f"reasoner calls differ between analyses of one shape: {sorted(calls)}")
    out = {"attempted": attempted, "failed": failed, "problems": problems, "samples": len(plain)}
    if not plain or (trace and not traced):
        out["metrics"] = {}
        return out

    analyze = [r["analyze_s"] * r["scale"] for r in plain]
    tail_value, tail_pct = tail(analyze)
    out["tail_percentile"] = tail_pct
    out["raw"] = {
        "analyze_s": statistics.median(r["analyze_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "reference_s": statistics.median(r["reference_s"] for r in plain),
    }
    if spec["warmup"]:
        out["warmup_s"] = statistics.median(r["warmup_s"] for r in plain)
    if trace:
        rows = [layer_row(r) for r in traced]
        for row, r in zip(rows, traced):
            row.update({key: value * r["scale"] for key, value in row.items() if declared.get(key) == "s"})
        values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        traced_s = statistics.median(r["analyze_s"] * r["scale"] for r in traced)
        values["trace.overhead_s"] = traced_s - statistics.median(analyze)
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{name}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    else:
        values = {
            "analyze_s": statistics.median(analyze),
            "analyze_s_tail": tail_value,
            "reasoner_calls": statistics.median(r["reasoner_calls"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in plain),
        }
    out["metrics"] = {key: {"value": values[key], "unit": unit} for key, unit in declared.items()}
    return out


def print_run(name: str, trace: bool, res: dict) -> None:
    print(f"# {name} trace={int(trace)}: {res['samples']} untraced analyses, "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"fail_ratio={res['failed'] / max(res['attempted'], 1):.4f}")
    if "tail_percentile" in res and not trace:
        print(f"# analyze_s_tail is p{res['tail_percentile']:.1f} of {res['samples']} samples")
    if "raw" in res:
        raw = res["raw"]
        print(f"# raw wall medians: analyze {raw['analyze_s']:.6f} s, setup {raw['setup_s']:.6f} s; "
              f"reference work {raw['reference_s']:.6f} s (reported times are scaled to {reference.NOMINAL_S} s)")
    if "warmup_s" in res:
        line = f"# cold warm-up analysis median {res['warmup_s']:.6f} s (raw)"
        if "raw" in res:
            line += f"; the timed warm analysis takes {res['raw']['analyze_s'] / res['warmup_s']:.2f}x that"
        print(line)
    for key, metric in res["metrics"].items():
        print(f"{key:40s} {metric['value']:>16.6f} {metric['unit']}")
    for problem in res["problems"][:20]:
        print(f"! {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "privflow" / "__init__.py", CORPORA / "bench.json") if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
              "run from a privflow checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }

    if args.workload != "all":
        trace = bool(args.trace)
        res = measure(args.workload, args.seed, args.seconds, trace, units[trace])
        print_run(args.workload, trace, res)
        correct = res["failed"] == 0 and not res["problems"] and bool(res["metrics"])
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": res["metrics"]}))
        return 0

    # every workload, untraced then traced: one row per workload and table
    rows = {}
    for name in WORKLOADS:
        for trace in (False, True):
            rows[name, trace] = measure(name, args.seed, args.seconds, trace, units[trace])
            print_run(name, trace, rows[name, trace])
    for trace in (False, True):
        keys = list(units[trace])
        print("\n| workload | fail_ratio | " + " | ".join(f"{k} ({units[trace][k]})" for k in keys) + " |")
        print("|---" * (len(keys) + 2) + "|")
        for name in WORKLOADS:
            res = rows[name, trace]
            cells = [f"{res['metrics'][k]['value']:.6g}" if k in res["metrics"] else "-" for k in keys]
            print(f"| {name} | {res['failed'] / max(res['attempted'], 1):.4f} | " + " | ".join(cells) + " |")
    correct = all(r["failed"] == 0 and not r["problems"] and r["metrics"] for r in rows.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{name}.{key}": m for (name, _), r in rows.items() for key, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
