#!/usr/bin/env python3
"""maxbw benchmark: three closed-loop workloads, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick        # short run of every workload + schema check

Run from the root of a source checkout; the package is imported from its
src/ directory. One process runs one operation at a time. The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Inputs, spans and results are written under bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time

from timing import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = {"cli-figures": "cli_figures", "link-lattice": "link_lattice",
             "allocate-mix": "allocate_mix"}
# rounds every run completes: two CLI passes, so that byte-identity between
# passes is checked, and two allocate-mix rounds, so that every pair repeats
MIN_ROUNDS = {"cli-figures": 2, "link-lattice": 1, "allocate-mix": 2}
SETUP_PROBES = 5


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def probe(workload, seed):
    """Set-up as a fresh interpreter does it: imports, then input generation."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_done = time.perf_counter()
    import maxbw.cli  # noqa: F401

    maxbw_done = time.perf_counter()
    outdir = os.path.join(OUT, "probe", workload)
    os.makedirs(outdir, exist_ok=True)
    importlib.import_module(WORKLOADS[workload]).setup(seed, outdir)
    print(json.dumps({"numpy_ms": 1e3 * (numpy_done - start),
                      "maxbw_ms": 1e3 * (maxbw_done - numpy_done)}), flush=True)


def measure_setup(workload, seed):
    """Median wall time from spawning a fresh interpreter to set-up done."""
    times, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, "--probe", "--workload", workload,
                                 "--seed", str(seed)], stdout=subprocess.PIPE, env=_env())
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise SystemExit("set-up probe failed")
        imports.append(json.loads(line))
    return median(times), imports


def run_rounds(module, state, first, seconds, min_rounds, **kwargs):
    """Whole rounds until `seconds` have passed; returns records and round times."""
    records, round_times = [], []
    index, start = first, time.perf_counter()
    while index - first < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        records += module.run_round(state, index, **kwargs)
        round_times.append(time.perf_counter() - t0)
        index += 1
    return records, round_times


def run(args):
    if not os.path.isfile(os.path.join(SRC, "maxbw", "__init__.py")):
        print(f"error: no maxbw sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    setup_s, probe_imports = measure_setup(args.workload, args.seed)

    sys.path.insert(0, SRC)
    import maxbw

    if not os.path.abspath(maxbw.__file__).startswith(SRC + os.sep):
        print(f"error: maxbw imported from {maxbw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    module = importlib.import_module(WORKLOADS[args.workload])
    outdir = os.path.join(OUT, args.workload)
    os.makedirs(outdir, exist_ok=True)
    state = module.setup(args.seed, outdir)
    is_cli = args.workload == "cli-figures"
    min_rounds = MIN_ROUNDS[args.workload]

    if not args.trace:
        records, _ = run_rounds(module, state, 0, args.seconds, min_rounds)
    else:
        half = 0.5 * args.seconds
        records, plain_times = run_rounds(module, state, 0, half, min_rounds)
        if is_cli:
            traced, traced_times = run_rounds(module, state, len(plain_times), half, 1, traced=True)
        else:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_times = run_rounds(module, state, len(plain_times), half, 1)
            finally:
                tracer.uninstall()
        records += traced

    import oracle

    failed, problems = module.check(records, oracle, state)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if not args.trace:
        values = dict(module.metrics(records), setup_s=setup_s)
    else:
        if is_cli:
            children = [r["trace"] for r in traced if "trace" in r]
            summaries = [{tuple(row[:4]): row[4:] for row in child["summary"]} for child in children]
            imports = children
        else:
            tracer.write(os.path.join(outdir, "spans.tsv"))
            summaries = [tracer.summary()]
            imports = probe_imports
        values = spans.layer_metrics(summaries, len(traced_times))
        values["import.numpy_ms"] = median([i["numpy_ms"] for i in imports])
        values["import.maxbw_ms"] = median([i["maxbw_ms"] for i in imports])
        values["trace.overhead_pct"] = 100.0 * (median(traced_times) / median(plain_times) - 1.0)
    declared = _benchmark()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{int(args.trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quick():
    """Run every workload briefly in both modes and check the output schema."""
    bench = _benchmark()
    errors = []
    proc = subprocess.run([sys.executable, os.path.join(HERE, "oracle.py")], capture_output=True,
                          text=True)
    print(proc.stdout.strip())
    if proc.returncode:
        errors.append("oracle self-check failed")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [*bench["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            tag = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                errors.append(f"{tag}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            errors += [f"{tag}: {e}" for e in _schema_errors(result, declared)]
            if proc.returncode:
                errors.append(f"{tag}: exit code {proc.returncode}")
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{tag}: correct={result.get('correct')} attempted={result.get('attempted')} "
                  f"failed={result.get('failed')} {shown if trace == 0 else len(shown)}")
    for error in errors:
        print(f"quick check: {error}", file=sys.stderr)
    print("quick check " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def _schema_errors(result, declared):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted is not a positive integer")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        errors.append("failed is not an integer in [0, attempted]")
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        errors.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(want))}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
        if name in want and metric.get("unit") != want[name]:
            errors.append(f"{name}: unit {metric.get('unit')!r}, declared {want[name]!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description="maxbw benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="short self-check of every workload")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.quick:
        return quick()
    if not args.workload:
        parser.error("--workload is required")
    if args.probe:
        sys.path.insert(0, SRC)
        probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
