"""Benchmark of the pcsos package, run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

The package is imported from ./src.  Set-up (import plus building the
seeded item list) is repeated and its median reported.  Then passes over
the items run back to back in one thread, each item starting when the
previous one returns, until --seconds have passed and the tail percentile
has at least ten items beyond it.  Items are timed with the process's CPU
clock.  The collector stays on, as for a user of the CLI.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes after a warm-up pass, reports the
per-layer metrics from the traced ones, and writes the spans to
perfbench/_out/.  --self-test
damages every output before the gate sees it and exits 0 only if the gate
rejects every item of every workload.

Every line but the last names a metric with its unit; the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from time import perf_counter

from spans import GcMonitor, Recorder, Tracer, clock
from workloads import COUNTERS, WORKLOADS, Ctx, GateFailure, tally

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
MODULES = ("algebra", "proofcheck", "simulate", "degsearch", "fol", "lkr", "families", "cli")
SETUP_REPEATS = 5
# Tail percentile per workload, fixed so that it picks the same item of a
# pass however many passes a run makes (p * items per pass is not whole).
TAIL_PERCENT = {"certify": 89, "compile": 70, "closure": 81}
TAIL_BEYOND = 10

# per-layer busy time: metric -> span names summed
BUSY = {
    "proofcheck.from_json_s": ("proofcheck.sos_from_json",),
    "proofcheck.load_json_s": ("proofcheck.load_json",),
    "proofcheck.to_json_s": (
        "proofcheck.sos_to_json",
        "proofcheck.derivation_to_json",
        "proofcheck.eqset_to_json",
    ),
    "proofcheck.dump_json_s": ("proofcheck.dump_json",),
    "proofcheck.check_sos_s": ("proofcheck.check_sos",),
    "proofcheck.check_derivation_s": ("proofcheck.check_derivation",),
    "simulate.sos_to_pcplus_s": ("simulate.sos_to_pcplus",),
    "simulate.pcplus_refutation_to_sos_s": ("simulate.pcplus_refutation_to_sos",),
    "simulate.eliminate_radical_char_p_s": ("simulate.eliminate_radical_char_p",),
    "degsearch.pc_closure_s": ("degsearch.pc_closure",),
    "degsearch.extract_derivation_s": ("degsearch.extract_derivation",),
    "degsearch.contains_s": ("degsearch.contains",),
    "lkr.check_lkr_s": ("lkr.check_lkr",),
    "lkr.compile_lkr_s": ("lkr.compile_lkr",),
    "fol.parse_formula_s": ("fol.parse_formula",),
    "fol.translate_formula_s": ("fol.translate_formula",),
    "fol.eval_formula_s": ("fol.eval_formula",),
    "families.gen_s": ("families.gen_fphp_sos",),
    "cli.main_s": ("cli.main",),
}
LAYERS = MODULES + ("bench",)  # "bench" is the items' own glue around the calls


def load_api():
    """Import the package from ./src afresh; returns its modules by name."""
    for name in [m for m in sys.modules if m == "pcsos" or m.startswith("pcsos.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pcsos")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pcsos was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"pcsos.{m}") for m in MODULES})


def set_up(workload, seed, tmp, repeats):
    times = []
    for _ in range(repeats):
        t0 = clock()
        api = load_api()
        items = WORKLOADS[workload](api, seed, tmp)
        times.append(clock() - t0)
    return api, items, statistics.median(times)


def run_pass(api, items, order_seed, rec, tmp, corrupt=False):
    """One pass in seeded order.  Returns (item times, failures, counters)."""
    order = list(items)
    random.Random(order_seed).shuffle(order)
    ctx = Ctx(api, rec, tmp, corrupt)
    counts = dict.fromkeys(COUNTERS, 0)
    times, failures = [], []
    for item in order:
        # Start every item from a collected heap, as a fresh CLI process
        # would, so the collector's cost in an item does not depend on the
        # items the seed happened to put before it.
        gc.collect()
        ctx.start(item.name)
        rec.begin_item(item.name)
        t0 = clock()
        try:
            item.run(ctx)
            failure = None
        except GateFailure as exc:
            failure = f"{item.name}: {exc}"
        except Exception:  # any raise is a failed item; keep going and report it
            failure = f"{item.name}: raised\n{traceback.format_exc()}"
        elapsed = clock() - t0
        rec.end_item()
        tally(ctx.kept, counts)
        ctx.kept = []
        if failure is None:
            times.append(elapsed)
        else:
            times.append(math.inf)  # a wrong answer is never a fast item
            failures.append(failure)
    return times, failures, counts


def percentile(values, percent):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def layer_metrics(tracer, first, counts):
    """Per-layer metrics of the traced pass whose spans start at index first."""
    busy, own = tracer.self_times(first)
    m = {metric: sum(busy.get(s, 0.0) for s in names) for metric, names in BUSY.items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.startswith(layer + "."))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    parse_s = m["proofcheck.load_json_s"] + m["proofcheck.from_json_s"]
    m["proofcheck.parse_bytes_per_s"] = rate(counts["proofcheck.parsed_bytes"], parse_s)
    m["proofcheck.check_sos_products"] = counts["proofcheck.check_sos_products"]
    m["proofcheck.check_sos_products_per_s"] = rate(
        counts["proofcheck.check_sos_products"], m["proofcheck.check_sos_s"]
    )
    m["proofcheck.lines_checked"] = counts["proofcheck.lines_checked"]
    m["proofcheck.lines_per_s"] = rate(counts["proofcheck.lines_checked"], m["proofcheck.check_derivation_s"])
    m["simulate.squares_out"] = counts["simulate.squares_out"]
    m["simulate.square_repeat_ratio"] = rate(counts["simulate.squares_out"], counts["simulate.squares_distinct"])
    m["degsearch.rows"] = counts["degsearch.rows"]
    m["degsearch.row_yield"] = rate(counts["degsearch.rows"], counts["degsearch.candidates"])
    m["degsearch.rows_per_s"] = rate(counts["degsearch.rows"], m["degsearch.pc_closure_s"])
    m["degsearch.coeff_bits_max"] = counts["degsearch.coeff_bits_max"]
    m["lkr.lines_out"] = counts["lkr.lines_out"]
    m["families.terms_out"] = counts["families.terms_out"]
    m["cli.exit_code_ok"] = rate(counts["cli.exit_ok"], counts["cli.calls"])
    m["algebra.terms_in"] = counts["algebra.terms_in"]
    m["algebra.coeff_bits_max"] = counts["algebra.coeff_bits_max"]
    m["runtime.gc_gen2_collections"] = tracer.gc.gen2
    m["runtime.gc_pause_s"] = tracer.gc.pause_s
    return m


def source_digest():
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "pcsos"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def count_drift(workload, seed, pass_counts):
    """Counters that differ between passes of this run, or from an earlier
    run of the same code with the same seed."""
    drift = [k for k in COUNTERS if len({c[k] for c in pass_counts}) > 1]
    path = os.path.join(OUT, f"counts-{workload}-{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            earlier = json.load(fh)
        drift += [k for k in COUNTERS if earlier.get(k) != pass_counts[0][k]]
    else:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(pass_counts[0], fh, sort_keys=True)
    return sorted(set(drift))


def measure(args, spec, tmp):
    api, items, setup_s = set_up(args.workload, args.seed, tmp, SETUP_REPEATS)
    tail_p = TAIL_PERCENT[args.workload]
    tracer = Tracer() if args.trace else None
    pass_times = {False: [], True: []}
    item_times, failures, pass_counts, layers = [], [], [], []
    start = perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.gc = GcMonitor()
        times, bad, counts = run_pass(
            api, items, f"order:{args.seed}:{k}", tracer if traced else Recorder(), tmp
        )
        # A traced run skips its first pass, which runs cold, so that
        # trace.overhead_s compares warm passes only.
        if not (args.trace and k == 0):
            pass_times[traced].append(sum(times))
        failures += bad
        pass_counts.append(counts)
        if traced:
            layers.append(layer_metrics(tracer, first, counts))
        else:
            item_times += times
        k += 1
        if args.trace:
            enough = bool(layers) and bool(pass_times[False])
        else:
            enough = len(item_times) * (1 - tail_p / 100) >= TAIL_BEYOND
        if perf_counter() - start >= args.seconds and enough:
            break

    drift = count_drift(args.workload, args.seed, pass_counts)
    attempted = k * len(items)
    failed = len(failures) + len(drift)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name in drift:
        print(f"FAILED count {name} drifts: {[c[name] for c in pass_counts]}", file=sys.stderr)

    counts = pass_counts[0]
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(pass_times[True]) - statistics.median(pass_times[False])
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(pass_times[False]),
            "item_p50_s": percentile(item_times, 50),
            "item_tail_s": percentile(item_times, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update({name: counts[name] for name in COUNTERS if name.startswith("out_")})
        wanted = spec["end_to_end"]
        beyond = len(item_times) - math.ceil(tail_p / 100 * len(item_times))
        print(f"# item_tail_s is p{tail_p} of {len(item_times)} items, {beyond} beyond it; {k} passes")

    print(f"# fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        value = None if isinstance(value, float) and math.isinf(value) else value
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40s} {value!s:>24} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def self_test(tmp):
    """Corrupt every output; the gate must reject every item."""
    ratios = {}
    for workload in WORKLOADS:
        api, items, _ = set_up(workload, 0, tmp, 1)
        times, failures, _ = run_pass(api, items, f"order:0:{workload}", Recorder(), tmp, corrupt=True)
        ratios[workload] = len(failures) / len(times)
        print(f"# {workload}: fail_ratio {ratios[workload]:.6g} ratio with corrupted outputs")
    ok = all(r == 1.0 for r in ratios.values())
    print(json.dumps({"self_test": "gate fired on every item" if ok else "gate missed items", "fail_ratio": ratios}))
    return 0 if ok else 1


def run_all(args):
    """Every workload in turn, each in its own process so that its peak
    memory is its own.  Exits with the worst exit code."""
    worst = 0
    for workload in WORKLOADS:
        print(f"## {workload}", flush=True)
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        worst = max(worst, subprocess.run([sys.executable, os.path.abspath(__file__)] + argv).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "pcsos", "__init__.py")):
        print(f"error: no package at {SRC}/pcsos; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        return self_test(tmp) if args.self_test else measure(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
