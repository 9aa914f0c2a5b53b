#!/usr/bin/env python3
"""Benchmark for coretower: one workload, one seed, one run.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  The seed fixes the op list (the
argv lists passed to coretower.cli.main); it is written to
.bench_out/<workload>.ops.json so the run can be replayed.  Each round
runs the whole op list in a fresh interpreter, one op after the other,
so the program's caches start cold every round, as they do for a CLI
user.  Rounds repeat while the next one is expected to end within S
seconds, and at least until the workload's WORK_ROUNDS plain rounds
(with --trace 1: two traced rounds) are done.  Every op's output is
checked after the rounds.

Times are CPU times of the process that does the work, scaled to a CPU
on which the reference computation (reference.py) takes REFERENCE_S:
each op's CPU time is multiplied by REFERENCE_S over the mean time of
the reference calls sampled during and around it in the same process.
On a shared host other tenants slow the CPU itself, by up to 2x for
seconds to minutes at a time, so raw times move with the host; the
scaled ones follow the program.

--trace 0 prints the end-to-end metrics: work_s, the sum over ops of each
op's median scaled CPU time across the first WORK_ROUNDS plain rounds;
setup_s, the median scaled CPU time an interpreter spends from its spawn
until coretower.cli is imported, over SETUP_PROBES probes spread across
those rounds; peak_rss_mb, the median peak RSS of the round process.  It
also prints, unscaled and ungated, the rounds' wall and CPU seconds and,
for point_queries, the p50 and p95 per-op latency.
--trace 1 alternates plain and traced rounds and prints the per-layer
metrics of the traced rounds, with their overhead over the plain ones.
It fails unless every count metric is the same in every traced round.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every op of
every round was correct.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

# Write bytecode only where compileall puts it below, inside the checkout.
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from tracer import ENUM_NEXT, LAYERS  # noqa: E402

# Plain rounds whose per-op medians make work_s.  Fixed per workload, not
# taken from the time budget, so that a faster or slower program is
# measured over the same number of rounds.  With the setup probes and the
# speed samples, each workload's rounds take 30-45 s at the commit that
# added the benchmark (one round of closed_sweep, brute_verify and
# point_queries ran in about 7-11, 12-18 and 3-5 s on a 2-vCPU VM).
WORK_ROUNDS = {"closed_sweep": 3, "brute_verify": 2, "point_queries": 6}
SETUP_PROBES = 24
ROUND_TIMEOUT_S = 150
# The CLI's default --precision comes from this variable; the pinned
# outputs and the transform check assume the built-in default of 50.
ENV = {k: v for k, v in os.environ.items() if k != "CORETOWER_PRECISION"}
# The probe reads its CPU time first, then how fast the CPU runs now.
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import coretower.cli; c = time.process_time(); "
    "sys.path.insert(0, sys.argv[2]); from reference import reference_speed; "
    "print(c, reference_speed())"
)


def scaled(cpu_s: float, reference_s: float) -> float:
    """CPU seconds as they would read on a CPU where the reference
    computation takes REFERENCE_S."""
    return cpu_s * REFERENCE_S / reference_s


def probe_setup() -> float:
    """Scaled CPU seconds an interpreter spends from its spawn until
    coretower.cli is imported."""
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True, env=ENV,
    )
    cpu_s, reference_s = map(float, proc.stdout.split())
    return scaled(cpu_s, reference_s)


def run_round(workload: str, ops_path: Path, k: int, traced: bool):
    tag = f"{workload}.round{k}"
    result_path = OUT / f"{tag}.result.json"
    outputs_path = OUT / f"{tag}.outputs.jsonl"
    cmd = [sys.executable, "-I", "-B", str(WORKER), str(SRC), str(ops_path),
           str(result_path), str(outputs_path)]
    if traced:
        cmd.append(str(OUT / f"{workload}.spans"))
    subprocess.run(cmd, check=True, timeout=ROUND_TIMEOUT_S, env=ENV,
                   stdout=subprocess.DEVNULL)
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["outputs_path"] = outputs_path
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_round(workload: str, ops, result, reference) -> dict[int, str]:
    """Failures by op index.  reference is the first round's result for
    point_queries (whose outputs were checked in full), else None."""
    codes, digests = result["codes"], result["digests"]
    if workload != "point_queries":
        return oracle.check_pinned(workload, ops, codes, digests)
    if reference is not None:
        return {
            i: "output differs from the first round"
            for i in range(len(ops))
            if (codes[i], digests[i]) != (reference["codes"][i], reference["digests"][i])
        }
    with open(result["outputs_path"]) as fh:
        outputs = [json.loads(line) for line in fh]
    return oracle.check_point_queries(ops, codes, outputs, SRC)


def op_order(op: list[str]) -> int | None:
    """Truncation order an op works at, if it has one."""
    if "--order" in op:
        return int(op[op.index("--order") + 1])
    if "--samples" in op:
        return max(int(s) for s in op[op.index("--samples") + 1].split(","))
    return None


def scaling_exponent(ops, series_self_by_op) -> float:
    """Least-squares slope of log(series self time) against log(order),
    over the orders the ops use; 0 when fewer than two orders have any."""
    by_order: dict[int, float] = {}
    for op, s in zip(ops, series_self_by_op):
        n = op_order(op)
        if n is not None:
            by_order[n] = by_order.get(n, 0.0) + s
    points = [(math.log(n), math.log(s)) for n, s in by_order.items() if s > 0]
    if len(points) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope


def layer_counts(trace: dict, stdout_bytes: int) -> dict[str, int]:
    """Per-layer counts; these must repeat exactly between traced rounds."""
    fns, counters, caches = trace["functions"], trace["counters"], trace["caches"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    counts = {f"{layer}.calls": trace["layers"][layer]["calls"] for layer in LAYERS}
    counts.update({
        "series.mul.calls": calls("series.mul"),
        "series.mul.products": counters.get("series.mul.products", 0),
        "series.div.products": counters.get("series.div.products", 0),
        "partitions.enumerated": counters.get("partitions.enumerated", 0),
        "partitions.partition_count.calls": calls("partitions.partition_count"),
        "tower.t_core.calls": calls("tower.t_core"),
        "tower.t_quotient.calls": calls("tower.t_quotient"),
        "tower.cache_entries": caches["tower"]["entries"],
        "cli.stdout_bytes": stdout_bytes,
    })
    for layer in ("series", "tower"):
        counts[f"{layer}.cache_hits"] = caches[layer]["hits"]
        counts[f"{layer}.cache_misses"] = caches[layer]["misses"]
    return counts


def layer_times(trace: dict, ops) -> dict[str, float]:
    fns = trace["functions"]
    times = {f"{layer}.self_s": trace["layers"][layer]["self_s"] for layer in LAYERS}
    times["series.pochhammer_inf.self_s"] = fns.get("series.pochhammer_inf", {}).get("self_s", 0.0)
    times["enumeration_s"] = fns.get(ENUM_NEXT, {}).get("self_s", 0.0)
    times["series.scaling_exp"] = scaling_exponent(ops, trace["self_by_op"]["series"])
    return times


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(traced, plain, ops) -> tuple[dict, list[dict]]:
    """Metrics from the traced rounds, and each traced round's counts."""
    counts = layer_counts(traced[0]["trace"], traced[0]["stdout_bytes"])
    all_times = [layer_times(r["trace"], ops) for r in traced]
    times = {k: statistics.median(t[k] for t in all_times) for k in all_times[0]}
    enumerated = counts["partitions.enumerated"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", times[f"{layer}.self_s"], "s")
        put(f"{layer}.calls", counts[f"{layer}.calls"], "count")
    for name in ("series.mul.calls", "series.mul.products", "series.div.products",
                 "partitions.enumerated", "partitions.partition_count.calls",
                 "tower.t_core.calls", "tower.t_quotient.calls",
                 "tower.cache_entries"):
        put(name, counts[name], "count")
    put("cli.stdout_bytes", counts["cli.stdout_bytes"], "bytes")
    put("series.pochhammer_inf.self_s", times["series.pochhammer_inf.self_s"], "s")
    put("series.scaling_exp", times["series.scaling_exp"], "exponent")
    for layer in ("series", "tower"):
        put(f"{layer}.cache_hit_ratio",
            ratio(counts[f"{layer}.cache_hits"], counts[f"{layer}.cache_misses"]), "ratio")
    put("partitions.enum_rate_per_s",
        enumerated / times["enumeration_s"] if times["enumeration_s"] else 0.0, "1/s")
    put("tower.us_per_enumerated_partition",
        1e6 * times["tower.self_s"] / enumerated if enumerated else 0.0, "us")
    # Traced rounds do not sample the CPU's speed, so this compares
    # unscaled CPU times.
    cpu = [sum(op_median(r["cpu_s"] for r in rounds)) for rounds in (traced, plain)]
    put("trace.overhead_ratio", cpu[0] / cpu[1], "ratio")
    return metrics, [layer_counts(r["trace"], r["stdout_bytes"]) for r in traced]


def op_fastest(rounds) -> list[float]:
    """Each op's fastest wall latency over the rounds."""
    return [min(lat) for lat in zip(*(r["latencies_s"] for r in rounds))]


def scaled_op_times(result) -> list[float]:
    """Each op's CPU time in one plain round, scaled by the mean reference
    time sampled during and around it."""
    return list(map(scaled, result["cpu_s"], result["reference_s"]))


def op_median(per_round) -> list[float]:
    """Each op's median over the rounds of per-op values."""
    return [statistics.median(t) for t in zip(*per_round)]


def end_to_end_metrics(plain, setup, work_rounds: int) -> dict:
    return {
        "work_s": {
            "value": sum(op_median(map(scaled_op_times, plain[:work_rounds]))),
            "unit": "s",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
    }


def op_percentiles(plain) -> dict:
    """p50 and p95 of the per-op fastest latencies over the work_s rounds.
    Printed for point_queries only: in the batch workloads the seed's
    shuffle decides which op fills the caches, so their percentiles move
    with the seed."""
    latencies_ms = [1000 * s for s in op_fastest(plain)]
    return {
        "op_p50_ms": {"value": percentile(latencies_ms, 0.50), "unit": "ms"},
        "op_p95_ms": {"value": percentile(latencies_ms, 0.95), "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coretower" / "cli.py").is_file():
        print(f"error: no coretower sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: compiling the coretower sources failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    ops = workloads.make_ops(args.workload, args.seed)
    ops_path = OUT / f"{args.workload}.ops.json"
    ops_path.write_text(json.dumps(ops))

    # Start another round while it is expected to end within the budget,
    # or while the work_s rounds (with --trace 1: two traced rounds) are
    # not yet done.  The setup probes are spread over the work_s
    # rounds so that a slow spell on the host skews only some of them.
    work_rounds = WORK_ROUNDS[args.workload]
    rounds, durations, setup = [], [], []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if not args.trace and len(rounds) < work_rounds:
            share = SETUP_PROBES * (len(rounds) + 1) // work_rounds
            setup += [probe_setup() for _ in range(share - len(setup))]
        t0 = time.monotonic()
        rounds.append(run_round(args.workload, ops_path, len(rounds), traced))
        durations.append(time.monotonic() - t0)
        expected_end = time.monotonic() - start + statistics.median(durations)
        n_traced = sum(r["traced"] for r in rounds)
        n_plain = len(rounds) - n_traced
        done = n_traced >= 2 if args.trace else n_plain >= work_rounds
        if expected_end > args.seconds and done:
            break

    failures = {}
    for k, result in enumerate(rounds):
        reference = rounds[0] if k and args.workload == "point_queries" else None
        for i, reason in check_round(args.workload, ops, result, reference).items():
            failures[(k, i)] = reason
        for i, reason in result["errors"].items():
            if result["codes"][int(i)] is None:  # the op raised; say what
                failures[(k, int(i))] = reason
    attempted = len(ops) * len(rounds)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems = [f"round {k} op {i}: {reason} [{' '.join(ops[i])[:120]}]"
                for (k, i), reason in sorted(failures.items())]
    if args.trace:
        metrics, all_counts = per_layer_metrics(traced, plain, ops)
        differ = {k for c in all_counts[1:] for k in c if c[k] != all_counts[0][k]}
        if differ:
            problems.append("counts differ between traced rounds: "
                            + ", ".join(sorted(differ)))
    else:
        metrics = end_to_end_metrics(plain, setup, work_rounds)

    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"({len(traced)} traced) ops/round={len(ops)}")
    print(f"  fail_rate = {len(failures) / attempted:.6g} ratio (n={attempted})")
    samples = {"work_s": work_rounds, "peak_rss_mb": len(plain), "setup_s": len(setup)}
    shown = dict(metrics)
    if not args.trace:
        head = plain[:work_rounds]
        shown["round_wall_s"] = {"value": statistics.median(r["wall_s"] for r in head), "unit": "s"}
        shown["round_cpu_s"] = {"value": statistics.median(sum(r["cpu_s"]) for r in head), "unit": "s"}
        samples.update(round_wall_s=work_rounds, round_cpu_s=work_rounds)
        if args.workload == "point_queries":
            shown.update(op_percentiles(head))
    for name, m in shown.items():
        n = samples.get(name, len(ops) if name.startswith("op_") else len(traced))
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={n})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
