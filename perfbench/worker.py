"""Run one round of a workload in this fresh interpreter.

Usage:
  python3 -I -B perfbench/worker.py SRC_DIR OPS_JSON RESULT_JSON OUTPUTS_JSONL [SPANS_FILE]

Imports coretower from SRC_DIR, then calls coretower.cli.main(argv) for
each argv list in OPS_JSON, one after the other, with stdout captured.
Only the call itself is timed, by the wall clock and by this process's
CPU clock.  Each op's stdout goes to one line of OUTPUTS_JSONL and its
exit code, SHA-256, latency and CPU time to RESULT_JSON.
Untraced rounds also sample the CPU's speed (reference.SpeedSampler):
the time the samples cost is taken out of each op's latency and CPU
time, and each op gets the mean reference time around it.
Given SPANS_FILE, the round is traced instead: every public coretower
function is wrapped, the per-layer summary joins RESULT_JSON and the raw
spans are written to SPANS_FILE.  Replaying a recorded OPS_JSON repeats a
run exactly.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, ops_path, result_path, outputs_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, src)
    import coretower.cli as cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import SpeedSampler

    tracer = sampler = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()

    with open(ops_path) as fh:
        ops = json.load(fh)
    latencies, cpu_times, codes, digests, errors = [], [], [], [], {}
    stdout_bytes = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    cpu_spans = []
    with open(outputs_path, "w") as outputs, sampler or contextlib.nullcontext():
        for i, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.begin_op()
            c0, t0 = cpu_clock(), clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(op)
            except Exception as exc:  # a crash is a failed op, not a failed run
                rc = None
                errors[i] = repr(exc)
            latencies.append(clock() - t0)
            cpu_spans.append((c0, cpu_clock()))
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            codes.append(rc)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if err.getvalue() and i not in errors:
                errors[i] = err.getvalue().strip()
            outputs.write(json.dumps(text) + "\n")
    reference_s = []
    for i, (c0, c1) in enumerate(cpu_spans):
        spent, mean_reference_s = sampler.window(c0, c1) if sampler else (0.0, None)
        latencies[i] -= spent
        cpu_times.append(c1 - c0 - spent)
        reference_s.append(mean_reference_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "cpu_s": cpu_times,
        "reference_s": reference_s,
        "codes": codes,
        "digests": digests,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "stdout_bytes": stdout_bytes,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
