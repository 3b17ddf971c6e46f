#!/usr/bin/env python3
"""finspec benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload geodesic_gallery --seed 1 \
        --seconds 30 --trace 0

Set-up builds the seeded inputs, writes the JSON files and makes a small
warm-up pass.  It runs three times before the first round and three times
after every round, so that its samples spread over the whole run like the
rounds do.  The timed phase repeats rounds (one pass over the workload's
calls, each call waiting for the one before) while another round fits into
``--seconds``.
After the timed phase every pair of each distinct distance matrix is
re-solved once and its certificate checked, and then every answer is
checked against the geodesic and the certified bounds; a failed check
counts as a failed call and never aborts the run.

End-to-end metrics (``--trace 0``) are host-speed normalised (see
perfbench/gauge.py): a fixed reference computation runs between the timed
operations, and each operation's time is scaled by the reference's nominal
time over its local time.  Other tenants of the shared host change its speed
by a third and more, for seconds to minutes at a time; most of that cancels
out of the ratio.  Each metric is a median over the run: ``setup_s`` the
median set-up (the cold first one included), ``wall_s`` the time of one
round with each call at its median over the rounds (calls with the same
label run the same work and share their median), ``pairs_per_s`` the
distance pairs of a round (finite and infinite) over ``wall_s``,
``call_ms_p50``/``call_ms_p90`` percentiles across the calls of a round of
each call's median latency, and ``peak_rss_mb`` the process's ru_maxrss.
The report keeps every round and set-up time as measured, and the
reference times.

With ``--trace 1`` the last line carries the per-layer metrics of a traced
run (hooks in perfbench/tracing.py); each traced call is paired with an
untraced run of the same call just before it, which gives the tracing
overhead.  A detailed report (environment, tail percentiles, error rate,
failures, absent hooks, layer shares) is written to perfbench/results/ and
its path printed before the last line.

The program is run from the sources under src/ of the checkout; without
them the benchmark exits with code 2 and prints no result.
"""

import os

BLAS_THREADS = 1   # arrays are at most ~100 x 100; threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3   # set-ups before the first round and after every round
GAUGE_EVERY_S = 0.25   # seconds of operations between two reference runs

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    if best is None:
        return {"p": None, "value": None, "n": n}
    return {"p": best, "value": percentile(values, best), "n": n}


def call_median_ms(calls, outputs, times):
    """Latency in ms of each call of the round: the median over all rounds
    of the calls with its label, which run identical work (the same argv on
    cli_session)."""
    by_label = {}
    for (idx, _), dt in zip(outputs, times):
        by_label.setdefault(calls[idx].label, []).append(dt * 1e3)
    return [statistics.median(by_label[call.label]) for call in calls]


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def timed(call):
    """Run one call; returns (seconds, output or the exception it raised)."""
    c0 = time.perf_counter()
    try:
        out = call.run()
    except Exception as exc:  # a failed call is counted, not fatal
        out = exc
    return time.perf_counter() - c0, out


def run_rounds(calls, seconds, recorder=None, between=None, gauge=None):
    """Closed loop: whole rounds while another one fits into ``seconds`` of
    round time.  ``between()`` runs after every round, outside round time.
    Each call's latency goes to ``gauge`` as a "call".

    With a recorder, each call runs untraced and then traced, back to back,
    so that slow drifts of the host's speed cancel out of the overhead; the
    latencies and outputs returned are the traced ones, and the untraced
    latencies come back as a fourth list.
    """
    latencies, outputs, round_times, untraced = [], [], [], []
    while True:
        r0 = time.perf_counter()
        for idx, call in enumerate(calls):
            if recorder is not None:
                untraced.append(timed(call)[0])
                recorder.request = len(outputs)
                recorder.install()
            try:
                dt, out = timed(call)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            latencies.append(dt)
            outputs.append((idx, out))
            if gauge is not None:
                gauge.add("call", dt)
        round_times.append(time.perf_counter() - r0)
        if between is not None:
            between()
        if sum(round_times) + statistics.median(round_times) > seconds:
            break
    return latencies, outputs, round_times, untraced


def check_outputs(calls, outputs):
    """Certify each distinct call once (re-solving every pair of its
    matrix), then check every answer against the geodesic and the certified
    bounds.  A certification failure counts against the call's first
    output.  Returns (indices of failed outputs, messages, pairs done, worst
    error against an exact reference)."""
    failed, messages, pairs, ref_err = set(), [], 0, 0.0
    first = {}
    for pos, (idx, _) in enumerate(outputs):
        first.setdefault(idx, pos)
    for idx, pos in first.items():
        call = calls[idx]
        if call.certify is None:
            continue
        try:
            errors = call.certify()
        except Exception as exc:
            errors = [f"certify raised {type(exc).__name__}: {exc}"]
        if errors:
            failed.add(pos)
            messages.append({"call": call.label, "errors": errors})
    for pos, (idx, out) in enumerate(outputs):
        call = calls[idx]
        if isinstance(out, Exception):
            errors, err = [f"{type(out).__name__}: {out}"], None
        else:
            pairs += call.pairs
            try:
                errors, err = call.check(out)
            except Exception as exc:
                errors, err = [f"check raised {type(exc).__name__}: {exc}"], None
        if err is not None:
            ref_err = max(ref_err, err)
        if errors:
            failed.add(pos)
            messages.append({"call": call.label, "errors": errors})
    return failed, messages, pairs, ref_err


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finspec", "__init__.py")):
        print(f"error: no finspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    import gauge
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        speed = gauge.Gauge(GAUGE_EVERY_S)

        def set_up():
            speed.close()
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                built = workloads.build(args.workload, args.seed, workdir)
                speed.add("setup", time.perf_counter() - t0)
                speed.close()
            return built

        calls = set_up()
        recorder = tracing.Recorder() if args.trace else None
        latencies, outputs, round_times, untraced = run_rounds(
            calls, args.seconds, recorder, set_up, speed)
        c0 = time.perf_counter()
        failed, messages, pairs, ref_err = check_outputs(calls, outputs)
        check_s = time.perf_counter() - c0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outputs)
    setup_times = speed.times("setup")
    per_call = call_median_ms(calls, outputs, speed.times("call"))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
        "reference_s": {"nominal": gauge.REFERENCE_S,
                        "median": statistics.median(speed.references),
                        "min": min(speed.references),
                        "max": max(speed.references),
                        "n": len(speed.references)},
        "setup_s": setup_times,
        "setup_s_measured": speed.raw("setup"),
        "check_s": check_s,
        "rounds": len(round_times),
        "calls_per_round": len(calls),
        "heavy_calls_per_round": sum(c.heavy for c in calls),
        "round_s": round_times,
        "round_s_tail": tail(round_times),
        "call_ms_tail": tail([dt * 1e3 for dt in latencies]),
        "call_ms_by_call": [[call.label, ms] for call, ms in zip(calls, per_call)],
        "pairs": pairs,
        "attempted": attempted,
        "failed": len(failed),
        "error_rate": len(failed) / attempted,
        "failures": messages[:50],
        "ref_err_max": ref_err,
    }

    if args.trace:
        traced_s = sum(latencies)
        layer = recorder.layer_metrics(len(round_times), traced_s,
                                       sum(untraced), ref_err)
        units = tracing.metric_units()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in units.items()}
        report.update({
            "untraced_round_s": sum(untraced) / len(round_times),
            "absent_hooks": recorder.absent,
            "absent_spans": recorder.absent_spans(),
            "chosen_layers": recorder.chosen_layers(args.workload, layer,
                                                    len(round_times)),
            # Layer self times plus other.self_s; equals trace.wall_s.
            "self_sum_s": sum(layer[f"{span}.self_s"] for span in tracing.SPANS)
                          + layer["other.self_s"],
            "spans": len(recorder.spans),
        })
        stem = f"{args.workload}-s{args.seed}-trace"
        recorder.write(os.path.join(RESULTS, stem + ".spans.json.gz"))
    else:
        wall = sum(per_call) / 1e3
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "pairs_per_s": pairs / len(round_times) / wall,
            "call_ms_p50": percentile(per_call, 50),
            "call_ms_p90": percentile(per_call, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        stem = f"{args.workload}-s{args.seed}"
    report["metrics"] = metrics

    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, m in metrics.items():
        print(f"{args.workload:17s} {name:34s} {m['value']:14.6g} {m['unit']}")
    for msg in messages[:10]:
        print(f"FAILED {msg['call']}: {'; '.join(msg['errors'])[:300]}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
