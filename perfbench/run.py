"""Benchmark of the trivalent package: CLI verbs end to end, and each
module's public functions in a separate traced run.

    python3 perfbench/run.py --workload series|census|decide \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  One
client in one process runs the workload's ops one after another in a fixed
order (a closed loop), round after round, for about S seconds.
Every op's output is checked; a failed op is counted, never timed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md).  The end-to-end op times are scaled to the reference host
speed by the speed probe (probe.py), which times a fixed kernel while the
ops run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
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
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import CACHE_ENV, WORKLOADS  # noqa: E402

COLD_START_ARGV = ["-m", "trivalent.cli", "count", "pointed", "--max", "1"]
COLD_STARTS = 21

#: (name, unit, better) of the end-to-end metrics, reported by --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("round_s", "s", "lower"),
    ("op_geomean_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_SELF = "s", "lower"
_COUNT = "count", "lower"
#: (name, unit, better) of the per-layer metrics, reported by --trace 1.
PER_LAYER = [
    ("cli.main.self_s", *_SELF),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("series.TruncSeries.log.self_s", *_SELF),
    ("series.TruncSeries.log.calls", *_COUNT),
    ("series.moebius_sieve.self_s", *_SELF),
    ("series.TruncSeries.integer_coefficients.self_s", *_SELF),
    ("cycleindex.commuting_order_p_counts.self_s", *_SELF),
    ("cycleindex.commuting_order_p_counts.calls", *_COUNT),
    ("counting.subgroup_series.self_s", *_SELF),
    ("counting.conjugacy_class_series.self_s", *_SELF),
    ("counting.coeff_digits_max", "digits", "lower"),
    ("diagram.canonical_code.self_s", *_SELF),
    ("diagram.canonical_code.calls", *_COUNT),
    ("diagram.canonical_code.arcs", *_COUNT),
    ("diagram.canonical_representative.self_s", *_SELF),
    ("diagram.is_normal.self_s", *_SELF),
    ("diagram.is_normal.calls", *_COUNT),
    ("diagram.automorphism_order.self_s", *_SELF),
    ("diagram.pointed_morphism.self_s", *_SELF),
    ("diagram.pointed_morphism.calls", *_COUNT),
    ("diagram.pointed_morphism_conflict.self_s", *_SELF),
    ("diagram.parse_diagram_text.self_s", *_SELF),
    ("diagram.parse_diagram_text.arcs", *_COUNT),
    ("diagram.Diagram.self_s", *_SELF),
    ("diagram.Diagram.calls", *_COUNT),
    ("census.pointed_structures.self_s", *_SELF),
    ("census.pointed_structures.yielded", *_COUNT),
    ("census.enumerate_size.self_s", *_SELF),
    ("census.classes_per_code", "ratio", "higher"),
    ("bench.op.self_s", *_SELF),
    ("trace.overhead_s", *_SELF),
    ("trace.self_residual_s", *_SELF),
]


def load_package(root):
    """Import `trivalent` from the checkout's `src/`, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trivalent", "__init__.py")):
        raise SystemExit("error: no package at %s; run from a checkout of the repository" % src)
    sys.path.insert(0, src)
    import trivalent
    import trivalent.cli
    import trivalent.reference

    if os.path.dirname(os.path.dirname(os.path.abspath(trivalent.__file__))) != src:
        raise SystemExit("error: imported trivalent from %s, not %s" % (trivalent.__file__, src))
    return trivalent


@dataclass
class Record:
    """What a round keeps of one op once its output has been checked."""

    seconds: float
    ok: bool
    stdout_bytes: int = 0
    digits: int = 0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, label, message):
        self.failed += 1
        print("FAILED %s: %s" % (label, message), file=sys.stderr)


def run_op(op, tally, tracer=None, probe=None) -> Record:
    """Runs an op `op.repeat` times, timing each run and checking its output
    outside the timed region.  The record holds the time per run, without
    the time an armed speed probe took inside the runs."""
    gc.collect()
    tally.attempted += 1
    record = Record(0.0, True)
    try:
        for _ in range(op.repeat):
            first = len(probe.samples) if probe else 0
            start = perf_counter()
            result = tracer.call("bench.op", op.run) if tracer else op.run()
            record.seconds += perf_counter() - start
            if probe:
                record.seconds -= sum(probe.samples[first:])
            payload = op.check(result)
            if isinstance(result, tuple):
                record.stdout_bytes += len(result[1].encode("utf-8"))
            if op.cache_hit is not None:
                record.digits = max(len(c) for c in payload["coefficients"])
    except check.CheckError as exc:
        tally.fail(op.label, exc)
        return Record(0.0, False)
    except Exception:
        tally.fail(op.label, traceback.format_exc())
        return Record(0.0, False)
    record.seconds /= op.repeat
    return record


def run_round(ops, tally, tracer=None, probe=None) -> list:
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        records.append(run_op(op, tally, tracer, probe))
    return records


def cold_starts(root, tally) -> list:
    """Wall time of fresh interpreters running a trivial CLI call."""
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    argv = [sys.executable] + COLD_START_ARGV
    times = []
    for i in range(COLD_STARTS + 1):
        tally.attempted += 1
        try:
            start = perf_counter()
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=60)
            seconds = perf_counter() - start
            payload = check.cli_payload((proc.returncode, proc.stdout.decode("utf-8")))
            if payload.get("coefficients") != ["1"]:
                raise check.CheckError("wrong coefficients %r" % payload.get("coefficients"))
        except (check.CheckError, subprocess.TimeoutExpired) as exc:
            tally.fail("cold start", exc)
            continue
        if i:  # the first start may compile bytecode; it is not timed
            times.append(seconds)
    return times


def describe(name, samples, unit="s") -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return "%-30s no successful samples" % name
    if n >= 11:
        tail = "p%d %.4f %s" % (100 * (n - 10) // n, ordered[n - 11], unit)
    else:
        tail = "no tail percentile (needs >= 11 samples)"
    return "%-30s median %.4f %s, %s, n=%d" % (name, statistics.median(ordered), unit, tail, n)


def rounds_within(seconds):
    """Yields round numbers for `seconds`: a round starts only if at least
    half of a round of median length still fits."""
    walls = []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() + statistics.median(walls) / 2 <= deadline:
        start = perf_counter()
        yield len(walls)
        walls.append(perf_counter() - start)


def timed(ops, tally, seconds, probe) -> tuple:
    """Returns per-metric samples and the number of rounds run.  The speed
    probe is armed throughout."""
    samples = {}
    rounds = 0
    probe.arm()
    try:
        for rounds in rounds_within(seconds):
            records = run_round(ops, tally, probe=probe)
            if not all(r.ok for r in records):
                continue
            per_metric = {}
            for op, r in zip(ops, records):
                per_metric[op.metric] = per_metric.get(op.metric, 0.0) + r.seconds
            for metric, value in per_metric.items():
                samples.setdefault(metric, []).append(value)
            samples.setdefault("round_s", []).append(sum(r.seconds for r in records))
    finally:
        probe.disarm()
    return samples, rounds + 1


def layer_metrics(tracer, ops, records, tally) -> dict:
    """Per-layer metrics of one traced round."""
    selfs = spans.self_times(tracer.spans)
    summary = spans.summarize(tracer.spans, selfs)
    by_op = {}
    for span, s in zip(tracer.spans, selfs):
        entry = by_op.setdefault(span[4], {"names": set(), "self": 0.0, "wall": 0.0})
        entry["names"].add(span[0])
        entry["self"] += s
        if span[0] == "bench.op":
            entry["wall"] += span[2] - span[1]
    out = {}
    for name, _, _ in PER_LAYER:
        span_name, _, key = name.rpartition(".")
        if key in ("self_s", "calls"):
            out[name] = summary.get(span_name, {}).get(key, 0)
        elif key in ("arcs", "yielded"):
            out[name] = summary.get(span_name, {}).get("size", 0)
    classes = summary.get("census.enumerate_size", {}).get("size", 0)
    codes = out["diagram.canonical_code.calls"]
    out["census.classes_per_code"] = classes / codes if codes else 0.0
    out["cli.stdout_bytes"] = sum(r.stdout_bytes for r in records)
    out["counting.coeff_digits_max"] = max(r.digits for r in records)
    hits = 0
    residual = 0.0
    for i, (op, r) in enumerate(zip(ops, records)):
        entry = by_op.get(i)
        if entry is None:
            continue
        residual = max(residual, abs(entry["self"] - entry["wall"]))
        if op.cache_hit is not None:
            hit = not any(n.startswith("counting.") for n in entry["names"])
            hits += hit
            if hit != op.cache_hit:
                tally.fail(op.label, "expected a cache %s" % ("hit" if op.cache_hit else "miss"))
    out["cli.cache_hits"] = hits
    out["trace.self_residual_s"] = residual
    return out


def traced(package, ops, tally, seconds, spans_path) -> tuple:
    """Pairs of (untraced, traced) rounds for `seconds`.  Each traced
    round's spans are appended to `spans_path` once the round has ended."""
    per_round = []
    overheads = []
    with open(spans_path, "w", encoding="ascii") as handle:
        handle.write("round,op,name,start,end,parent,size\n")
        for round_no in rounds_within(seconds):
            plain = run_round(ops, tally)
            tracer = spans.Tracer()
            tracer.install(package)
            try:
                records = run_round(ops, tally, tracer)
            finally:
                tracer.remove()
            per_round.append(layer_metrics(tracer, ops, records, tally))
            overheads.append(sum(r.seconds for r in records) - sum(r.seconds for r in plain))
            for name, start, end, parent, op, size in tracer.spans:
                handle.write("%d,%d,%s,%r,%r,%d,%d\n"
                             % (round_no, op, name, start, end, parent, size))
    metrics = {}
    consistent = True
    for name, unit, _ in PER_LAYER:
        values = [m.get(name) for m in per_round]
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif name == "trace.self_residual_s":
            value = max(values)
        elif name.endswith("_s"):
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                consistent = False
                print("count %s differs between traced rounds: %r" % (name, values),
                      file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, len(per_round), consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = load_package(root)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=out_dir)
    tally = Tally()
    try:
        cold = [] if args.trace else cold_starts(root, tally)
        ops, setup_ops = WORKLOADS[args.workload](package, random.Random(args.seed), workdir)
        for op in setup_ops:
            run_op(op, tally)
        print("workload %s, seed %d, %g s, trace %d: %d ops per round"
              % (args.workload, args.seed, args.seconds, args.trace, len(ops)))
        if args.trace:
            spans_path = os.path.join(out_dir, "spans-%s-%d.csv" % (args.workload, args.seed))
            metrics, rounds, consistent = traced(package, ops, tally, args.seconds, spans_path)
            print("%d untraced and %d traced rounds; spans in %s" % (rounds, rounds, spans_path))
            for name, m in metrics.items():
                print("%-50s %s %s" % (name, m["value"], m["unit"]))
        else:
            probe = SpeedProbe()
            samples, rounds = timed(ops, tally, args.seconds, probe)
            consistent = True
            print("%d rounds; wall times as measured:" % rounds)
            metric_names = list(dict.fromkeys(op.metric for op in ops))
            for name in metric_names + ["round_s"]:
                print(describe(name, samples.get(name, [])))
            print(describe("setup_s", cold))
            if not cold or any(name not in samples for name in metric_names + ["round_s"]):
                raise SystemExit("error: no op succeeded in a whole round; nothing to report")
            factor = probe.factor()
            print("speed probe: %d kernel samples took %.4f x the reference time; "
                  "round_s and op_geomean_s are the mean times divided by that"
                  % (len(probe.samples), factor))
            means = [statistics.fmean(samples[name]) for name in metric_names]
            metrics = {
                "setup_s": statistics.median(cold),
                "round_s": statistics.fmean(samples["round_s"]) / factor,
                "op_geomean_s": math.exp(sum(map(math.log, means)) / len(means)) / factor,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit, _ in END_TO_END}
            for name, m in metrics.items():
                print("%-30s %.4f %s" % (name, m["value"], m["unit"]))
        print("ops_failed_frac %.4f (%d of %d ops failed)"
              % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
