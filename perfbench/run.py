"""Benchmark for the ``mesolabe`` command line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload deep-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one fresh process each

The load is a closed loop: one caller in one thread calls
``mesolabe.cli.main(argv)`` in-process with stdout captured, and starts the
next op only when the previous one has returned.  A run executes whole
rounds over the workload's op pool (see ``workloads.py``) until ``--seconds``
have passed.  Every op's output is checked by ``checks.py``.

An op's latency is the fastest of its executions in the run.  The program
keeps no state between calls, so every execution does the same work, and
other tenants of the machine can only add time to it; on a shared virtual
machine that drifts by tens of percent over minutes, the fastest execution
is what repeats from run to run.

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
runs the same rounds untraced, then traced, then the first round traced
again, and reports per-layer metrics from the spans; the count metrics of the
two traced copies of the first round, and of any earlier run with the same
seed and the same code, must be identical.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Cold starts per untraced run, spread evenly over it; set-up time is their median.
COLD_STARTS = 15
#: Share of ``--seconds`` the untraced pass of a traced run may take; the traced
#: copy of the same ops takes about as long again.
TRACE_SHARE = 0.4
#: Percentiles above the median are reported only from at least this many ops.
P90_MIN_OPS = 100

#: End-to-end metrics every ``--trace 0`` run reports: (name, unit).
END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_mean", "ms"),
              ("op_ms_geomean", "ms"), ("peak_rss_mb", "MB"))

_COLD_START = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mesolabe.cli import main; sys.exit(main(sys.argv[2:]))"
)


@dataclass
class OpRecord:
    """One execution of the pool op at ``index`` in round ``round``."""

    op: workloads.Op
    index: int
    round: int
    seconds: float
    error: str | None
    instances: int = 0


def run_pass(workload: str, seed: int, seconds: float | None = None, rounds: int | None = None,
             recorder: spans.SpanRecorder | None = None, first_id: int = 0,
             checker: checks.OutputChecker | None = None,
             setup: list[float] | None = None) -> list[OpRecord]:
    """Run whole rounds over the pool until ``seconds`` have passed, or exactly ``rounds``.

    Given a ``setup`` list, the pass also makes ``COLD_STARTS`` cold starts
    between its ops, evenly spread over ``seconds``, and appends their times.
    A few seconds of host drift then move only a few of them.
    """
    from mesolabe import cli

    checker = checker or checks.OutputChecker()
    ops = workloads.pool(workload, seed)
    records: list[OpRecord] = []
    began = time.perf_counter()
    k = 0
    while True:
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = first_id + len(records)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(op.argv))
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            text = out.getvalue()
            error = error or checker.check(op, rc, text)
            if error and err.getvalue():
                error += f" ({err.getvalue().strip()})"
            instances = 0
            if op.kind == "check-props" and not error:
                instances = checks.checker_instances(text)
            records.append(OpRecord(op, index, k, elapsed, error, instances))
            while (setup is not None and len(setup) < COLD_STARTS
                   and time.perf_counter() - began >= len(setup) * seconds / COLD_STARTS):
                setup.append(cold_start_seconds(workload, seed))
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
        elif time.perf_counter() - began >= seconds:
            break
    while setup is not None and len(setup) < COLD_STARTS:
        setup.append(cold_start_seconds(workload, seed))
    return records


def cold_start_seconds(workload: str, seed: int) -> float:
    """Wall time from interpreter start to ``mesolabe.cli`` imported and one op done."""
    op = workloads.pool(workload, seed)[0]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(SRC), *op.argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.decode(errors='replace').strip()}")
    return elapsed


def best_seconds(records: list[OpRecord]) -> dict[int, OpRecord]:
    """The fastest execution of each pool op."""
    best: dict[int, OpRecord] = {}
    for r in records:
        if r.index not in best or r.seconds < best[r.index].seconds:
            best[r.index] = r
    return best


def _median_ms(records) -> float:
    return statistics.median(r.seconds * 1e3 for r in records)


def end_to_end(workload: str, records: list[OpRecord], setup: list[float]) -> dict[str, dict]:
    """Every end-to-end number of one untraced pass, with unit and sample count.

    Latencies are per pool op, each its fastest execution.  The median sees
    only the middle ops of the pool; the mean is dominated by its slowest ops
    and the geometric mean moves by the same share for any op that slows.
    ``ops_per_s`` and ``instances_per_s`` count every execution against the
    time the calls took, which leaves out only the benchmark's own output checks.
    """
    best = list(best_seconds(records).values())
    n = len(best)
    busy_s = sum(r.seconds for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for r in records if r.error)
    rows = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_ms_p50": (_median_ms(best), "ms", n),
        "op_ms_mean": (statistics.fmean(r.seconds * 1e3 for r in best), "ms", n),
        "op_ms_geomean": (statistics.geometric_mean(r.seconds * 1e3 for r in best), "ms", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ops_per_s": (len(records) / busy_s, "1/s", len(records)),
        "error_rate": (failed / len(records), "1", len(records)),
    }
    if n >= P90_MIN_OPS:
        rows["op_ms_p90"] = (statistics.quantiles([r.seconds * 1e3 for r in best], n=10)[8],
                             "ms", n)
    if workload == "deep-solve":
        by_digits = {d: [r for r in best if r.op.digits == d] for d in (300, 1000)}
        lo, hi = (_median_ms(by_digits[d]) for d in (300, 1000))
        rows["op_ms_p50.d300"] = (lo, "ms", len(by_digits[300]))
        rows["op_ms_p50.d1000"] = (hi, "ms", len(by_digits[1000]))
        rows["digits_growth_exponent"] = (math.log(hi / lo) / math.log(1000 / 300), "1", n)
    if workload == "oracle-suite":
        rows["instances_per_s"] = (sum(r.instances for r in records) / busy_s, "1/s",
                                   len(records))
    return {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in rows.items()}


def _code_hash() -> str:
    """Digest of the program and benchmark sources; count records are keyed by it."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD of the checkout; None where it is no git repository or git is missing."""
    # The ceiling keeps git from taking up a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, records: list[OpRecord]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": _git_commit(),
        "code_hash": _code_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_digits": dict(sorted(Counter(r.op.digits for r in records).items())),
    }


def _failures(records: list[OpRecord]) -> list[str]:
    return [f"{' '.join(r.op.argv)}: {r.error}" for r in records if r.error]


def measure(args) -> tuple[dict, list[OpRecord], list[str]]:
    """One untraced run: the timed loop, with the cold starts for set-up time between its ops."""
    setup: list[float] = []
    records = run_pass(args.workload, args.seed, seconds=args.seconds, setup=setup)
    report = end_to_end(args.workload, records, setup)
    metrics = {name: {"value": report[name]["value"], "unit": unit} for name, unit in END_TO_END}
    return {"report": report, "metrics": metrics}, records, []


def _window_counts(recorder: spans.SpanRecorder, window: set[int]) -> Counter:
    return Counter(s[0] for s in recorder.spans if s[4] in window)


def measure_traced(args) -> tuple[dict, list[OpRecord], list[str]]:
    """Untraced pass, traced pass over the same rounds, traced repeat of the first round."""
    checker = checks.OutputChecker()  # shared, so traced figures must match untraced bytes
    plain = run_pass(args.workload, args.seed, seconds=args.seconds * TRACE_SHARE,
                     checker=checker)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        traced = run_pass(args.workload, args.seed, rounds=plain[-1].round + 1,
                          recorder=recorder, checker=checker)
        repeat = run_pass(args.workload, args.seed, rounds=1, recorder=recorder,
                          first_id=len(traced), checker=checker)
    finally:
        recorder.uninstall()
    problems = []
    window = {i for i, r in enumerate(traced) if r.round == 0}
    again = {len(traced) + i for i in range(len(repeat))}
    if _window_counts(recorder, window) != _window_counts(recorder, again):
        problems.append("span counts of the first round differ between two traced passes")

    ops = traced + repeat
    work_digits = {i: r.op.digits + workloads.DEFAULT_GUARD for i, r in enumerate(ops)}
    plain_ms = _median_ms(best_seconds(plain).values())
    traced_ms = _median_ms(best_seconds(traced).values())
    values = spans.layer_metrics(recorder.spans, work_digits, window)
    values["trace.overhead_ms"] = traced_ms - plain_ms
    counts = {name: values[name] for name, unit in spans.PER_LAYER if unit in spans.COUNT_UNITS}
    problems += _check_counts_repeat(args, counts)

    OUT.mkdir(exist_ok=True)
    recorder.dump(OUT / f"{args.workload}-s{args.seed}.spans.jsonl")
    units = dict(spans.PER_LAYER)
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in spans.PER_LAYER}
    report = {
        "op_ms_p50.untraced": {"value": plain_ms, "unit": "ms", "samples": len(plain)},
        "op_ms_p50.traced": {"value": traced_ms, "unit": "ms", "samples": len(traced)},
        "spans": {"value": len(recorder.spans), "unit": "count", "samples": len(ops)},
        "count_window_ops": {"value": len(window), "unit": "ops", "samples": len(window)},
    }
    return {"report": report, "metrics": metrics}, plain + ops, problems


def _check_counts_repeat(args, counts: dict[str, float]) -> list[str]:
    """Compare count metrics with an earlier run of the same seed and code, if any."""
    path = OUT / "counts" / f"{args.workload}-s{args.seed}-{_code_hash()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        return [f"count metric {k} was {earlier[k]}, now {v}"
                for k, v in counts.items() if earlier.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


def _print_report(env: dict, report: dict, metrics: dict, problems: list[str]) -> None:
    print(f"mesolabe benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"trace {env['trace']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, row in {**report, **{k: v for k, v in metrics.items() if k not in report}}.items():
        samples = f"  (n={row['samples']})" if "samples" in row else ""
        print(f"  {name:<40} {row['value']:>14.6g} {row['unit']}{samples}")
    for problem in problems:
        print(f"FAILED: {problem}")


def run_one(args) -> int:
    os.environ.pop("MESOLABE_DIGITS", None)
    os.environ.pop("MESOLABE_GUARD", None)
    sys.path.insert(0, str(SRC))
    measured, records, problems = (measure_traced if args.trace else measure)(args)
    problems = _failures(records)[:20] + problems
    env = environment(args, records)
    failed = sum(1 for r in records if r.error)
    correct = failed == 0 and not problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
        {"environment": env, "correct": correct, "attempted": len(records), "failed": failed,
         "report": measured["report"], "metrics": measured["metrics"],
         "op_digits": [r.op.digits for r in records], "problems": problems}, indent=1))
    _print_report(env, measured["report"], measured["metrics"], problems)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": measured["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so set-up time and memory are its own."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if results[name] is None:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload; all of them, each in its own process, if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
