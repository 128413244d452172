"""Benchmark of the dynration command line, run in-process.

    python3 perfbench/run.py --workload solve-float --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread (BLAS/OpenMP pinned to 1). The run sets up
three times (``setup_s`` is the median of: import the package in a fresh
interpreter, then write the workload's inputs), then repeats passes over the
workload's fixed job list for about ``--seconds`` (at least one pass),
checks every output outside the timed region, and prints a metric table
followed by one JSON line.

Each job is timed at its fastest run of the run's passes; ``job_mean_s``
and ``job_p50_s`` are the mean and median of those times. On a shared host
a job is slowed by other tenants for most of its runs, and the fastest of
many runs of a short job is the time that repeats from one run of the
benchmark to the next. The host's speed itself also drifts for minutes at a
time, so the gated times, ``job_mean_ref_s``, ``job_p50_ref_s`` and
``setup_s``, are rescaled to the reference machine's speed by a calibration
kernel (``calibrate.py``) timed between the jobs, and between the set-ups
for ``setup_s``; the raw times are printed too.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
passes for half the time, then wraps every layer binding and runs traced
passes for the other half, and reports the per-layer metrics (per pass).
Per-job records go to ``.bench_out/<workload>-seed<n>-trace<t>.jobs.jsonl``;
with seed 0 they are also compared with ``perfbench/reference/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from calibrate import Calibration

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
# Set up at least three times and until two seconds have passed (at most
# nine times); setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 9, 2.0
# Calibration kernel runs before each set-up.
SETUP_CALIBRATIONS = 4
REFERENCE_SEED = 0
# Set-up time includes importing the package in a fresh interpreter.
IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import dynration.cli"


def _import_program():
    """Import dynration from this checkout's ``src/``; exit non-zero without it."""
    src = ROOT / "src"
    if not (src / "dynration" / "cli.py").is_file():
        sys.exit(f"error: {src / 'dynration'} not found; run from the root of a dynration checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import dynration.cli

    if Path(dynration.cli.__file__).resolve().parent != (src / "dynration").resolve():
        sys.exit(f"error: imported dynration from {dynration.cli.__file__}, not {src}")


def run_job(job):
    """Time one job; returns (seconds or None, outputs, runtime failure)."""
    from workloads import call

    if job.setup_failure:
        return None, [], job.setup_failure
    outputs = []
    start = perf_counter()
    for argv in job.commands:
        outputs.append(call(argv))
    elapsed = perf_counter() - start
    failure = None
    for (code, stdout, stderr, error), argv in zip(outputs, job.commands):
        if error:
            failure = f"{argv[0]} {error}"
        elif code != 0:
            first = stderr.strip().splitlines()
            failure = f"{argv[0]} exit {code}: {' | '.join(first[:2])}"
        elif argv[0] in ("solve", "verify") and "verification: pass" not in stdout.splitlines():
            failure = f"{argv[0]} printed no 'verification: pass'"
        if failure:
            break
    return elapsed, outputs, failure


@dataclass
class JobLog:
    """Every run of one job: its times, and the outputs of its first run.

    Later runs are compared with the first as they finish and then dropped,
    so memory does not grow with the number of passes.
    """

    times: list = field(default_factory=list)
    outputs: list | None = None
    failure: str | None = None
    differs: bool = False

    def add(self, elapsed, outputs, failure):
        if elapsed is not None:
            self.times.append(elapsed)
        if self.outputs is None:
            self.outputs, self.failure = outputs, failure
        elif [o[:2] for o in outputs] != [o[:2] for o in self.outputs]:
            self.differs = True


@dataclass
class Measurement:
    logs: list                 # one JobLog per job, over every pass
    passes: list               # wall time of each (traced, if tracing) pass
    untraced: list | None = None   # traced runs: wall time of each untraced pass
    tracer: object = None
    traced_from: list | None = None  # traced runs: per job, index of its first traced time
    cal: Calibration | None = None

    def traced_job_s(self):
        """Job time per traced pass, calibration runs left out (traced runs)."""
        return sum(sum(log.times[k:]) for log, k in zip(self.logs, self.traced_from)) / len(self.passes)

    def best_pass(self, traced):
        """Sum over jobs of the fastest untraced or traced run (traced runs)."""
        return sum(
            min(log.times[k:] if traced else log.times[:k])
            for log, k in zip(self.logs, self.traced_from)
            if 0 < k < len(log.times)
        )


def run_passes(jobs, budget, logs, cal):
    """Passes over the job list until the next one would overrun ``budget``;
    returns the wall time of each pass (calibration included)."""
    passes = []
    start = perf_counter()
    while True:
        p0 = perf_counter()
        for job, log in zip(jobs, logs):
            log.add(*run_job(job))
            cal.maybe_sample()
        passes.append(perf_counter() - p0)
        if perf_counter() - start + passes[-1] > budget:
            return passes


def measure(jobs, seconds, traced):
    """Timed passes; traced runs first time untraced passes for half the time."""
    import tracing

    cal = Calibration()
    logs = [JobLog() for _ in jobs]
    if not traced:
        return Measurement(logs, run_passes(jobs, seconds, logs, cal), cal=cal)
    untraced = run_passes(jobs, seconds / 2, logs, cal)
    traced_from = [len(log.times) for log in logs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run_passes(jobs, seconds / 2, logs, cal)
    finally:
        tracer.uninstall()
    return Measurement(logs, passes, untraced, tracer, traced_from, cal)


# -- output checks (outside the timed region) ---------------------------------

def _printed(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line.split(": ", 1)[1].strip()
    return None


def _scalar(text, mode):
    return Fraction(text) if mode == "rational" else float(text)


def _same(a, b, mode):
    if mode == "rational":
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _evaluated_revenue(job, profile_path):
    from dynration.evaluate import evaluate
    from dynration.market import parse_market
    from dynration.report import profile_from_json

    market = parse_market(job.market.read_text(), job.mode)
    profile = profile_from_json(profile_path.read_text(), job.mode)
    return evaluate(market, profile).revenue


def _sha256_tree(directory: Path, prefix=""):
    return {
        prefix + p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def check_job(job, log):
    """Record of one job from all its runs; ``wrong`` marks an output that
    the program produced but that is incorrect."""
    outputs, failure = log.outputs, log.failure
    record = {
        "job": job.id,
        "market": job.market.stem,
        "mode": job.mode,
        "commands": [argv[0] for argv in job.commands],
        "revenue": None,
        "oracle_revenue": None,
        "failure": failure,
        "time_s": min(log.times) if log.times else None,
    }
    wrong = []
    if log.differs:
        wrong.append("output differs between passes")
    if failure is None:
        by_cmd = {argv[0]: out for argv, out in zip(job.commands, outputs)}
        stem = job.market.stem
        checks = []  # (record key, printed text, profile file that must reproduce it)
        if "oracle" in by_cmd:
            checks.append(("oracle_revenue", _printed(by_cmd["oracle"][1], "oracle_revenue"),
                           job.out / f"{stem}.oracle.profile.json"))
        if "solve" in by_cmd:
            checks.append(("revenue", _printed(by_cmd["solve"][1], "revenue"), job.out / f"{stem}.profile.json"))
        elif job.kind == "eval":
            checks.append(("revenue", _printed(by_cmd["eval"][1], "revenue"), job.profile))
        elif job.kind == "verify-profile":
            checks.append(("revenue", _printed(by_cmd["verify"][1], "realized_revenue"), job.profile))
        for key, text, profile_path in checks:
            record[key] = text
            if text is None:
                wrong.append(f"no {key} printed")
                continue
            evaluated = _evaluated_revenue(job, profile_path)
            if not _same(_scalar(text, job.mode), evaluated, job.mode):
                wrong.append(f"{key} {text} but evaluate on the written profile gives {evaluated}")
        if job.mode == "rational":
            record["artifacts"] = _sha256_tree(job.out)
            if job.kind == "eval":
                record["artifacts"].update(_sha256_tree(job.profile.parent, "set-up/"))
    if wrong:
        record["failure"] = "; ".join(filter(None, [record["failure"], *wrong]))
    return record, wrong


def check_reference(workload, records):
    """Compare revenues and rational artifact hashes with the stored seed-0 run."""
    path = BENCH / "reference" / f"{workload}.jsonl"
    if not path.is_file():
        return [f"no reference file {path.relative_to(ROOT)}"]
    reference = {r["job"]: r for r in map(json.loads, path.read_text().splitlines())}
    problems = []
    if sorted(reference) != sorted(r["job"] for r in records):
        problems.append("job list differs from the reference")
    for rec in records:
        ref = reference.get(rec["job"])
        if ref is None or ref["failure"] or rec["failure"]:
            continue
        for key in ("revenue", "oracle_revenue"):
            if (ref[key] is None) != (rec[key] is None) or (
                ref[key] is not None
                and not _same(_scalar(ref[key], rec["mode"]), _scalar(rec[key], rec["mode"]), rec["mode"])
            ):
                problems.append(f"{rec['job']}: {key} {rec[key]} != reference {ref[key]}")
        mine, theirs = rec.get("artifacts") or {}, ref.get("artifacts") or {}
        changed = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
        if changed:
            problems.append(f"{rec['job']}: artifacts differ from reference: {changed}")
    return problems


# -- metrics ------------------------------------------------------------------

def end_to_end(m, records, setup_s, setup_factor):
    """(metrics in BENCHMARK.json, further metrics that are only printed)."""
    best = [min(log.times) for log in m.logs if log.times]
    factor = m.cal.factor()
    revenue_sum = sum(
        _scalar(rec["revenue"], rec["mode"])
        for rec in records
        if rec["commands"][-1] == "solve" and not rec["failure"]
    )
    shortfalls = []
    for rec in records:
        if rec["oracle_revenue"] is not None and not rec["failure"]:
            oracle = Fraction(rec["oracle_revenue"])
            ascent = Fraction(rec["revenue"])
            shortfalls.append(max(0, oracle - ascent) / oracle if oracle > 0 else 0)
    reported = {
        "setup_s": (setup_s * setup_factor, "s"),
        "job_mean_ref_s": (statistics.fmean(best) * factor, "s"),
        "job_p50_ref_s": (statistics.median(best) * factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "job_mean_s": (statistics.fmean(best), "s"),
        "job_p50_s": (statistics.median(best), "s"),
        "setup_raw_s": (setup_s, "s"),
        "speed_factor": (factor, "ratio"),
        "setup_speed_factor": (setup_factor, "ratio"),
        "calibrations": (len(m.cal.times), "count"),
        "wall_s": (sum(best), "s"),
        "jobs": (len(best), "count"),
        "passes": (len(m.passes), "count"),
        "pass_median_s": (statistics.median(m.passes), "s"),
        "failed_frac": (sum(1 for rec in records if rec["failure"]) / len(records), "ratio"),
        "revenue_sum": (float(revenue_sum), "revenue"),
    }
    if len(best) >= 40:
        extra["job_p90_s"] = (statistics.quantiles(best, n=10)[-1], "s")
    if shortfalls:
        extra["oracle_shortfall"] = (float(sum(shortfalls) / len(shortfalls)), "ratio")
    return reported, extra


BETTER = {
    "setup_s": "lower", "setup_raw_s": "lower", "wall_s": "lower", "job_mean_s": "lower", "job_p50_s": "lower",
    "job_mean_ref_s": "lower", "job_p50_ref_s": "lower", "job_p90_s": "lower", "pass_median_s": "lower",
    "peak_rss_mb": "lower", "failed_frac": "lower", "revenue_sum": "higher",
    "oracle_shortfall": "lower",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]

    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_cal = Calibration()
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            for _ in range(SETUP_CALIBRATIONS):
                setup_cal.sample()
            s0 = perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT, check=True)
            jobs = build(args.seed, work / f"setup-{len(setup_times)}", ROOT)
            setup_times.append(perf_counter() - s0)
        setup_s = statistics.median(setup_times)

        m = measure(jobs, args.seconds, args.trace)

        records, wrong = [], []
        for job, log in zip(jobs, m.logs):
            rec, bad = check_job(job, log)
            records.append(rec)
            wrong += [f"{job.id}: {b}" for b in bad]
        if args.seed == REFERENCE_SEED:
            wrong += check_reference(args.workload, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record_path = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.jobs.jsonl"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    reported, extra = end_to_end(m, records, setup_s, setup_cal.factor())
    # One operation is one job of the fixed list, whatever the number of
    # passes, so the counts depend on the seed only (a job whose output
    # differs between passes has failed).
    attempted = len(jobs)
    failed = sum(1 for rec in records if rec["failure"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(m.passes)}  jobs/pass {len(jobs)}")
    tracer = m.tracer
    if tracer is None:
        for name, (value, unit) in {**reported, **extra}.items():
            better = f"({BETTER[name]} is better)" if name in BETTER else ""
            print(f"  {name:<18} {value:>14.6g} {unit:<8} {better}")
    else:
        untraced_best, traced_best = m.best_pass(False), m.best_pass(True)
        traced_job_s = m.traced_job_s()
        reported = tracer.layer_metrics(len(m.passes), traced_job_s, traced_best / untraced_best - 1)
        print(f"  fastest pass: untraced {untraced_best:.4f} s, traced {traced_best:.4f} s; "
              f"job time per traced pass {traced_job_s:.4f} s")
        print(f"  {'function':<34} {'calls/pass':>11} {'s/pass':>10} {'self s':>10} {'ms/call':>9}")
        for name, calls, total, own in tracer.function_table(len(m.passes)):
            print(f"  {name:<34} {calls:>11.1f} {total:>10.4f} {own:>10.4f} {1000 * total / calls:>9.3f}")
        for name, (value, unit) in reported.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    for rec in records:
        if rec["failure"]:
            print(f"  FAILED {rec['job']}: {rec['failure'][:160]}")
    for problem in wrong:
        print(f"  WRONG {problem[:200]}")
    print(f"  correct: {not wrong}  attempted {attempted}  failed {failed}  records {record_path}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
