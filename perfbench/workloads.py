"""Seeded inputs and fixed job lists for the four benchmark workloads.

Each builder writes market files (and, for ``eval-verify``, the profile and
mechanism files the program itself produces during set-up) into a work
directory and returns the job list of one pass. The program only ever sees
these files; the same seed gives byte-identical inputs.

A job is one market, or one file set, through its listed subcommands.

Why these workloads:

* ``solve-float``: float ascent, where the coordinate-model build
  (evaluator probing) is most of the time.
* ``solve-exact``: the same ascent in exact rational arithmetic, on the demo
  markets and on small markets with general lambdas and tied deltas; a
  float-only speedup that costs exact mode shows here, and it is where
  byte-identical artifacts are checked.
* ``oracle-audit``: the numpy grid oracle then a short solve, in float
  mode; ascent is small here, so ascent changes should not move it.
* ``eval-verify``: many short ``eval`` / ``verify`` jobs, the only workload
  where parsing, menu extraction, best responses, reports and boundary
  evaluations carry the time.

Every job takes about 0.2 s or less, and each workload has enough of them
that the sum over a pass varies little from seed to seed: the benchmark
times each job at its fastest of many passes, which only works for short
jobs (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from dynration import cli

# The default grid (0, 1/4, ..., 1) has 2.0M candidates at T = 3, n = 2 and
# takes over a second; four levels keep the numpy kernel but not the wait.
ORACLE_LEVELS = "0,1/3,2/3,1"
DELTA_POOL = [Fraction(1), Fraction(19, 20), Fraction(9, 10), Fraction(5, 6), Fraction(3, 4), Fraction(2, 3)]


@dataclass
class Job:
    id: str
    kind: str                  # solve | oracle | eval | verify-profile | verify-menu
    mode: str
    market: Path
    out: Path
    commands: list             # argv lists for dynration.cli.main
    profile: Path | None = None
    setup_failure: str | None = None   # the set-up solve this job needs failed


def _nonincreasing(rng, T):
    return sorted((rng.choice(DELTA_POOL) for _ in range(T)), reverse=True)


def market_doc(rng: random.Random, T: int, n: int, *, bounded: bool, general_lambda=False, tied_delta=False):
    """Random market: atoms on k/40, masses on k/4, inventory half the mass."""
    atoms = sorted(Fraction(k, 40) for k in rng.sample(range(1, 41), n))
    mass = [[Fraction(rng.randint(0, 4), 4) for _ in range(n)] for _ in range(T)]
    if not any(x for row in mass for x in row):
        mass[0][-1] = Fraction(1)
    delta = _nonincreasing(rng, T)
    if tied_delta and T >= 2:
        i = rng.randrange(T - 1)
        delta[i + 1] = delta[i]
    doc = {
        "T": T,
        "atoms": [str(a) for a in atoms],
        "mass": [[str(x) for x in row] for row in mass],
        "inventory": str(sum(map(sum, mass)) / 2) if bounded else "inf",
        "delta": [str(d) for d in delta],
    }
    if general_lambda:
        doc["lambdaS"] = [str(x) for x in _nonincreasing(rng, T)]
        doc["lambdaB"] = [str(x) for x in _nonincreasing(rng, T)]
    return doc


def _write_market(work: Path, name: str, doc) -> Path:
    path = work / "markets" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _solve_job(work, jid, market, mode, starts):
    out = work / "out" / jid
    argv = ["solve", str(market), "--mode", mode, "--out", str(out)]
    if starts is not None:
        argv += ["--starts", str(starts)]
    return Job(jid, "solve", mode, market, out, [argv])


def solve_float(seed: int, work: Path, root: Path) -> list[Job]:
    """32 float T = n = 5 markets, three in four bounded, --starts 0."""
    rng = random.Random(seed)
    jobs = []
    for k in range(32):
        doc = market_doc(rng, 5, 5, bounded=k % 4 != 3)
        market = _write_market(work, f"f5-{k:02d}", doc)
        jobs.append(_solve_job(work, market.stem, market, "float", 0))
    return jobs


def solve_exact(seed: int, work: Path, root: Path) -> list[Job]:
    """The demo markets, plus twelve rational T = n = 3 markets (three in
    four bounded) with general lambdas and a tied delta, all at --starts 0."""
    jobs = [
        _solve_job(work, market.stem, market, "rational", 0)
        for market in sorted((root / "demos" / "markets").glob("*.json"))
    ]
    rng = random.Random(seed)
    for k in range(12):
        doc = market_doc(rng, 3, 3, bounded=k % 4 != 3, general_lambda=True, tied_delta=True)
        market = _write_market(work, f"r3-{k:02d}", doc)
        jobs.append(_solve_job(work, market.stem, market, "rational", 0))
    return jobs


def oracle_audit(seed: int, work: Path, root: Path) -> list[Job]:
    """Sixteen T = 3, n = 2 markets (half bounded), in float mode: oracle on
    the four-level grid (175,616 candidates), then solve --starts 0.

    Float mode, because a rational oracle re-evaluates up to 512 float
    near-ties exactly, which makes its time swing fivefold from market to
    market; the float search is the numpy kernel alone."""
    rng = random.Random(seed)
    jobs = []
    for k in range(16):
        market = _write_market(work, f"o3-{k:02d}", market_doc(rng, 3, 2, bounded=k % 2 == 0))
        out = work / "out" / market.stem
        commands = [
            ["oracle", str(market), "--mode", "float", "--levels", ORACLE_LEVELS, "--out", str(out)],
            ["solve", str(market), "--mode", "float", "--starts", "0", "--out", str(out)],
        ]
        jobs.append(Job(market.stem, "oracle", "float", market, out, commands))
    return jobs


def eval_verify(seed: int, work: Path, root: Path) -> list[Job]:
    """Twelve float 8 x 8 and two rational 6 x 6 file sets, solved during
    set-up with ``--starts 0 --sweeps 1``; per file set one ``eval``, one
    ``verify --profile`` and one menu-only ``verify``. A set whose set-up
    solve failed makes its three jobs fail."""
    rng = random.Random(seed)
    specs = [("f8", 8, "float")] * 12 + [("r6", 6, "rational")] * 2
    jobs = []
    for k, (tag, size, mode) in enumerate(specs):
        market = _write_market(work, f"{tag}-{k:02d}", market_doc(rng, size, size, bounded=k % 4 != 3))
        setdir = work / "sets" / market.stem
        argv = ["solve", str(market), "--mode", mode, "--starts", "0", "--sweeps", "1", "--out", str(setdir)]
        code, _, stderr, error = call(argv)
        failure = error or (f"set-up solve exit {code}: {stderr.strip()[:200]}" if code != 0 else None)
        profile = setdir / f"{market.stem}.profile.json"
        mechanism = setdir / f"{market.stem}.mechanism.json"
        variants = [
            ("eval", ["eval", str(market), str(profile)]),
            ("verify-profile", ["verify", str(market), str(mechanism), "--profile", str(profile)]),
            ("verify-menu", ["verify", str(market), str(mechanism)]),
        ]
        for kind, argv in variants:
            jid = f"{market.stem}.{kind}"
            out = work / "out" / jid
            argv = argv + ["--mode", mode, "--out", str(out)]
            jobs.append(Job(jid, kind, mode, market, out, [argv], profile=profile, setup_failure=failure))
    return jobs


def call(argv):
    """One in-process ``dynration`` invocation: (code, stdout, stderr, error).

    ``cli.main`` is looked up at call time so that a traced run sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a job failure, never a benchmark crash
            error = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), error


WORKLOADS = {
    "solve-float": solve_float,
    "solve-exact": solve_exact,
    "oracle-audit": oracle_audit,
    "eval-verify": eval_verify,
}
