"""Command-line front end.

Subcommands:
  solve    market file -> solver report, mechanism file, CSV artifacts
  eval     market + profile file -> formula-layer CSV report
  verify   market + mechanism (+ profile) -> equilibrium report; exit 0 iff pass
  oracle   market -> brute-force grid optimum + profile file
  compare  market -> anonymous optimum vs posted-prices-only vs non-anonymous

Exit codes: 0 success, 1 verification failure, 2 parse or validation error.
All randomness is seeded and recorded in the run metadata; fixed seeds give
byte-identical artifacts.

Artifacts are rewritten in place (:func:`_write_artifact`): a re-run into
the same directory overwrites each file's bytes and then cuts it to the new
length, instead of first truncating it to zero as ``Path.write_text`` does.
On ext4 that truncation is most of the cost of rewriting a small file, and
closing a file truncated to zero also starts its writeback at once.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import report as report_mod
from .ascent import coordinate_ascent
from .bestresponse import VerificationResult, best_response, menu_violations, verify
from .evaluate import evaluate
from .market import MarketError, ParseError, parse_market
from .mechanism import extract, mechanism_from_json, mechanism_to_json
from .numeric import FLOAT, RATIONAL, format_number, parse_number
from .oracle import OracleGrid, brute_force_optimal, non_anonymous_benchmark


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL, help="arithmetic backend")
    common.add_argument("--tol", type=float, default=None, help="comparison tolerance (mode default if omitted)")
    common.add_argument("--out", type=Path, default=None, help="directory for artifacts (default: alongside input)")

    parser = argparse.ArgumentParser(prog="dynration", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[common], help="optimize a market and extract its menu")
    solve.add_argument("market", type=Path)
    solve.add_argument("--starts", type=int, default=16, help="random restarts beyond zero/one starts")
    solve.add_argument("--sweeps", type=int, default=40, help="max coordinate sweeps per start")
    solve.add_argument("--seed", type=int, default=0)

    ev = sub.add_parser("eval", parents=[common], help="evaluate a profile file on a market")
    ev.add_argument("market", type=Path)
    ev.add_argument("profile", type=Path)

    ver = sub.add_parser("verify", parents=[common], help="best-response check of a mechanism file")
    ver.add_argument("market", type=Path)
    ver.add_argument("mechanism", type=Path)
    ver.add_argument("--profile", type=Path, default=None, help="allocation file for the round-trip check")

    orc = sub.add_parser("oracle", parents=[common], help="brute-force grid optimum")
    orc.add_argument("market", type=Path)
    orc.add_argument("--levels", type=str, default=None, help="comma-separated level grid, e.g. 0,1/2,1")

    cmp_ = sub.add_parser("compare", parents=[common], help="anonymous vs posted-only vs non-anonymous revenue")
    cmp_.add_argument("market", type=Path)
    cmp_.add_argument("--starts", type=int, default=16)
    cmp_.add_argument("--seed", type=int, default=0)
    return parser


def _tol(args, market):
    if args.tol is not None:
        return parse_number(repr(args.tol), market.mode)
    return None


def _outdir(args, market_path: Path) -> Path:
    out = args.out if args.out is not None else market_path.parent
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_artifact(path: Path, text: str):
    """Write ``text`` to ``path`` as ``Path.write_text`` does, in place.

    The file is opened write-only without ``O_TRUNC``, overwritten from its
    start and then truncated to the new length, so a shorter text leaves no
    stale tail. A new file gets ``write_text``'s mode bits (0o666 less the
    umask); the bytes, encoding and newline handling are also its own.

    Neither this nor ``write_text`` calls ``fsync``. A process stopped part
    way leaves as much of the new text as was written, followed by the rest
    of the old file. After a power loss or system crash, the file can have
    the old or the new length with old, new or mixed bytes in each block,
    which may still parse. On ext4, closing a file truncated to zero starts
    its writeback at once (``auto_da_alloc``); an in-place rewrite skips
    that too. Either way re-running the command restores the file.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


def _load_market(args):
    return parse_market(args.market.read_text(encoding="utf-8"), args.mode)


def _bad_number(args):
    """Why a numeric option is out of range, or None."""
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        return f"--tol must be a finite number >= 0, got {args.tol}"
    if getattr(args, "starts", 0) < 0:
        return f"--starts must be >= 0, got {args.starts}"
    if getattr(args, "sweeps", 1) < 1:
        return f"--sweeps must be >= 1, got {args.sweeps}"
    return None


def _verdict(result: VerificationResult) -> int:
    """Print pass to stdout, or FAILED and the violations to stderr; the exit code."""
    if result.passed:
        print("verification: pass")
        return 0
    print("verification FAILED:", file=sys.stderr)
    for v in result.violations:
        print(f"  {v}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    problem = _bad_number(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        market = _load_market(args)
    except (OSError, ParseError, MarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args, market)
    except (ParseError, MarketError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, market) -> int:
    stem = args.market.stem
    if args.command == "solve":
        out = _outdir(args, args.market)
        report = coordinate_ascent(
            market, starts=args.starts, max_sweeps=args.sweeps, tol=_tol(args, market), seed=args.seed
        )
        ev = evaluate(market, report.profile)
        mech = extract(market, report.profile, ev)
        result = verify(market, report.profile, mech, tol=_tol(args, market), evaluation=ev)
        _write_artifact(out / f"{stem}.profile.json", report_mod.profile_to_json(report.profile))
        _write_artifact(out / f"{stem}.mechanism.json", mechanism_to_json(mech))
        _write_artifact(out / f"{stem}.report.csv", report_mod.evaluation_csv(ev))
        _write_artifact(out / f"{stem}.prices.csv", report_mod.price_path_csv(mech))
        _write_artifact(
            out / f"{stem}.run.txt", report_mod.solve_metadata(report, starts_requested=args.starts, mode=args.mode)
        )
        print(f"revenue: {format_number(report.revenue)}")
        print(f"inventory_used: {format_number(report.inventory_used)}")
        print(f"binding: {report.binding}")
        for t, menu in enumerate(mech.periods):
            bits = [f"t={t + 1}", menu.mode]
            if menu.has_posted:
                bits.append(f"pHigh={format_number(menu.p_high)}")
            if menu.has_lottery:
                bits.append(
                    f"perWinner={format_number(menu.per_winner_price)}"
                    f" prob={format_number(menu.service_prob)}"
                    f" quantity={format_number(menu.lottery_quantity)}"
                )
            print("  " + " ".join(bits))
        return _verdict(result)

    if args.command == "eval":
        out = _outdir(args, args.market)
        profile = report_mod.profile_from_json(args.profile.read_text(encoding="utf-8"), market.mode)
        ev = evaluate(market, profile)
        _write_artifact(out / f"{stem}.report.csv", report_mod.evaluation_csv(ev))
        print(f"revenue: {format_number(ev.revenue)}")
        print(f"inventory_used: {format_number(ev.inventory_used)}")
        print(f"welfare: {format_number(ev.welfare)}")
        if ev.negative_payments:
            print(f"warning: {len(ev.negative_payments)} negative payments flagged", file=sys.stderr)
        return 0

    if args.command == "verify":
        out = _outdir(args, args.market)
        mech = mechanism_from_json(args.mechanism.read_text(encoding="utf-8"), market.mode)
        if args.profile is not None:
            profile = report_mod.profile_from_json(args.profile.read_text(encoding="utf-8"), market.mode)
            result = verify(market, profile, mech, tol=_tol(args, market))
        else:
            rep = best_response(market, mech, tol=_tol(args, market))
            result = VerificationResult(menu_violations(market, rep, tol=_tol(args, market)), rep)
        rep = result.report
        _write_artifact(out / f"{stem}.equilibrium.csv", report_mod.verification_csv(market, rep))
        print(f"realized_revenue: {format_number(rep.realized_revenue)}")
        print(f"realized_sales: {format_number(rep.realized_sales)}")
        return _verdict(result)

    if args.command == "oracle":
        grid = OracleGrid(levels=tuple(args.levels.split(","))) if args.levels is not None else OracleGrid()
        res = brute_force_optimal(market, grid)
        out = _outdir(args, args.market)
        _write_artifact(out / f"{stem}.oracle.profile.json", report_mod.profile_to_json(res.profile))
        print(f"oracle_revenue: {format_number(res.revenue)}")
        print(f"candidates: {res.candidates}")
        return 0

    if args.command == "compare":
        # the oracle first: an oversized market fails before the ascent
        posted = brute_force_optimal(market, OracleGrid(levels=("0", "1")))
        report = coordinate_ascent(market, starts=args.starts, tol=_tol(args, market), seed=args.seed)
        d = market.discounts
        kappa = [d.lambda_s[t] / d.lambda_b[t] for t in range(market.T)]
        if not market.inventory_never_binds:
            benchmark = "n/a (finite inventory)"
        elif any(b > a for a, b in zip(kappa, kappa[1:])):
            # a cohort may earn more by screening over time, so the
            # benchmark is no bound
            benchmark = "n/a (lambdaS/lambdaB rises)"
        else:
            benchmark = format_number(non_anonymous_benchmark(market))
        rows = [
            ("anonymous optimum (solver)", format_number(report.revenue)),
            ("posted prices only (oracle, levels {0,1})", format_number(posted.revenue)),
            ("non-anonymous benchmark", benchmark),
        ]
        width = max(len(r[0]) for r in rows)
        for name, shown in rows:
            print(f"{name:<{width}}  {shown}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
