"""File artifacts: profile documents, CSV reports, run metadata.

All emitters are deterministic functions of their inputs (no timestamps,
no environment lookups), so a fixed seed yields byte-identical artifacts.
Rationals are written as exact fraction strings and floats as reprs, which
round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import io
import json

from .ascent import SolveReport
from .bestresponse import EquilibriumReport
from .evaluate import AllocationProfile, Evaluation
from .market import Market, load_json, require_array, require_bool, require_keys
from .mechanism import PricedMechanism
from .numeric import format_number, json_number, parse_number
from .stepfn import Jump, StepFunction


# -- profile files -----------------------------------------------------------
#
# JSON array with one object per period:
#   {"levels": [...], "jumps": [{"at": ..., "closed": bool}, ...]}

def profile_to_json(profile: AllocationProfile) -> str:
    doc = [
        {
            "levels": [json_number(lvl) for lvl in r.levels],
            "jumps": [{"at": json_number(j.at), "closed": j.closed} for j in r.jumps],
        }
        for r in profile.steps
    ]
    return json.dumps(doc, indent=2) + "\n"


def profile_from_json(text: str, mode: str) -> AllocationProfile:
    steps = []
    for t, entry in enumerate(require_array(load_json(text), "profile")):
        where = f"profile period {t + 1}"
        require_keys(entry, where, ("levels", "jumps"))
        levels = [parse_number(x, mode) for x in require_array(entry["levels"], f"{where} levels")]
        jumps = []
        for j in require_array(entry["jumps"], f"{where} jumps"):
            require_keys(j, f"{where} jump", ("at", "closed"))
            jumps.append(Jump(parse_number(j["at"], mode), require_bool(j["closed"], f"{where} jump closed")))
        steps.append(StepFunction(levels, jumps))
    return AllocationProfile(tuple(steps))


# -- CSV emitters ------------------------------------------------------------

def _write_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if x is None else format_number(x) if not isinstance(x, str) else x for x in row])
    return buf.getvalue()


def evaluation_csv(evaluation: Evaluation) -> str:
    """One row per atom and period: the formula layer's tables as they stand."""
    ev, m = evaluation, evaluation.market
    return _write_csv(
        ("t", "v", "fstar", "r", "U", "p", "cashflow"),
        (
            (t + 1, v, ev.fstar[t][i], ev.r_at[t][i], ev.u_at[t][i], ev.payments[t][i],
             m.discounts.lambda_s[t] * ev.payments[t][i] * ev.fstar[t][i])
            for t in range(m.T)
            for i, v in enumerate(m.atoms)
        ),
    )


def verification_csv(market: Market, report: EquilibriumReport) -> str:
    return _write_csv(
        ("t", "v", "action", "utility", "icSlack"),
        (
            (t + 1, v, report.plan[t][i], report.utility[t][i], report.ic_slack[t][i])
            for t in range(market.T)
            for i, v in enumerate(market.atoms)
        ),
    )


def price_path_csv(mech: PricedMechanism) -> str:
    return _write_csv(
        ("t", "pHigh", "perWinnerPrice", "lotteryQuantity"),
        (
            (t + 1, menu.p_high, menu.per_winner_price, menu.lottery_quantity)
            for t, menu in enumerate(mech.periods)
        ),
    )


def solve_metadata(report: SolveReport, *, starts_requested: int, mode: str) -> str:
    """Run-metadata text block: everything needed to reproduce the run."""
    lines = [
        f"mode: {mode}",
        f"seed: {report.seed}",
        f"tol: {format_number(report.tol)}",
        f"starts: {starts_requested}",
        f"revenue: {format_number(report.revenue)}",
        f"inventory_used: {format_number(report.inventory_used)}",
        f"binding: {report.binding}",
        f"sweeps: {report.sweeps}",
        f"converged: {report.converged}",
    ]
    for rec in report.starts:
        lines.append(
            f"start {rec.label}: revenue={format_number(rec.revenue)} "
            f"sweeps={rec.sweeps} converged={rec.converged}"
        )
    return "\n".join(lines) + "\n"
