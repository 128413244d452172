"""Span tracing around the calls into each dynration layer.

Modules bind functions with ``from .x import f``, so a call made from
``cli`` goes through ``cli``'s own binding, not the defining module's.
``install`` therefore replaces every binding of a traced function in every
layer module; ``uninstall`` puts the originals back. Nothing is wrapped
until ``install`` is called, so untraced runs execute the program as is.

A span is (name, parent name, previous sibling name, duration, self time);
self time is the duration minus the time covered by traced child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

LAYERS = ("market", "stepfn", "evaluate", "ascent", "mechanism", "bestresponse", "oracle", "report", "cli")

TRACED = {
    "market": ("parse_market",),
    "stepfn": ("segment_refinement",),
    "evaluate": ("evaluate",),
    "ascent": ("build_coordinate_lp", "solve_coordinate", "coordinate_ascent"),
    "mechanism": ("extract", "mechanism_from_json", "mechanism_to_json"),
    "bestresponse": ("verify", "best_response"),
    "oracle": ("brute_force_optimal",),
    "report": (
        "profile_to_json",
        "profile_from_json",
        "evaluation_csv",
        "verification_csv",
        "price_path_csv",
        "solve_metadata",
    ),
    "cli": ("main",),
}


class Tracer:
    """Spans and per-binding call counts, kept in memory for one run."""

    def __init__(self):
        self.spans = []            # (name, parent, prev_sibling, dur, self_s)
        self.binding_calls = Counter()   # module:name -> calls through that binding
        self.solve_reports = []    # SolveReport of every coordinate_ascent
        self.oracle_results = []   # OracleResult of every brute_force_optimal
        self._stack = []           # [name, child_time, last_child]
        self._saved = []           # (module, attr, original)

    def _wrap(self, fn, name, binding):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[binding] += 1
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    self.spans.append((name, parent[0], parent[2], dur, dur - frame[1]))
                    parent[1] += dur
                    parent[2] = name
                else:
                    self.spans.append((name, None, None, dur, dur - frame[1]))
            if name == "ascent.coordinate_ascent":
                self.solve_reports.append(result)
            elif name == "oracle.brute_force_optimal":
                self.oracle_results.append(result)
            return result

        return traced

    def install(self):
        """Wrap every binding of a traced function in every layer module."""
        targets = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"dynration.{layer}")
            for fn_name in names:
                targets[id(getattr(module, fn_name))] = f"{layer}.{fn_name}"
        for layer in LAYERS:
            module = importlib.import_module(f"dynration.{layer}")
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets:
                    self._saved.append((module, attr, obj))
                    self.binding_calls[f"{layer}:{attr}"] = 0
                    setattr(module, attr, self._wrap(obj, targets[id(obj)], f"{layer}:{attr}"))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def bindings(self) -> list[str]:
        """Every wrapped binding, as ``module:name``."""
        return sorted(self.binding_calls)

    def _totals(self):
        """name -> [calls, total s, self s], for every traced function."""
        agg = {f"{layer}.{fn}": [0, 0.0, 0.0] for layer, names in TRACED.items() for fn in names}
        for name, _, _, dur, own in self.spans:
            row = agg[name]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return agg

    def layer_metrics(self, passes: int, pass_s: float, overhead: float) -> dict:
        """Per-layer metrics, per pass over the job list; ``pass_s`` is the
        job time per traced pass and ``overhead`` the tracing overhead."""
        agg = self._totals()
        calls = {name: row[0] for name, row in agg.items()}
        total = {name: row[1] for name, row in agg.items()}
        self_s = {name: row[2] for name, row in agg.items()}
        probe_n = probe_s = direct_n = direct_s = trials = reevals = 0
        for name, parent, prev, dur, _ in self.spans:
            if name != "evaluate.evaluate":
                continue
            if parent == "ascent.build_coordinate_lp":
                probe_n += 1
                probe_s += dur
                continue
            direct_n += 1
            direct_s += dur
            if parent == "ascent.coordinate_ascent" and prev == "ascent.solve_coordinate":
                trials += 1
            elif parent == "oracle.brute_force_optimal":
                reevals += 1
        lp_builds = calls["ascent.build_coordinate_lp"]
        rejected = sum(r.rejected_negative_payments for r in self.solve_reports)
        candidates = sum(r.candidates for r in self.oracle_results)
        oracle_s = total["oracle.brute_force_optimal"]
        per = 1.0 / passes
        return {
            "evaluate.probe.calls": (probe_n * per, "count"),
            "evaluate.probe.s": (probe_s * per, "s"),
            "ascent.build_coordinate_lp.calls": (lp_builds * per, "count"),
            "ascent.build_coordinate_lp.s": (total["ascent.build_coordinate_lp"] * per, "s"),
            "ascent.build_coordinate_lp.self_s": (self_s["ascent.build_coordinate_lp"] * per, "s"),
            "ascent.build_coordinate_lp.share": (total["ascent.build_coordinate_lp"] * per / pass_s, "ratio"),
            "ascent.probes_per_lp": (probe_n / lp_builds if lp_builds else 0.0, "ratio"),
            "ascent.solve_coordinate.calls": (calls["ascent.solve_coordinate"] * per, "count"),
            "ascent.solve_coordinate.s": (total["ascent.solve_coordinate"] * per, "s"),
            "ascent.coordinate_ascent.s": (total["ascent.coordinate_ascent"] * per, "s"),
            "ascent.sweeps": (sum(s.sweeps for r in self.solve_reports for s in r.starts) * per, "count"),
            "ascent.accept_frac": ((trials - rejected) / lp_builds if lp_builds else 0.0, "ratio"),
            "oracle.brute_force_optimal.calls": (calls["oracle.brute_force_optimal"] * per, "count"),
            "oracle.brute_force_optimal.s": (oracle_s * per, "s"),
            "oracle.candidates": (candidates * per, "count"),
            "oracle.candidates_per_s": (candidates / oracle_s if oracle_s else 0.0, "1/s"),
            "oracle.exact_reevals": (reevals * per, "count"),
            "evaluate.direct.calls": (direct_n * per, "count"),
            "evaluate.direct.s": (direct_s * per, "s"),
            "evaluate.evaluate.self_s": (self_s["evaluate.evaluate"] * per, "s"),
            "bestresponse.verify.s": (total["bestresponse.verify"] * per, "s"),
            "bestresponse.best_response.s": (total["bestresponse.best_response"] * per, "s"),
            "mechanism.extract.s": (total["mechanism.extract"] * per, "s"),
            "mechanism.mechanism_from_json.s": (total["mechanism.mechanism_from_json"] * per, "s"),
            "market.parse_market.s": (total["market.parse_market"] * per, "s"),
            "report.s": (sum(total[f"report.{f}"] for f in TRACED["report"]) * per, "s"),
            "cli.main.self_s": (self_s["cli.main"] * per, "s"),
            "stepfn.segment_refinement.calls": (calls["stepfn.segment_refinement"] * per, "count"),
            "stepfn.segment_refinement.s": (total["stepfn.segment_refinement"] * per, "s"),
            "trace.overhead_frac": (overhead, "ratio"),
        }

    def function_table(self, passes: int):
        """(name, calls, total s, self s) per traced function, per pass."""
        return [
            (name, n / passes, s / passes, own / passes)
            for name, (n, s, own) in sorted(self._totals().items())
            if n
        ]
