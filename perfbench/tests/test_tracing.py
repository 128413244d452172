"""Self-test of the benchmark's tracing.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

Each workload runs a few of its own jobs traced; every binding that the
workload is meant to exercise must record calls, so a renamed or moved
import shows up here instead of as a per-layer metric that silently reads
zero. Untraced measurement must leave every binding unwrapped.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SOLVE = {
    "cli:main", "cli:parse_market",
    "cli:coordinate_ascent", "cli:evaluate", "cli:extract", "cli:verify", "cli:mechanism_to_json",
    "ascent:evaluate", "ascent:segment_refinement", "ascent:build_coordinate_lp", "ascent:solve_coordinate",
    "evaluate:segment_refinement",
    "report:profile_to_json", "report:evaluation_csv", "report:price_path_csv", "report:solve_metadata",
    "bestresponse:best_response",
}

# Which bindings each workload must call, and the few jobs that show it.
EXPECTED = {
    "solve-float": (lambda jobs: jobs[:1], SOLVE),
    "solve-exact": (lambda jobs: [j for j in jobs if j.id == "ex_ration"], SOLVE),
    "oracle-audit": (lambda jobs: jobs[:1], SOLVE | {"cli:brute_force_optimal", "oracle:evaluate"}),
    "eval-verify": (
        lambda jobs: [j for j in jobs if j.id.startswith("r6-")][:3],
        {
            "cli:main", "cli:parse_market", "cli:evaluate", "cli:verify", "cli:best_response",
            "cli:mechanism_from_json", "evaluate:segment_refinement", "bestresponse:evaluate",
            "bestresponse:best_response", "report:profile_from_json", "report:evaluation_csv",
            "report:verification_csv",
        },
    ),
}

# Bindings no command-line path calls through: a defining module's own
# binding of a function the command line reaches through its own import,
# and mechanism:evaluate (the command line always hands extract its
# evaluation).
UNREACHABLE = {
    "market:parse_market", "stepfn:segment_refinement", "evaluate:evaluate", "mechanism:evaluate",
    "mechanism:extract", "mechanism:mechanism_from_json", "mechanism:mechanism_to_json",
    "bestresponse:verify", "oracle:brute_force_optimal", "ascent:coordinate_ascent",
}


def _bindings():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    return set(tracer.bindings())


def test_every_binding_is_accounted_for():
    expected = set().union(*(names for _, names in EXPECTED.values()))
    assert _bindings() == expected | UNREACHABLE


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_workload_calls_every_expected_binding(workload, tmp_path):
    pick, names = EXPECTED[workload]
    jobs = pick(workloads.WORKLOADS[workload](0, tmp_path, ROOT))
    assert jobs
    tracer = run.measure(jobs, 0, traced=True).tracer
    silent = sorted(b for b in names if tracer.binding_calls[b] == 0)
    assert not silent, f"{workload}: wrapped bindings with no calls: {silent}"
    assert all(not hasattr(fn, "__wrapped__") for fn in _current_bindings())


def _current_bindings():
    import importlib

    for layer in tracing.LAYERS:
        module = importlib.import_module(f"dynration.{layer}")
        for names in tracing.TRACED.values():
            for name in names:
                if hasattr(module, name):
                    yield getattr(module, name)


def test_untraced_measurement_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced measurement installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    jobs = [j for j in workloads.solve_exact(0, tmp_path, ROOT) if j.id == "ex_ration"]
    m = run.measure(jobs, 0, traced=False)
    assert m.tracer is None and m.untraced is None
    assert [log.failure for log in m.logs] == [None]
    assert all(not hasattr(fn, "__wrapped__") for fn in _current_bindings())
