import argparse
import csv
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dynration
from dynration import cli, ex_ration, ex_twogen, make_market, serialize_market
from dynration.cli import main
from dynration.evaluate import Evaluation

from gen import DELTA_POOL, random_market

FIXTURES = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def market_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("markets")
    ration = root / "ex_ration.json"
    ration.write_text(serialize_market(ex_ration()))
    twogen = root / "ex_twogen.json"
    twogen.write_text(serialize_market(ex_twogen()))
    return ration, twogen


def test_solve_ration(market_files, tmp_path, capsys):
    ration, _ = market_files
    code = main(["solve", str(ration), "--out", str(tmp_path), "--starts", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "revenue: 7/6" in out
    assert "pHigh=5/6" in out
    assert "verification: pass" in out
    for suffix in ("profile.json", "mechanism.json", "report.csv", "prices.csv", "run.txt"):
        assert (tmp_path / f"ex_ration.{suffix}").exists()
    mech = json.loads((tmp_path / "ex_ration.mechanism.json").read_text())
    assert mech[0]["pHigh"] == "5/6"
    assert mech[1]["perWinnerPrice"] == "2/3"
    assert mech[1]["lotteryQuantity"] == "1/2"


def test_rational_binding_means_the_inventory_is_exhausted(market_files, tmp_path, capsys):
    # the ascent's 1e-9 improvement guard does not reach binding: an
    # inventory 1e-12 above the one unit sold is not exhausted, while
    # ex_ration sells exactly its 3/2
    near = tmp_path / "near.json"
    doc = {"T": 1, "atoms": [1], "mass": [[1]], "inventory": "1000000000001/1000000000000", "delta": [1]}
    near.write_text(json.dumps(doc))
    for path, sold, binding in ((near, "1", False), (market_files[0], "3/2", True)):
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
        run = (tmp_path / f"{path.stem}.run.txt").read_text()
        for text in (capsys.readouterr().out, run):
            assert f"inventory_used: {sold}\nbinding: {binding}\n" in text


def test_verify_solver_output(market_files, tmp_path, capsys):
    ration, _ = market_files
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "2"]) == 0
    capsys.readouterr()
    code = main(
        [
            "verify",
            str(ration),
            str(tmp_path / "ex_ration.mechanism.json"),
            "--profile",
            str(tmp_path / "ex_ration.profile.json"),
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: pass" in out
    assert (tmp_path / "ex_ration.equilibrium.csv").exists()


def test_verify_detects_perturbed_price(market_files, tmp_path, capsys):
    ration, _ = market_files
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "2"]) == 0
    mech_path = tmp_path / "ex_ration.mechanism.json"
    doc = json.loads(mech_path.read_text())
    doc[0]["pHigh"] = "6/7"  # above 5/6: the high types walk away
    bad_path = tmp_path / "perturbed.mechanism.json"
    bad_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(
        [
            "verify",
            str(ration),
            str(bad_path),
            "--profile",
            str(tmp_path / "ex_ration.profile.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "PlanMismatch" in capsys.readouterr().err


def test_rational_verify_is_exact_unless_a_tol_is_given(market_files, tmp_path, capsys):
    # pHigh at t = 1 lowered by 1e-12: the realized revenue falls 1e-12 short
    # of the formula's 7/6, which rational verification reports by default;
    # an explicit --tol still forgives it
    ration, _ = market_files
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "2"]) == 0
    doc = json.loads((tmp_path / "ex_ration.mechanism.json").read_text())
    assert doc[0]["pHigh"] == "5/6"
    doc[0]["pHigh"] = str(Fraction(5, 6) - Fraction(1, 10**12))
    bad_path = tmp_path / "lowered.mechanism.json"
    bad_path.write_text(json.dumps(doc))
    argv = ["verify", str(ration), str(bad_path), "--profile", str(tmp_path / "ex_ration.profile.json"),
            "--out", str(tmp_path)]
    capsys.readouterr()
    for extra, want in (([], 1), (["--tol", "0"], 1), (["--tol", "1e-9"], 0)):
        assert main(argv + extra) == want, extra
        captured = capsys.readouterr()
        assert "realized_revenue: 3499999999997/3000000000000\n" in captured.out
        if want:
            assert "RevenueMismatch: simulated 3499999999997/3000000000000, formula 7/6" in captured.err
            assert "UtilityMismatch: t=1 v=1:" in captured.err
        else:
            assert "verification: pass" in captured.out and not captured.err


def test_eval_command(market_files, tmp_path, capsys):
    ration, _ = market_files
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "2"]) == 0
    capsys.readouterr()
    code = main(
        ["eval", str(ration), str(tmp_path / "ex_ration.profile.json"), "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "revenue: 7/6" in out
    assert "welfare: 4/3" in out


def test_eval_warns_of_negative_payments(market_files, tmp_path, capsys, monkeypatch):
    # a monotone profile pays nothing below zero, so the flags are forced;
    # the report is still written and the exit code stays 0
    ration, _ = market_files
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "2"]) == 0
    monkeypatch.setattr(Evaluation, "negative_payments", property(lambda self: [(0, 0, -1), (1, 0, -2)]))
    capsys.readouterr()
    assert main(["eval", str(ration), str(tmp_path / "ex_ration.profile.json"), "--out", str(tmp_path / "e")]) == 0
    captured = capsys.readouterr()
    assert "revenue: 7/6\n" in captured.out
    assert captured.err == "warning: 2 negative payments flagged\n"
    assert (tmp_path / "e" / "ex_ration.report.csv").exists()


def test_oracle_command(market_files, tmp_path, capsys):
    ration, _ = market_files
    code = main(["oracle", str(ration), "--out", str(tmp_path), "--levels", "0,1/2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_revenue: 7/6" in out
    assert (tmp_path / "ex_ration.oracle.profile.json").exists()


@pytest.mark.parametrize("levels", ["", "0,,1", "1", "0,2,1"])
def test_oracle_bad_level_grid_exits_2(market_files, tmp_path, capsys, levels):
    _, twogen = market_files
    code = main(["oracle", str(twogen), "--out", str(tmp_path), "--levels", levels])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and not captured.out


def test_compare_command(market_files, capsys):
    _, twogen = market_files
    code = main(["compare", str(twogen), "--starts", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/2" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert any("anonymous optimum" in l and l.rstrip().endswith("1") for l in lines)


def test_compare_shows_no_benchmark_when_later_sales_pay_more(tmp_path, capsys):
    # lambdaS/lambdaB goes 1 -> 2: the posted oracle sells the t = 1
    # cohort at t = 2 for 2, while the per-arrival benchmark reads 1.
    path = tmp_path / "rising.json"
    path.write_text(serialize_market(make_market(T=2, atoms=[1], mass=[[1], [0]], lambda_b=[1, "1/2"])))
    assert main(["compare", str(path), "--starts", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "2"
    assert lines[2].endswith("n/a (lambdaS/lambdaB rises)")


def test_compare_shows_no_benchmark_when_kappa_rises(tmp_path, capsys):
    # delta * lambdaS / lambdaB = (0.6875, 0.5, 0.444) never rises, but
    # kappa = lambdaS / lambdaB = (3/4, 6/11, 2/3) does at t = 3; the
    # per-arrival sum 1183/2304 lies below the solver's 13181/25344 here
    m = make_market(
        T=3, atoms=["1/4", "5/12"], mass=[["1/2", "3/4"], ["3/4", "3/4"], [1, 0]],
        delta=["11/12", "11/12", "2/3"], lambda_s=["3/4", "1/2", "1/2"], lambda_b=[1, "11/12", "3/4"],
    )
    path = tmp_path / "found.json"
    path.write_text(serialize_market(m))
    assert main(["compare", str(path), "--starts", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "13181/25344"
    assert lines[2].endswith("n/a (lambdaS/lambdaB rises)")


def test_compare_solves_with_the_given_tol(tmp_path, capsys):
    # the same --starts, --seed and --tol give compare's solver row the
    # revenue that solve prints
    market = str(DEMOS / "discounted_three.json")
    flags = ["--starts", "2", "--seed", "0", "--tol", "0.2"]
    assert main(["solve", market, *flags, "--out", str(tmp_path)]) == 0
    revenue = capsys.readouterr().out.splitlines()[0].split()[-1]
    assert main(["compare", market, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[0].split()[-1] == revenue


@pytest.mark.parametrize("mode, zero", [("float", "0.0"), ("rational", "0")])
def test_atomless_totals_print_the_modes_zero(tmp_path, capsys, mode, zero):
    # every total of an atomless market is a sum of no terms, which starts
    # from the mode's zero
    market = tmp_path / "empty.json"
    market.write_text(json.dumps({"T": 2, "atoms": [], "mass": [[], []], "inventory": "inf", "delta": [1, 1]}))
    out = str(tmp_path)
    runs = [
        ["solve", str(market), "--starts", "0", "--out", out],
        ["eval", str(market), f"{out}/empty.profile.json", "--out", out],
        ["verify", str(market), f"{out}/empty.mechanism.json", "--out", out],
        ["compare", str(market), "--starts", "0"],
    ]
    lines = []
    for argv in runs:
        assert main([*argv, "--mode", mode]) == 0
        lines += capsys.readouterr().out.splitlines()
    lines += (tmp_path / "empty.run.txt").read_text().splitlines()
    totals = ("revenue:", "inventory_used:", "welfare:", "realized_", "anonymous", "posted prices", "non-anonymous")
    shown = [line for line in lines if line.startswith(totals)]
    assert len(shown) == 12
    assert all(line.split()[-1] == zero for line in shown), shown


def test_one_parser_serves_every_call_in_a_process(market_files, tmp_path, monkeypatch, capsys):
    # the parser is built at the first call only, and no option or default
    # of one call leaks into the next
    ration, _ = market_files
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    last = ["solve", str(ration), "--starts", "2"]

    def run(argv, out):
        code = main([*argv, "--out", str(out)])
        return code, capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}

    cli._build_parser.cache_clear()
    first = run(last, tmp_path / "first")
    cli._build_parser.cache_clear()
    built.clear()
    with pytest.raises(SystemExit) as rejected:
        main(["solve", str(ration), "--starts", "many"])
    assert rejected.value.code == 2
    capsys.readouterr()
    built_by_first_call = len(built)
    assert run(["solve", str(ration), "--mode", "float", "--tol", "0.1", "--starts", "2"], tmp_path / "float")[0] == 0
    again = run(last, tmp_path / "last")
    assert built.count("dynration") == 1
    assert len(built) == built_by_first_call
    assert first[0] == 0 and again == first


def test_compare_checks_the_oracle_caps_before_the_ascent(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the ascent ran before the oracle's size check")

    monkeypatch.setattr(cli, "coordinate_ascent", refuse)
    path = tmp_path / "four.json"
    path.write_text(serialize_market(make_market(T=4, atoms=[1], mass=[[1]] * 4)))
    assert main(["compare", str(path)]) == 2
    assert "error: T=4 beyond oracle cap 3" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    bad2 = tmp_path / "invalid.json"
    bad2.write_text('{"T": 2, "atoms": [1], "mass": [[1], [1]], "inventory": 1, "delta": ["1/2", "0.9"]}')
    assert main(["solve", str(bad2)]) == 2
    assert "NonMonotoneDiscount" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


def test_seeded_runs_are_byte_identical(market_files, tmp_path):
    # also when a re-run rewrites each artifact in place over longer or
    # shorter old contents
    ration, _ = market_files
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    names = ("ex_ration.profile.json", "ex_ration.mechanism.json", "ex_ration.report.csv",
             "ex_ration.prices.csv", "ex_ration.run.txt")
    solve = lambda out: main(["solve", str(ration), "--out", str(out), "--seed", "11", "--starts", "5"])
    assert solve(out_b) == 0
    for junk in (None, lambda size: b"junk\n" * (size // 5 + 20), lambda size: b"junk\n" * (size // 10)):
        if junk is not None:
            for name in names:
                (out_a / name).write_bytes(junk((out_a / name).stat().st_size))
        assert solve(out_a) == 0
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=lambda umask: f"umask{umask:03o}")
def test_new_artifacts_get_write_text_permissions(market_files, tmp_path, umask):
    ration, _ = market_files
    old = os.umask(umask)
    try:
        assert main(["solve", str(ration), "--out", str(tmp_path / "out"), "--starts", "0"]) == 0
        (tmp_path / "reference").write_text("x")
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    made = sorted((tmp_path / "out").iterdir())
    assert len(made) == 5 and {stat.S_IMODE(p.stat().st_mode) for p in made} == {want}


def test_a_write_only_artifact_is_rewritten_as_write_text_would(market_files, tmp_path):
    # the rewrite opens the file write-only, so it needs no read permission
    # (as root with CAP_DAC_OVERRIDE this case runs trivially)
    ration, _ = market_files
    argv = ["solve", str(ration), "--out", str(tmp_path), "--starts", "0"]
    assert main(argv) == 0
    report = tmp_path / "ex_ration.report.csv"
    want = report.read_bytes()
    report.write_bytes(b"junk\n" * 1000)
    report.chmod(0o200)
    try:
        assert main(argv) == 0
    finally:
        report.chmod(0o600)
    assert report.read_bytes() == want


def test_artifact_path_that_is_a_directory_is_an_error(market_files, tmp_path, capsys):
    ration, _ = market_files
    (tmp_path / "ex_ration.report.csv").mkdir()
    assert main(["solve", str(ration), "--out", str(tmp_path), "--starts", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "ex_ration.report.csv" in captured.err and "Traceback" not in captured.err


# Solved in float mode, this market's period-2 lottery quantity differs from
# service probability times simulated demand by about 1e-16.
ROUNDED_RESIDUAL_MARKET = {
    "T": 2,
    "atoms": ["13/40", "7/20", "27/40", "33/40"],
    "mass": [["3/4", "1", "1/2", "3/4"], ["3/4", "0", "1/4", "0"]],
    "inventory": "2",
    "delta": ["5/6", "3/4"],
}


def test_menu_only_verify_uses_mode_tolerance(tmp_path, capsys):
    market = tmp_path / "m.json"
    market.write_text(json.dumps(ROUNDED_RESIDUAL_MARKET))
    assert main(["solve", str(market), "--mode", "float", "--starts", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["verify", str(market), str(tmp_path / "m.mechanism.json"), "--mode", "float", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert "verification: pass" in capsys.readouterr().out


def test_menu_only_verify_simulates_with_the_given_tol(market_files, tmp_path, capsys):
    # Raising period 1's price by 5e-8 makes type 1 prefer to wait; with
    # --tol 0 the best responses must not let it buy on a 5e-8 tie margin.
    ration, _ = market_files
    assert main(["solve", str(ration), "--mode", "float", "--starts", "0", "--out", str(tmp_path)]) == 0
    menus = json.loads((tmp_path / "ex_ration.mechanism.json").read_text())
    menus[0]["pHigh"] += 5e-8
    bumped = tmp_path / "bumped.json"
    bumped.write_text(json.dumps(menus))
    capsys.readouterr()
    argv = ["verify", str(ration), str(bumped), "--mode", "float", "--tol", "0", "--out", str(tmp_path)]
    assert main(argv) == 1
    with open(tmp_path / "ex_ration.equilibrium.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["action"] for r in rows if r["t"] == "1" and float(r["v"]) == 1] == ["wait"]


def test_float_lottery_price_rounded_above_posted_is_tied(tmp_path, capsys):
    # In float mode this market's period-5 per-winner price computes one ulp
    # above the two-tier posted price, which used to raise NegativePriceError.
    market = FIXTURES / "lottery_price_ulp_tie.json"
    argv = ["solve", str(market), "--mode", "float", "--starts", "0", "--sweeps", "1", "--out", str(tmp_path)]
    assert main(argv) == 0, capsys.readouterr().err
    assert "verification: pass" in capsys.readouterr().out
    menu = json.loads((tmp_path / "lottery_price_ulp_tie.mechanism.json").read_text())[4]
    assert menu["mode"] == "posted+lottery"
    assert menu["pHigh"] == menu["perWinnerPrice"]


# The solver's period-2 menu on ex_ration.
RATION_PERIOD_2 = (
    '{"mode": "lottery-only", "qHigh": 2, "qHighInclusive": true, "qLow": "2/3", "qLowInclusive": true, '
    '"serviceProb": "1/2", "perWinnerPrice": "2/3", "lotteryQuantity": "1/2"}'
)


@pytest.mark.parametrize(
    "kind, text",
    [
        pytest.param("mechanism", '[{"mode": "closed"}, {"mode": "posted", "pHihg": 1}]', id="mechanism-unknown-key"),
        pytest.param("mechanism", '[{"mode": "closed"}, {"pHigh": 1}]', id="mechanism-missing-mode"),
        pytest.param("mechanism", '{"mode": "closed"}', id="mechanism-not-array"),
        pytest.param("mechanism", '["closed", "closed"]', id="mechanism-entry-not-object"),
        pytest.param("profile", '[{"levels": [0]}, {"levels": [0]}]', id="profile-missing-jumps"),
        pytest.param("profile", '[{"levels": [0], "jumps": [], "extra": 1}, {"levels": [0], "jumps": []}]', id="profile-unknown-key"),
        pytest.param("profile", '[{"levels": [0], "jumps": {}}, {"levels": [0], "jumps": []}]', id="profile-jumps-not-array"),
        pytest.param("profile", '[{"levels": [0, 1], "jumps": [{"at": 1}]}, {"levels": [0], "jumps": []}]', id="profile-jump-missing-closed"),
        pytest.param("profile", "[[0], [0]]", id="profile-entry-not-object"),
        pytest.param("profile", '[{"levels": [0, 1], "jumps": []}, {"levels": [0], "jumps": []}]', id="profile-levels-not-jumps-plus-one"),
        pytest.param("profile", '[{"levels": [0, 1], "jumps": [{"at": 2, "closed": true}]}, {"levels": [0], "jumps": []}]', id="profile-jump-outside-unit-interval"),
        pytest.param("profile", '[{"levels": [0, 1], "jumps": [{"at": 1, "closed": "false"}]}, {"levels": [0], "jumps": []}]', id="profile-closed-string"),
        pytest.param("profile", '[{"levels": [0, 1], "jumps": [{"at": 1, "closed": 1}]}, {"levels": [0], "jumps": []}]', id="profile-closed-number"),
        pytest.param("mechanism", '[{"mode": "bogus"}, {"mode": "closed"}]', id="mechanism-unknown-mode"),
        pytest.param("mechanism", '[{"mode": ["closed"]}, {"mode": "closed"}]', id="mechanism-mode-not-string"),
        pytest.param("mechanism", '[{"mode": "closed"}, {"mode": "posted", "qHigh": 1, "qHighInclusive": "false", "pHigh": 1}]', id="mechanism-qhigh-inclusive-string"),
        pytest.param("mechanism", '[{"mode": "closed"}, {"mode": "lottery-only", "qHigh": 2, "qHighInclusive": true, "qLow": "2/3", "qLowInclusive": 0, "serviceProb": "1/2", "perWinnerPrice": "2/3", "lotteryQuantity": "1/2"}]', id="mechanism-qlow-inclusive-number"),
        pytest.param("mechanism", '[{"mode": "closed"}, {"mode": "lottery-only", "qHigh": 2, "qHighInclusive": true, "qLow": "2/3", "qLowInclusive": true, "serviceProb": "1/2", "lotteryQuantity": "1/2"}]', id="mechanism-lottery-without-price"),
        pytest.param("mechanism", '[{"mode": "posted", "qHigh": 1, "qHighInclusive": true}, {"mode": "closed"}]', id="mechanism-posted-without-price"),
        pytest.param("mechanism", '[{"mode": "closed", "pHigh": "5/6"}, {"mode": "closed"}]', id="mechanism-closed-with-price"),
        pytest.param("mechanism", '[{"mode": "posted", "qHigh": 1, "qHighInclusive": true, "pHigh": "5/6", "serviceProb": "1/2"}, {"mode": "closed"}]', id="mechanism-posted-with-lottery-key"),
        pytest.param("mechanism", '[{"mode": "posted", "qHigh": 1, "qHighInclusive": true, "pHigh": "-1"}, ' + RATION_PERIOD_2 + "]", id="mechanism-negative-posted-price"),
        pytest.param("mechanism", '[{"mode": "posted", "qHigh": 1, "qHighInclusive": true, "pHigh": "5/6"}, ' + RATION_PERIOD_2.replace('"perWinnerPrice": "2/3"', '"perWinnerPrice": "-2/3"') + "]", id="mechanism-negative-lottery-price"),
        pytest.param("mechanism", '[{"mode": "posted+lottery", "qHigh": 1, "qHighInclusive": true, "pHigh": "1/2", "qLow": "2/3", "qLowInclusive": true, "serviceProb": "1/2", "perWinnerPrice": "2/3", "lotteryQuantity": "1/2"}, {"mode": "closed"}]', id="mechanism-lottery-price-above-posted"),
        pytest.param("mechanism", '[{"mode": "lottery-only", "qHigh": 2, "qHighInclusive": true, "qLow": "1", "qLowInclusive": true, "serviceProb": "3/2", "perWinnerPrice": "1/2", "lotteryQuantity": "3/2"}, {"mode": "closed"}]', id="mechanism-service-prob-above-one"),
        pytest.param("mechanism", '[{"mode": "closed"}, ' + RATION_PERIOD_2.replace('"serviceProb": "1/2"', '"serviceProb": "-1/2"') + "]", id="mechanism-negative-service-prob"),
        pytest.param("mechanism", '[{"mode": "closed"}, ' + RATION_PERIOD_2.replace('"lotteryQuantity": "1/2"', '"lotteryQuantity": "-1/2"') + "]", id="mechanism-negative-lottery-quantity"),
    ],
)
def test_malformed_files_exit_2(market_files, tmp_path, capsys, kind, text):
    ration, _ = market_files
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_text(text)
    command = ["verify", str(ration), str(bad)] if kind == "mechanism" else ["eval", str(ration), str(bad)]
    assert main(command + ["--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text, where",
    [
        pytest.param("profile", '[{"levels": ["x"], "jumps": []}, {"levels": [0], "jumps": []}]', "profile period 1 levels[0]", id="profile-level"),
        pytest.param("profile", '[{"levels": [0], "jumps": []}, {"levels": [0, 1], "jumps": [{"at": [], "closed": true}]}]', "profile period 2 jump at", id="profile-jump-at"),
        pytest.param("mechanism", '[{"mode": "posted", "qHigh": 1, "qHighInclusive": true, "pHigh": "abc"}, {"mode": "closed"}]', "mechanism period 1 pHigh", id="mechanism-price"),
        pytest.param("mechanism", '[{"mode": "closed"}, ' + RATION_PERIOD_2.replace('"1/2"}', "null}") + "]", "mechanism period 2 lotteryQuantity", id="mechanism-null-quantity"),
    ],
)
def test_bad_numbers_in_profile_and_mechanism_files_name_their_field(market_files, tmp_path, capsys, kind, text, where):
    ration, _ = market_files
    bad = tmp_path / f"bad.{kind}.json"
    bad.write_text(text)
    command = ["verify", str(ration), str(bad)] if kind == "mechanism" else ["eval", str(ration), str(bad)]
    assert main(command + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_solver_period_2_menu_verifies(market_files, tmp_path, capsys):
    # the menu the negative-price cases above start from is a valid one
    ration, _ = market_files
    mech = tmp_path / "m.json"
    mech.write_text('[{"mode": "posted", "qHigh": 1, "qHighInclusive": true, "pHigh": "5/6"}, ' + RATION_PERIOD_2 + "]")
    assert main(["verify", str(ration), str(mech), "--out", str(tmp_path)]) == 0
    assert "verification: pass" in capsys.readouterr().out


DEMOS = Path(__file__).parent.parent / "demos" / "markets"
SOLVE_ARTIFACTS = ("profile.json", "mechanism.json", "report.csv", "prices.csv", "run.txt")


def _pinned(filename, mode):
    pinned = {}
    for line in (FIXTURES / filename).read_text().splitlines():
        digest, name = line.split()
        pinned[name] = digest
    return {name: digest for name, digest in pinned.items() if name.startswith(f"{mode}/")}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_demo_artifacts_match_pinned_hashes(mode, tmp_path):
    # sha256 of every solve artifact of the demo markets at the default
    # --starts, written anew and then rewritten in place
    for _ in range(2):
        got = {}
        for market in sorted(DEMOS.glob("*.json")):
            assert main(["solve", str(market), "--mode", mode, "--out", str(tmp_path)]) == 0
            for suffix in SOLVE_ARTIFACTS:
                name = f"{market.stem}.{suffix}"
                got[f"{mode}/{name}"] = _sha256((tmp_path / name).read_bytes())
        assert got == _pinned("demo_artifacts.sha256", mode)
        assert len(got) == 15


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_demo_eval_and_verify_match_pinned_hashes(mode, tmp_path, capsys):
    # sha256 of the stdout and the artifact of eval, verify --profile and
    # menu-only verify on each demo market's solve output (default --starts)
    solved = tmp_path / "solve"
    got = {}
    for market in sorted(DEMOS.glob("*.json")):
        assert main(["solve", str(market), "--mode", mode, "--out", str(solved)]) == 0
        profile = str(solved / f"{market.stem}.profile.json")
        mechanism = str(solved / f"{market.stem}.mechanism.json")
        for kind, argv, artifact in (
            ("eval", ["eval", str(market), profile], "report.csv"),
            ("verify-profile", ["verify", str(market), mechanism, "--profile", profile], "equilibrium.csv"),
            ("verify-menu", ["verify", str(market), mechanism], "equilibrium.csv"),
        ):
            capsys.readouterr()
            out = tmp_path / kind
            assert main(argv + ["--mode", mode, "--out", str(out)]) == 0
            stdout, stderr = capsys.readouterr()
            assert stderr == ""
            got[f"{mode}/{market.stem}.{kind}.stdout"] = _sha256(stdout.encode())
            got[f"{mode}/{market.stem}.{kind}.{artifact}"] = _sha256((out / f"{market.stem}.{artifact}").read_bytes())
    assert got == _pinned("demo_eval_verify.sha256", mode)
    assert len(got) == 18


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_solve_writes_the_report_that_eval_gives_for_its_profile(mode, tmp_path, capsys):
    # solve's report.csv is the evaluation of the profile it writes, so eval
    # of that profile file must print the same cells, whole levels included
    rng = random.Random(61)
    markets = sorted(DEMOS.glob("*.json"))
    for k in range(4):
        seeded = tmp_path / f"seeded{k}.json"
        seeded.write_text(serialize_market(random_market(rng, general_lambda=k % 2 == 1)))
        markets.append(seeded)
    for market in markets:
        solved, evaluated = tmp_path / "solve", tmp_path / "eval"
        assert main(["solve", str(market), "--mode", mode, "--starts", "2", "--out", str(solved)]) == 0
        profile = str(solved / f"{market.stem}.profile.json")
        assert main(["eval", str(market), profile, "--mode", mode, "--out", str(evaluated)]) == 0
        report = f"{market.stem}.report.csv"
        assert (solved / report).read_text() == (evaluated / report).read_text(), market.stem


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol", "-1"],
        ["solve", "--tol", "nan"],
        ["oracle", "--tol", "inf"],
        ["solve", "--starts", "-3"],
        ["compare", "--starts", "-3"],
        ["solve", "--sweeps", "0"],
        ["solve", "--sweeps", "-2"],
    ],
)
def test_out_of_range_numbers_exit_2(market_files, tmp_path, capsys, argv):
    ration, _ = market_files
    code = main([argv[0], str(ration), "--out", str(tmp_path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and argv[1] in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("literal", ['"1e400"', "1" + "0" * 400])
def test_float_mode_literal_beyond_float_range_exits_2(tmp_path, capsys, literal):
    market = tmp_path / "m.json"
    market.write_text('{"T": 1, "atoms": [1], "mass": [[%s]], "inventory": "inf", "delta": [1]}' % literal)
    assert main(["solve", str(market), "--mode", "float", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: mass[0][0]: ")


def _seeded_market_doc(rng, k):
    """A T = n = 5 market as plain JSON of fraction strings: the first
    unbounded, the last with general lambdas, the rest bounded at half the
    arrival mass."""
    atoms = sorted(Fraction(a, 40) for a in rng.sample(range(1, 41), 5))
    mass = [[Fraction(rng.randint(0, 4), 4) for _ in atoms] for _ in range(5)]
    schedule = lambda: [str(x) for x in sorted((rng.choice(DELTA_POOL) for _ in range(5)), reverse=True)]
    doc = {
        "T": 5,
        "atoms": [str(a) for a in atoms],
        "mass": [[str(x) for x in row] for row in mass],
        "inventory": "inf" if k == 0 else str(sum(map(sum, mass)) / 2),
        "delta": schedule(),
    }
    if k == 3:
        doc["lambdaS"], doc["lambdaB"] = schedule(), schedule()
    return doc


def test_seeded_float_solves_match_pinned_hashes(tmp_path):
    # sha256 of every artifact of `solve --mode float --starts 0` on four
    # seeded market files written without make_market, so the pins also
    # cover parse_market
    rng = random.Random(5)
    got = {}
    for k in range(4):
        market = tmp_path / f"seeded{k}.json"
        market.write_text(json.dumps(_seeded_market_doc(rng, k)))
        assert main(["solve", str(market), "--mode", "float", "--starts", "0", "--out", str(tmp_path / "out")]) == 0
        for suffix in SOLVE_ARTIFACTS:
            name = f"{market.stem}.{suffix}"
            got[f"float/{name}"] = _sha256((tmp_path / "out" / name).read_bytes())
    assert got == _pinned("float_solve_artifacts.sha256", "float")
    assert len(got) == 20


# Finite, valid numbers whose float arithmetic overflows: masses near the
# float maximum, and a lambdaB below the normal floats, which a payment as
# charged divides by.
BEYOND_FLOAT = {
    "huge_mass": {"T": 2, "atoms": ["1/2", 1], "mass": [[1e308, 1e308], [1e308, 1e308]], "inventory": "inf",
                  "delta": [1, 1]},
    "tiny_lambda_b": {"T": 2, "atoms": ["1/2", 1], "mass": [[0, 1], [1, 0]], "inventory": "inf", "delta": [1, 1],
                      "lambdaS": [1, 1e-300], "lambdaB": [1, 1e-310]},
}


@pytest.fixture(scope="module")
def beyond_float_files(tmp_path_factory):
    """Each market of BEYOND_FLOAT with the profile and mechanism files of its rational solve."""
    root = tmp_path_factory.mktemp("beyond_float")
    files = {}
    for name, doc in BEYOND_FLOAT.items():
        market = root / f"{name}.json"
        market.write_text(json.dumps(doc))
        assert main(["solve", str(market), "--starts", "0"]) == 0
        files[name] = (market, root / f"{name}.profile.json", root / f"{name}.mechanism.json")
    return files


@pytest.mark.parametrize("name", BEYOND_FLOAT)
def test_rational_mode_runs_markets_beyond_the_float_range(beyond_float_files, tmp_path, capsys, name):
    market, profile, mechanism = beyond_float_files[name]
    assert main(["eval", str(market), str(profile), "--out", str(tmp_path)]) == 0
    assert main(["verify", str(market), str(mechanism), "--profile", str(profile), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out


@pytest.mark.parametrize("name", BEYOND_FLOAT)
@pytest.mark.parametrize(
    "command, mode",
    [(c, "float") for c in ("solve", "eval", "verify", "oracle", "compare")]
    + [("oracle", "rational"), ("compare", "rational")],  # the oracle searches a float copy
)
def test_markets_beyond_the_float_range_exit_2(beyond_float_files, tmp_path, capsys, name, command, mode):
    # the rational oracle's float copy of huge_mass divides the masses by a
    # power of two (test_oracle::test_oracle_searches_huge_masses_scaled),
    # so those two cases run; no scaling brings tiny_lambda_b in range
    market, profile, mechanism = beyond_float_files[name]
    files = {"eval": [str(profile)], "verify": [str(mechanism), "--profile", str(profile)]}.get(command, [])
    out = tmp_path / "out"
    code = main([command, str(market), *files, "--mode", mode, "--out", str(out)])
    captured = capsys.readouterr()
    if (name, mode) == ("huge_mass", "rational"):
        assert code == 0 and not captured.err
        assert "nan" not in captured.out and "inf" not in captured.out
        assert (out / "huge_mass.oracle.profile.json").exists() == (command == "oracle")
        return
    assert code == 2
    assert captured.err.startswith("error: BeyondFloatRange: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_rational_oracle_searches_an_inventory_beyond_the_float_range(tmp_path, capsys, command):
    # usage never exceeds the arrivals, so an inventory of 1e400, beyond the
    # float range, never binds: the oracle searches the market as unbounded,
    # and both commands print what they print for the same market with "inf"
    doc = {"T": 2, "atoms": ["1/2", 1], "mass": [[1, 1], [1, 1]], "delta": [1, 1]}
    lines = {}
    for name, inventory in (("huge", "1e400"), ("unbounded", "inf")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "inventory": inventory}))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        lines[name] = captured.out.splitlines()
    if command == "oracle":
        assert lines["huge"] == lines["unbounded"] == ["oracle_revenue: 2", "candidates: 4900"]
        profiles = [(tmp_path / "out" / f"{name}.oracle.profile.json").read_text() for name in lines]
        assert profiles[0] == profiles[1]
    else:
        # the benchmark too: an inventory of the total arrival mass, 4, never
        # binds either, while one of 3 does
        assert lines["huge"] == lines["unbounded"]
        assert lines["huge"][1].split()[-1] == lines["huge"][2].split()[-1] == "2"
        for inventory, shown in ((4, "2"), (3, "n/a (finite inventory)")):
            path = tmp_path / f"inventory{inventory}.json"
            path.write_text(json.dumps({**doc, "inventory": inventory}))
            assert main([command, str(path), "--out", str(tmp_path / "out")]) == 0
            assert capsys.readouterr().out.splitlines()[2].endswith(f"  {shown}")


_NUMPY_FREE_RUNS = """
import sys

import dynration
from dynration import cli

market, out = sys.argv[1], sys.argv[2]
profile, mechanism = f"{out}/ex_ration.profile.json", f"{out}/ex_ration.mechanism.json"


def run(*argv):
    assert cli.main([*argv, "--out", out]) == 0, argv


run("solve", market, "--starts", "0")
for mode in ("rational", "float"):
    run("eval", market, profile, "--mode", mode)
    run("verify", market, mechanism, "--profile", profile, "--mode", mode)
    run("verify", market, mechanism, "--mode", mode)
assert "numpy" not in sys.modules, "numpy loaded without an array to compute"
run("solve", market, "--starts", "0", "--mode", "float")
assert "numpy" in sys.modules, "a float solve ran without numpy"
"""


def test_the_package_exports_what_the_cli_and_the_acceptance_suite_use():
    # other names are imported from their submodules
    assert dynration.__all__ == [
        "AllocationProfile", "FLOAT", "MarketError", "OracleGrid", "ParseError", "Partition", "RATIONAL",
        "StepFunction", "VerificationResult", "best_response", "brute_force_optimal", "coordinate_ascent",
        "evaluate", "ex_ration", "ex_twogen", "extract", "format_number", "make_market", "mixture",
        "non_anonymous_benchmark", "normalize_staircase", "parse_market", "parse_number", "serialize_market",
        "solve_coordinate", "verify",
    ]
    assert all(hasattr(dynration, name) for name in dynration.__all__)
    assert callable(dynration.evaluate) and not hasattr(dynration, "__version__")


def test_the_module_runs_as_a_program(market_files, tmp_path):
    # ``python -m dynration.cli`` runs main and exits with its code
    ration, _ = market_files
    src = str(Path(dynration.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*argv):
        argv = [sys.executable, "-m", "dynration.cli", *argv, "--out", str(tmp_path)]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    solved = run("solve", str(ration), "--starts", "0")
    assert solved.returncode == 0 and solved.stdout.startswith("revenue: 7/6\n"), solved.stderr
    missing = run("eval", str(ration), str(tmp_path / "missing.profile.json"))
    assert missing.returncode == 2 and missing.stderr.startswith("error: "), missing.stderr


def test_only_array_code_loads_numpy(tmp_path):
    # a fresh interpreter: importing the package, a rational solve, and eval
    # and verify in both modes leave numpy unloaded; a float solve loads it
    src = str(Path(dynration.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-c", _NUMPY_FREE_RUNS, str(DEMOS / "ex_ration.json"), str(tmp_path)]
    done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
