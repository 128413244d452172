import argparse
import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from dynration import cli, ex_ration, ex_twogen, make_market, serialize_market
from dynration.cli import main

from gen import random_market

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


def test_oracle_command(market_files, tmp_path, capsys):
    ration, _ = market_files
    code = main(["oracle", str(ration), "--out", str(tmp_path), "--levels", "0,1/2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_revenue: 7/6" in out
    assert (tmp_path / "ex_ration.oracle.profile.json").exists()


def test_compare_command(market_files, capsys):
    _, twogen = market_files
    code = main(["compare", str(twogen), "--starts", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/2" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert any("anonymous optimum" in l and l.rstrip().endswith("1") for l in lines)


def test_compare_shows_no_benchmark_when_later_sales_pay_more(tmp_path, capsys):
    # delta*lambdaS/lambdaB goes 1 -> 2: the posted oracle sells the t = 1
    # cohort at t = 2 for 2, while the per-arrival benchmark reads 1.
    path = tmp_path / "rising.json"
    path.write_text(serialize_market(make_market(T=2, atoms=[1], mass=[[1], [0]], lambda_b=[1, "1/2"])))
    assert main(["compare", str(path), "--starts", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-1] == "2"
    assert lines[2].endswith("n/a (delta*lambdaS/lambdaB rises)")


def test_compare_solves_with_the_given_tol(tmp_path, capsys):
    # the same --starts, --seed and --tol give compare's solver row the
    # revenue that solve prints
    market = str(DEMOS / "discounted_three.json")
    flags = ["--starts", "2", "--seed", "0", "--tol", "0.2"]
    assert main(["solve", market, *flags, "--out", str(tmp_path)]) == 0
    revenue = capsys.readouterr().out.splitlines()[0].split()[-1]
    assert main(["compare", market, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[0].split()[-1] == revenue


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
    ration, _ = market_files
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["solve", str(ration), "--out", str(out), "--seed", "11", "--starts", "5"]) == 0
    for name in ("ex_ration.profile.json", "ex_ration.mechanism.json", "ex_ration.report.csv",
                 "ex_ration.prices.csv", "ex_ration.run.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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
    # sha256 of every solve artifact of the demo markets at the default --starts
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
