"""Fuzzing of the command line over generated input files.

Market, profile and mechanism documents are drawn close to their formats,
and a third of them are then broken in one place: a value swapped for junk,
a key or entry dropped, an unknown one added, or the JSON text cut short.
Every subcommand must answer with exit code 0, 1 or 2, and no exception may
escape ``main``.
"""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dynration.cli import main

POINTS = [Fraction(k, 6) for k in range(7)]
NUMBER = st.sampled_from([0, 1, "1/2", "1/3", "2/3", "1/6", "5/6", 0.25, "0.75"])
JUNK = st.sampled_from(
    [None, True, "x", "", "1/0", "nan", "inf", "-1", -1, 2, "5/2", "1e400", 10**400, [], {}, [1, [2]], {"a": 1}]
)
MENU_KEYS = {
    "closed": (),
    "posted": ("qHigh", "qHighInclusive", "pHigh"),
    "lottery-only": ("qHigh", "qHighInclusive", "qLow", "qLowInclusive", "serviceProb", "perWinnerPrice",
                     "lotteryQuantity"),
    "posted+lottery": ("qHigh", "qHighInclusive", "pHigh", "qLow", "qLowInclusive", "serviceProb",
                       "perWinnerPrice", "lotteryQuantity"),
}


def _text(x: Fraction):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _file_text(draw, doc):
    """JSON text of ``doc``, broken in one place a third of the time."""
    how = draw(st.sampled_from(["keep"] * 8 + ["replace", "drop", "extra", "cut"]))
    if how == "cut":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    if how != "keep":
        path = draw(st.sampled_from(list(_paths(doc))))
        junk = draw(JUNK)
        if not path:
            doc = junk
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            target = parent[path[-1]]
            if how == "replace":
                parent[path[-1]] = junk
            elif how == "drop":
                del parent[path[-1]]
            elif isinstance(target, dict):
                target["bogus"] = junk
            elif isinstance(target, list):
                target.append(junk)
            else:
                parent[path[-1]] = [target, junk]
    return json.dumps(doc)


@st.composite
def _market(draw):
    T = draw(st.integers(1, 3))
    atoms = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=3, unique=True))
    atoms = [_text(a) for a in sorted(atoms)]
    doc = {
        "T": T,
        "atoms": atoms,
        "mass": [[draw(st.sampled_from([0, "1/2", 1, "3/2"])) for _ in atoms] for _ in range(T)],
        "inventory": draw(st.sampled_from(["inf", 0, "1/2", 1, "3/2", 2])),
        "delta": sorted((draw(st.sampled_from([1, "5/6", "2/3", "1/2"])) for _ in range(T)), key=Fraction,
                        reverse=True),
    }
    if draw(st.booleans()):
        doc["lambdaS"] = sorted((draw(st.sampled_from([1, "3/4"])) for _ in range(T)), key=Fraction, reverse=True)
        doc["lambdaB"] = sorted((draw(st.sampled_from([1, "3/4"])) for _ in range(T)), key=Fraction, reverse=True)
    return doc


@st.composite
def _profile(draw, T):
    periods = []
    for _ in range(draw(st.sampled_from([T, T, T, T + 1]))):
        at = sorted(draw(st.lists(st.sampled_from(POINTS), max_size=2)))
        levels = sorted(draw(st.lists(st.sampled_from(POINTS), min_size=len(at) + 1, max_size=len(at) + 1)))
        periods.append({
            "levels": [_text(x) for x in levels],
            "jumps": [{"at": _text(a), "closed": draw(st.booleans())} for a in at],
        })
    return periods


@st.composite
def _mechanism(draw, T):
    menus = []
    for _ in range(draw(st.sampled_from([T, T, T, max(T - 1, 0)]))):
        mode = draw(st.sampled_from(sorted(MENU_KEYS)))
        menu = {"mode": mode}
        for key in MENU_KEYS[mode]:
            menu[key] = draw(st.booleans()) if key.endswith("Inclusive") else draw(NUMBER)
        menus.append(menu)
    return menus


@st.composite
def _inputs(draw):
    market = draw(_market())
    T = market["T"]
    return (
        draw(_file_text(market)),
        draw(_file_text(draw(_profile(T)))),
        draw(_file_text(draw(_mechanism(T)))),
        draw(st.sampled_from(["rational", "float"])),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@settings(deadline=None, max_examples=100, derandomize=True)
@given(_inputs())
def test_every_subcommand_exits_cleanly_on_generated_files(inputs):
    market_text, profile_text, mechanism_text, mode = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        market, profile, mechanism = tmp / "m.json", tmp / "p.json", tmp / "mech.json"
        market.write_text(market_text)
        profile.write_text(profile_text)
        mechanism.write_text(mechanism_text)
        common = ["--mode", mode, "--out", str(tmp / "out")]
        _run(["solve", str(market), *common, "--starts", "0", "--sweeps", "3"])
        _run(["eval", str(market), str(profile), *common])
        _run(["verify", str(market), str(mechanism), *common])
        _run(["verify", str(market), str(mechanism), "--profile", str(profile), *common])
        _run(["oracle", str(market), *common, "--levels", "0,1/2,1"])
        _run(["compare", str(market), *common, "--starts", "0"])
