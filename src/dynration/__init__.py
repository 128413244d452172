"""Revenue-optimal anonymous selling for multi-period markets.

A monopolist sells identical goods over discrete periods to overlapping
generations of non-atomic buyers who wait strategically. This package
computes the revenue-optimal anonymous mechanism (a posted price plus at
most one rationed lottery per period), evaluates any monotone allocation
profile in closed form, verifies menus by simulating buyer best responses,
and cross-checks everything against brute-force oracles.

The package exports what the command line (:mod:`dynration.cli`) and the
acceptance suite use, and nothing else. Every other name is imported from
its submodule, such as ``dynration.market.Market``. The function
``evaluate`` shadows its submodule here; the module is reached through
``from dynration.evaluate import ...``.
"""

from .ascent import coordinate_ascent, normalize_staircase, solve_coordinate
from .bestresponse import VerificationResult, best_response, verify
from .evaluate import AllocationProfile, evaluate
from .market import MarketError, ParseError, ex_ration, ex_twogen, make_market, parse_market, serialize_market
from .mechanism import extract
from .numeric import FLOAT, RATIONAL, format_number, parse_number
from .oracle import OracleGrid, brute_force_optimal, non_anonymous_benchmark
from .stepfn import Partition, StepFunction, mixture

__all__ = [
    "AllocationProfile", "FLOAT", "MarketError", "OracleGrid", "ParseError", "Partition", "RATIONAL",
    "StepFunction", "VerificationResult", "best_response", "brute_force_optimal", "coordinate_ascent",
    "evaluate", "ex_ration", "ex_twogen", "extract", "format_number", "make_market", "mixture",
    "non_anonymous_benchmark", "normalize_staircase", "parse_market", "parse_number", "serialize_market",
    "solve_coordinate", "verify",
]
