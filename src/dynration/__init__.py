"""Revenue-optimal anonymous selling for multi-period markets.

A monopolist sells identical goods over discrete periods to overlapping
generations of non-atomic buyers who wait strategically. This package
computes the revenue-optimal anonymous mechanism (a posted price plus at
most one rationed lottery per period), evaluates any monotone allocation
profile in closed form, verifies menus by simulating buyer best responses,
and cross-checks everything against brute-force oracles.
"""

from .ascent import (
    AffinityError,
    CoordinateLP,
    CoordinateSolution,
    SolveReport,
    build_coordinate_lp,
    coordinate_ascent,
    normalize_staircase,
    solve_coordinate,
)
from .bestresponse import EquilibriumReport, VerificationResult, best_response, verify
from .evaluate import (
    AllocationProfile,
    Evaluation,
    evaluate,
)
from .market import (
    DiscountSchedule,
    Market,
    MarketError,
    ParseError,
    ex_ration,
    ex_twogen,
    make_market,
    parse_market,
    serialize_market,
    validate_market,
)
from .mechanism import (
    NegativePriceError,
    PeriodMenu,
    PricedMechanism,
    TooManySteps,
    extract,
    lottery_quantity_audit,
)
from .numeric import FLOAT, RATIONAL, default_tol, format_number, parse_number
from .oracle import (
    BoundedInventoryUnsupported,
    InstanceTooLarge,
    OracleGrid,
    OracleResult,
    brute_force_optimal,
    non_anonymous_benchmark,
    static_monopoly,
)
from .stepfn import (
    DomainError,
    Jump,
    Partition,
    PiecewiseLinear,
    StepFunction,
    mixture,
    pointwise,
    segment_refinement,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
