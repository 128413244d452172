"""Seeded random instances for the property and acceptance suites.

Everything is driven by an explicit ``random.Random`` so the suites are
reproducible; values are drawn from small fraction pools to keep rational
arithmetic cheap and, where a suite needs it, to keep optima on known
grids (random profile jumps sit on market atoms).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from dynration import AllocationProfile, StepFunction, make_market
from dynration.ascent import CoordinateLP, _shrink_to_feasible
from dynration.numeric import RATIONAL
from dynration.stepfn import Jump, segment_refinement

ATOM_POOL = [Fraction(k, 12) for k in range(1, 13)]
MASS_POOL = [Fraction(k, 4) for k in range(5)]
DELTA_POOL = [Fraction(1), Fraction(11, 12), Fraction(5, 6), Fraction(3, 4), Fraction(2, 3), Fraction(1, 2)]
LEVEL_POOL = [Fraction(k, 4) for k in range(5)]


def random_market(
    rng: random.Random,
    *,
    mode: str = RATIONAL,
    max_periods: int = 3,
    min_periods: int = 1,
    max_atoms: int = 3,
    unbounded: bool | None = None,
    tied_delta: bool = False,
    strict_delta: bool = False,
    general_lambda: bool = False,
):
    T = rng.randint(min_periods, max_periods)
    if tied_delta:
        T = max(T, 2)
    natoms = rng.randint(1, max_atoms)
    atoms = sorted(rng.sample(ATOM_POOL, natoms))
    mass = [[rng.choice(MASS_POOL) for _ in range(natoms)] for _ in range(T)]
    if all(x == 0 for row in mass for x in row):
        mass[0][-1] = Fraction(1)

    if strict_delta:
        delta = sorted(rng.sample(DELTA_POOL, T), reverse=True)
    else:
        delta = sorted((rng.choice(DELTA_POOL) for _ in range(T)), reverse=True)
    if tied_delta and T >= 2:
        i = rng.randrange(T - 1)
        delta = list(delta)
        delta[i + 1] = delta[i]
        delta = sorted(delta, reverse=True)

    lam_s = lam_b = None
    if general_lambda:
        lam_s = sorted((rng.choice(DELTA_POOL) for _ in range(T)), reverse=True)
        lam_b = sorted((rng.choice(DELTA_POOL) for _ in range(T)), reverse=True)

    if unbounded is None:
        unbounded = rng.random() < 0.5
    if unbounded:
        inventory = None
    else:
        total = sum(sum(row) for row in mass)
        inventory = Fraction(rng.randint(1, 4), 4) * total
    return make_market(
        T=T,
        atoms=atoms,
        mass=mass,
        inventory=inventory,
        delta=delta,
        lambda_s=lam_s,
        lambda_b=lam_b,
        mode=mode,
    )


def random_step(rng: random.Random, atoms, mode: str = RATIONAL) -> StepFunction:
    """Monotone step function with jumps on the atom list."""
    njumps = min(rng.choice((0, 1, 1, 2)), len(atoms))
    locs = sorted(rng.sample(list(atoms), njumps))
    levels = sorted(rng.choice(LEVEL_POOL) for _ in range(njumps + 1))
    if mode != RATIONAL:
        levels = [float(x) for x in levels]
    jumps = [Jump(at, rng.random() < 0.5) for at in locs]
    return StepFunction(levels, jumps)


def random_profile(rng: random.Random, market) -> AllocationProfile:
    return AllocationProfile(
        tuple(random_step(rng, market.atoms, market.mode) for _ in range(market.T))
    )


def slopes(points, values) -> list:
    """Slopes of the piecewise-linear curve through ``(points[k], values[k])``."""
    return [(v1 - v0) / (p1 - p0) for p0, p1, v0, v1 in zip(points, points[1:], values, values[1:])]


def random_feasible_profile(rng: random.Random, market) -> AllocationProfile:
    """Random profile shrunk until it respects the inventory cap."""
    return shrunk_to_feasible(market, random_profile(rng, market))


def edge_market(rng: random.Random, mode: str = RATIONAL, *, shortcuts: bool = False):
    """A small random market that may put atoms at 0 and 1, tie deltas, take
    general lambdas and leave supply unbounded.

    With ``shortcuts`` it may also give one atom no mass in any period, and
    general lambdas of exactly 1 at t = 0: the exact 0s and 1s that the
    formula layer and its checks skip.
    """
    T, n = rng.randint(1, 4), rng.randint(1, 4)
    atoms = sorted(rng.sample([Fraction(k, 12) for k in range(13)], n))
    if rng.random() < 0.3:
        atoms = sorted({Fraction(0), *atoms[1:-1], Fraction(1)})
    mass = [[rng.choice(MASS_POOL) for _ in atoms] for _ in range(T)]
    if shortcuts and len(atoms) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(atoms) - 1)
        for row in mass:
            row[i] = Fraction(0)
    mass[0][-1] += 1
    pool = [Fraction(1), Fraction(11, 12), Fraction(5, 6), Fraction(3, 4), Fraction(2, 3), Fraction(1, 2)]
    schedules = [sorted((rng.choice(pool) for _ in range(T)), reverse=True) for _ in range(3)]
    if T > 1 and rng.random() < 0.5:
        schedules[0][1] = schedules[0][0]
    if rng.random() < 0.5:
        schedules[1] = schedules[2] = None
    elif shortcuts and rng.random() < 0.5:
        schedules[1][0] = schedules[2][0] = Fraction(1)
    inventory = None if rng.random() < 0.4 else Fraction(rng.randint(1, 8), 4)
    return make_market(T=T, atoms=atoms, mass=mass, inventory=inventory, delta=schedules[0],
                       lambda_s=schedules[1], lambda_b=schedules[2], mode=mode)


def edge_row(rng: random.Random, npieces: int, mode: str = RATIONAL) -> tuple:
    """A monotone row of whole levels as ints and as the mode's numbers, and fractions."""
    if mode == RATIONAL:
        levels = [0, 0, 1, 1, Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    else:
        levels = [0, 0, 1, 1, 0.0, 1.0, 1 / 3, 0.5, 0.75]
    return tuple(sorted((rng.choice(levels) for _ in range(npieces)), key=float))


def shrunk_to_feasible(market, profile: AllocationProfile) -> AllocationProfile:
    """The ascent's shrink of a profile whose jumps sit on the atoms, through its rows."""
    partition = segment_refinement((), market.atoms)
    rows = _shrink_to_feasible(market, partition, tuple(tuple(partition.values(r)) for r in profile.steps)).rows
    return AllocationProfile(tuple(StepFunction.from_values(partition, row) for row in rows))


def lp_from_coefficients(boundaries, obj_atom, obj_density, inv_atom, inv_density, budget) -> CoordinateLP:
    """Coordinate model, as tail values, of hand-drawn atom and density weights.

    ``obj_atom[k]`` is the revenue weight of the point ``boundaries[k]`` and
    ``obj_density[s]`` the revenue per unit length between ``boundaries[s]``
    and ``boundaries[s + 1]`` (``inv_*`` likewise for inventory). The model
    lives on the partition of ``boundaries``, so its piece ``2k`` is the
    point ``boundaries[k]`` and its piece ``2k + 1`` the gap above it. Tails
    accumulate from the top piece down: each adds its own piece's weight.
    """
    pts = tuple(boundaries)
    weights = []
    for k in range(len(pts)):
        weights.append((obj_atom[k], inv_atom[k]))
        if k + 1 < len(pts):
            width = pts[k + 1] - pts[k]
            weights.append((obj_density[k] * width, inv_density[k] * width))
    tails = []
    run_j, run_g = 0, 0
    for w_j, w_g in reversed(weights):
        run_j, run_g = run_j + w_j, run_g + w_g
        tails.append((run_j, run_g))
    return CoordinateLP(
        period=0,
        tails=tuple(reversed(tails)),
        budget=budget,
        base_revenue=0,
        base_used=0,
    )


def random_lp_coefficients(rng: random.Random) -> tuple:
    """Float arguments for :func:`lp_from_coefficients`: (boundaries,
    obj_atom, obj_density, inv_atom, inv_density, budget)."""
    nseg = rng.randint(3, 6)
    interior = sorted(rng.sample([k / 12 for k in range(1, 12)], nseg - 1))
    pts = (0.0, *interior, 1.0)
    n = len(pts)
    obj_atom = tuple(rng.uniform(-1, 1) for _ in range(n))
    obj_density = tuple(rng.uniform(-1, 1) for _ in range(n - 1))
    if rng.random() < 0.5:
        # binding: one boundary carries the inventory weight and the budget
        # sits on the 1/8 grid, so every tight level is grid-representable
        inv_atom = [0.0] * n
        inv_atom[rng.randrange(n)] = 1.0
        budget = rng.randint(1, 7) / 8
    else:
        inv_atom = [rng.uniform(0, 1) for _ in range(n)]
        budget = None if rng.random() < 0.5 else sum(inv_atom) + 1.0
    return pts, obj_atom, obj_density, tuple(inv_atom), (0.0,) * (n - 1), budget


def spelled(x):
    """``x`` with every number spelled by its type and repr, arrays by dtype and shape too."""
    if isinstance(x, np.ndarray):
        return ("ndarray", str(x.dtype), x.shape, [spelled(y) for y in x.ravel().tolist()])
    if isinstance(x, (list, tuple)):
        return [spelled(y) for y in x]
    return (type(x).__name__, repr(x))
