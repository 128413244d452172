"""Metamorphic properties of the solver: transformations of a market whose
effect on the optimum the model fixes in advance."""

import random
from fractions import Fraction as F

import pytest

from dynration import (
    FLOAT,
    RATIONAL,
    OracleGrid,
    brute_force_optimal,
    coordinate_ascent,
    extract,
    make_market,
    parse_market,
    serialize_market,
    verify,
)

from gen import random_market


def _scaled(m, c):
    d = m.discounts
    return make_market(
        m.T,
        m.atoms,
        [[c * x for x in row] for row in m.mass],
        None if m.inventory is None else c * m.inventory,
        d.delta,
        d.lambda_s,
        d.lambda_b,
    )


def test_scaling_every_mass_scales_revenue_and_keeps_the_profile():
    # revenue and usage are linear in the masses, so the optimum scales
    # by c and the optimal profile stays; exact mode sees every bit
    rng = random.Random(60)
    for _ in range(40):
        m = random_market(rng, general_lambda=rng.random() < 0.5)
        seed = rng.randrange(10**6)
        base = coordinate_ascent(m, starts=2, seed=seed)
        for c in (F(1, 3), F(2), F(5, 2)):
            scaled = coordinate_ascent(_scaled(m, c), starts=2, seed=seed)
            assert scaled.revenue == c * base.revenue, (m, c)
            assert scaled.profile == base.profile, (m, c)


def test_float_copy_solves_to_the_rational_revenue():
    rng = random.Random(61)
    for _ in range(40):
        m = random_market(rng, general_lambda=rng.random() < 0.5)
        seed = rng.randrange(10**6)
        exact = coordinate_ascent(m, starts=2, seed=seed).revenue
        approx = coordinate_ascent(parse_market(serialize_market(m), FLOAT), starts=2, seed=seed).revenue
        assert abs(approx - float(exact)) <= 1e-7 * abs(float(exact)), m


@pytest.mark.parametrize("unbounded", [False, True], ids=["bounded", "unbounded"])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_extracted_menu_verifies_after_ascent(mode, unbounded):
    # the menu extracted from any ascent output, offered to best-responding
    # buyers, reproduces the profile, its revenue and its utilities
    rng = random.Random(62)
    lotteries = 0
    for _ in range(30):
        m = random_market(rng, mode=mode, unbounded=unbounded, max_periods=4, general_lambda=rng.random() < 0.5)
        report = coordinate_ascent(m, starts=2, seed=rng.randrange(10**6))
        mech = extract(m, report.profile)
        result = verify(m, report.profile, mech)
        assert result.passed, (m, result.violations)
        lotteries += len(mech.lottery_periods())
    assert unbounded or lotteries > 0


def test_scaling_every_mass_scales_the_oracle_and_keeps_its_profile():
    # the grid oracle's exact optimum scales as the solver's does: every
    # profile's revenue and usage scale by c, and so does the inventory
    rng = random.Random(63)
    for _ in range(60):
        m = random_market(rng, max_atoms=2, general_lambda=rng.random() < 0.5)
        base = brute_force_optimal(m)
        for c in (F(1, 3), F(2), F(5, 2)):
            scaled = brute_force_optimal(_scaled(m, c))
            assert scaled.revenue == c * base.revenue, (m, c)
            assert scaled.profile == base.profile, (m, c)


def test_a_zero_mass_atom_leaves_the_oracle_revenue():
    # no buyer holds the inserted value; the grid gains a point to jump at
    # that reaches no revenue
    rng = random.Random(64)
    grid = OracleGrid(levels=("0", "1/2", "1"))
    for _ in range(50):
        m = random_market(rng, max_periods=2, max_atoms=2)
        want = brute_force_optimal(m, grid).revenue
        d = m.discounts
        for extra in (F(1, 24), F(5, 24), F(13, 24), F(23, 24)):
            k = sum(a < extra for a in m.atoms)
            mass = [[*row[:k], 0, *row[k:]] for row in m.mass]
            atoms = [*m.atoms[:k], extra, *m.atoms[k:]]
            padded = make_market(m.T, atoms, mass, m.inventory, d.delta, d.lambda_s, d.lambda_b)
            assert brute_force_optimal(padded, grid).revenue == want, (m, extra)
