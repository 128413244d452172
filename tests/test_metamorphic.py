"""Metamorphic properties of the solver: transformations of a market whose
effect on the optimum the model fixes in advance."""

import random
from fractions import Fraction as F

from dynration import FLOAT, coordinate_ascent, make_market, parse_market, serialize_market

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
