import random
from fractions import Fraction as F
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynration.stepfn import (
    DomainError,
    Jump,
    Partition,
    StepFunction,
    mixture,
    segment_refinement,
)

from gen import random_step, spelled


def test_closed_jump_includes_endpoint():
    f = StepFunction.step(1, closed=True)
    assert f.eval(1) == 1
    assert f.eval(F(99, 100)) == 0


def test_open_jump_excludes_endpoint():
    f = StepFunction([0, 1], [Jump(F(1, 2), False)])
    assert f.eval(F(1, 2)) == 0
    assert f.eval(F(51, 100)) == 1
    # open at 1 is the zero function and canonicalizes away
    assert StepFunction.step(1, closed=False).is_zero()


def test_lottery_level_at_atom():
    f = StepFunction.step(F(2, 3), closed=True, high=F(1, 2))
    assert f.eval(F(2, 3)) == F(1, 2)
    assert f.eval(F(2, 3) - F(1, 100)) == 0


def test_eval_outside_domain():
    f = StepFunction.one()
    with pytest.raises(DomainError):
        f.eval(F(3, 2))
    with pytest.raises(DomainError):
        f.eval(-1)


def test_canonicalization_drops_zero_height_jumps():
    f = StepFunction([0, 0, 1], [Jump(F(1, 4), True), Jump(F(1, 2), True)])
    assert f.num_steps == 1
    assert f.jumps[0].at == F(1, 2)


def test_levels_must_be_monotone():
    with pytest.raises(ValueError):
        StepFunction([1, 0], [Jump(F(1, 2), True)])
    with pytest.raises(ValueError):
        StepFunction([0, F(3, 2)], [Jump(F(1, 2), True)])


def test_same_location_pair():
    f = StepFunction([0, F(1, 2), 1], [Jump(F(1, 3), True), Jump(F(1, 3), False)])
    assert f.eval(F(1, 4)) == 0
    assert f.eval(F(1, 3)) == F(1, 2)
    assert f.eval(F(1, 2)) == 1
    with pytest.raises(ValueError):
        StepFunction([0, F(1, 2), 1], [Jump(F(1, 3), False), Jump(F(1, 3), True)])


def test_segment_refinement_examples():
    part = segment_refinement([StepFunction.step(F(1, 2))])
    assert part.points == (0, F(1, 2), 1)
    part3 = segment_refinement([StepFunction.step(F(1, 3)), StepFunction.step(F(2, 3))])
    assert part3.points == (0, F(1, 3), F(2, 3), 1)
    # EX-RATION profile splits at 2/3 and 1
    prof = [StepFunction.step(1), StepFunction.step(F(2, 3), high=F(1, 2))]
    assert segment_refinement(prof).points == (0, F(2, 3), 1)


def test_refinement_inputs_constant_on_open_segments():
    rng = random.Random(11)
    atoms = [F(k, 12) for k in (2, 5, 7, 11)]
    fs = [random_step(rng, atoms) for _ in range(4)]
    part = segment_refinement(fs)
    for f in fs:
        for a, b in zip(part.points, part.points[1:]):
            samples = [a + F(k, 7) * (b - a) for k in (1, 3, 6)]
            assert len({f.eval(s) for s in samples}) == 1


def test_from_values_round_trip():
    rng = random.Random(3)
    atoms = [F(1, 4), F(2, 3), F(9, 10)]
    for _ in range(60):
        f = random_step(rng, atoms)
        part = Partition(atoms)
        assert StepFunction.from_values(part, part.values(f)) == f


def test_mixture_is_pointwise():
    f0 = StepFunction.step(F(1, 3), high=F(1, 2))
    f1 = StepFunction.step(F(2, 3))
    mix = mixture(f0, f1, F(1, 4))
    for v in (0, F(1, 3), F(1, 2), F(2, 3), F(5, 6), 1):
        assert mix.eval(v) == F(1, 4) * f1.eval(v) + F(3, 4) * f0.eval(v)


def test_pointwise_max_handles_tail_override():
    # the max taken piece by piece on the common partition keeps the
    # lottery level at the open tail's own point
    r = StepFunction.step(F(1, 2), high=F(1, 2))
    tail = StepFunction.step(F(3, 4), closed=False)
    part = segment_refinement((r, tail))
    top = StepFunction.from_values(part, [max(a, b) for a, b in zip(part.values(r), part.values(tail))])
    assert top.eval(F(3, 4)) == F(1, 2)
    assert top.eval(F(4, 5)) == 1


@given(st.integers(0, 2**32 - 1))
def test_eval_monotone_in_v(seed):
    rng = random.Random(seed)
    atoms = sorted(rng.sample([F(k, 12) for k in range(1, 13)], 3))
    f = random_step(rng, atoms)
    grid = sorted(atoms + [0, 1, F(1, 24), F(23, 24)])
    values = [f.eval(v) for v in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_partition_integrate_partial_gap():
    part = Partition([F(1, 2)])
    vals = part.values(StepFunction.step(F(1, 2)))
    assert part.prefix_integrals(vals[1::2]) == [0, 0, F(1, 2)]


def test_prefix_integrals_keep_the_full_sums_values_and_types():
    # a leading run of exact Fraction zeros takes no arithmetic; every entry
    # must still be the full accumulation's, by type and repr, for int,
    # Fraction, float and numpy gap values, on exact, float and mixed points
    # and on the partition {0, 1}, whose one width is the int 1
    rng = random.Random(2601)
    zeros = [0, F(0), 0.0, np.float64(0), np.zeros(2)]
    others = [1, F(1), F(1, 3), 1.0, 0.25, np.float64(0.5), np.array([0.0, 0.5]), np.array([F(0), F(1, 2)])]
    for _ in range(300):
        pts = sorted(rng.sample([F(k, 12) for k in range(1, 12)], rng.randint(0, 3)))
        if rng.random() < 0.3:
            pts = [float(p) for p in pts]
        elif rng.random() < 0.3:
            pts = [float(p) if k else p for k, p in enumerate(pts)]
        part = Partition(pts)
        widths = [b - a for a, b in zip(part.points, part.points[1:])]
        lead = rng.randint(0, len(widths))
        values = [rng.choice(zeros[:2] if rng.random() < 0.7 else zeros) for _ in range(lead)]
        values += [rng.choice(zeros + others) for _ in range(len(widths) - lead)]
        want = list(accumulate(map(mul, values, widths), initial=0))
        assert spelled(part.prefix_integrals(values)) == spelled(want)
        assert spelled(part.prefix_integrals(tuple(values))) == spelled(want)
        # the gap values as one numpy array, of floats or of Fractions
        for array in (np.array([rng.choice([0.0, 0.5]) for _ in widths]),
                      np.array([rng.choice([F(0), F(0), F(1, 2)]) for _ in widths], dtype=object)):
            want = list(accumulate(map(mul, array, widths), initial=0))
            assert spelled(part.prefix_integrals(array)) == spelled(want)


def _random_partition_step(rng):
    """Partition with 0 and 1 plus random points; a step on some of them.

    Jumps may sit at 0 and at 1, and one point may carry a closed+open pair.
    """
    pts = sorted({F(0), F(1), *rng.sample([F(k, 12) for k in range(1, 12)], rng.randint(0, 4))})
    tokens = {(p, rng.random() < 0.5) for p in rng.sample(pts, rng.randint(0, len(pts)))}
    if rng.random() < 0.5:
        pair = rng.choice(pts)
        tokens |= {(pair, True), (pair, False)}
    jumps = sorted((Jump(p, c) for p, c in tokens), key=Jump.token)
    levels = sorted(rng.sample([F(k, 16) for k in range(17)], len(jumps) + 1))
    return Partition(pts), StepFunction(levels, jumps)


def test_partition_values_match_pointwise_evaluation():
    rng = random.Random(41)
    for _ in range(300):
        part, f = _random_partition_step(rng)
        want = []
        for k, p in enumerate(part.points):
            want.append(f.eval(p))
            if k + 1 < len(part.points):
                want.append(f.eval((p + part.points[k + 1]) / 2))
        assert part.values(f) == want, f


def test_partition_values_pair_and_endpoint_jumps():
    f = StepFunction([0, F(1, 4), F(1, 2), F(3, 4), 1],
                     [Jump(0, False), Jump(F(1, 2), True), Jump(F(1, 2), False), Jump(1, True)])
    assert Partition([F(1, 2)]).values(f) == [0, F(1, 4), F(1, 2), F(3, 4), 1]


def test_partition_values_reject_jumps_off_the_points():
    rng = random.Random(42)
    for _ in range(100):
        part, _ = _random_partition_step(rng)
        off = rng.choice([x for x in (F(k, 24) for k in range(1, 24)) if x not in part.points])
        for closed in (True, False):
            with pytest.raises(ValueError, match="not a partition point"):
                part.values(StepFunction.step(off, closed, high=F(1, 2)))
