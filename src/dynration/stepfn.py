"""Monotone step functions on [0, 1] and exact piecewise integration.

Allocation rules are monotone non-decreasing, piecewise-constant maps from
bid space [0, 1] into service probabilities [0, 1]. Buyer mass sits on
atoms, so a jump must say whether the jump point itself already takes the
new level (left-closed) or keeps the old one (left-open): the choice moves
atom sums discontinuously while Lebesgue integrals never see it.

A location may carry a closed jump followed by an open jump, which gives
the function a distinct value at exactly that point. Mixtures of the two
single-step indicators ``1[a <= x]`` and ``1[a < x]`` have this shape, and
the exact per-period optimizer needs them as candidates.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, NamedTuple, Sequence


class DomainError(ValueError):
    """Evaluation outside [0, 1]."""


class Jump(NamedTuple):
    at: object
    closed: bool

    def token(self):
        # Sortable key: closed jumps precede open jumps at the same location.
        return (self.at, 0 if self.closed else 1)


class StepFunction:
    """Canonical monotone step function on [0, 1].

    ``levels[k]`` is the value after the first ``k`` jumps; evaluation at v
    counts the jumps passed, where a closed jump at v counts and an open one
    does not. The representation is canonical: no zero-height jumps, no
    jump closed at 0 (its pre-piece is empty) and none open at 1.
    """

    __slots__ = ("levels", "jumps", "_tokens")

    def __init__(self, levels: Sequence, jumps: Sequence = ()):
        levels = list(levels)
        jumps = [Jump(at, bool(closed)) for at, closed in jumps]
        if len(levels) != len(jumps) + 1:
            raise ValueError("need exactly one more level than jumps")
        for j in jumps:
            if j.at < 0 or j.at > 1:
                raise ValueError(f"jump location {j.at} outside [0, 1]")
        for a, b in zip(jumps, jumps[1:]):
            if not (a.at < b.at or (a.at == b.at and a.closed and not b.closed)):
                raise ValueError("jumps must increase (closed before open at a shared location)")
        # Degenerate edge pieces: [0, 0) before a closed jump at 0, (1, 1]
        # after an open jump at 1.
        if jumps and jumps[0] == (0, True):
            del jumps[0], levels[0]
        if jumps and jumps[-1] == (1, False):
            del jumps[-1], levels[-1]
        keep_levels, keep_jumps = [levels[0]], []
        for j, lvl in zip(jumps, levels[1:]):
            if lvl != keep_levels[-1]:
                keep_jumps.append(j)
                keep_levels.append(lvl)
        for lo, hi in zip(keep_levels, keep_levels[1:]):
            if not lo < hi:
                raise ValueError("levels must be non-decreasing")
        if keep_levels[0] < 0 or keep_levels[-1] > 1:
            raise ValueError("levels must lie in [0, 1]")
        self.levels = tuple(keep_levels)
        self.jumps = tuple(keep_jumps)
        self._tokens = [j.token() for j in self.jumps]

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c) -> "StepFunction":
        return cls([c])

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls([0])

    @classmethod
    def one(cls) -> "StepFunction":
        return cls([1])

    @classmethod
    def step(cls, at, closed: bool = True, *, low=0, high=1) -> "StepFunction":
        """``low`` below the jump, ``high`` at/above it per the flag."""
        if (at == 0 and closed) or (at == 1 and not closed):
            return cls.constant(high if at == 0 else low)
        return cls([low, high], [Jump(at, closed)])

    @classmethod
    def from_values(cls, partition: "Partition", values: Sequence) -> "StepFunction":
        """Rebuild a step function from its per-piece values on a partition."""
        pts = partition.points
        if len(values) != partition.npieces:
            raise ValueError("one value per partition piece required")
        levels = [values[0]]
        jumps = []
        for k, p in enumerate(pts):
            at_point = values[2 * k]
            left = values[2 * k - 1] if k > 0 else None
            right = values[2 * k + 1] if k + 1 < len(pts) else None
            if left is not None and at_point != left:
                jumps.append(Jump(p, True))
                levels.append(at_point)
            if right is not None and right != at_point:
                jumps.append(Jump(p, False))
                levels.append(right)
        return cls(levels, jumps)

    # -- evaluation ------------------------------------------------------

    def eval(self, v):
        if v < 0 or v > 1:
            raise DomainError(f"value {v} outside [0, 1]")
        return self.levels[bisect.bisect_right(self._tokens, (v, 0))]

    __call__ = eval

    # -- structure -------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return len(self.jumps)

    @property
    def jump_locations(self) -> tuple:
        return tuple(j.at for j in self.jumps)

    def is_zero(self) -> bool:
        return not self.jumps and self.levels[0] == 0

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction)
            and self.levels == other.levels
            and self.jumps == other.jumps
        )

    def __hash__(self):
        return hash((self.levels, self.jumps))

    def __repr__(self):
        if not self.jumps:
            return f"StepFunction.constant({self.levels[0]!r})"
        parts = [f"{self.levels[0]!r}"]
        for j, lvl in zip(self.jumps, self.levels[1:]):
            parts.append(f"{'[' if j.closed else '('}{j.at!r}-> {lvl!r}")
        return f"StepFunction<{' '.join(parts)}>"


class Partition:
    """Pointed partition of [0, 1]: alternating point and open-gap pieces.

    With points ``p_0 = 0 < ... < p_m = 1`` the pieces are
    ``{p_0}, (p_0, p_1), {p_1}, ..., {p_m}`` (``2m + 1`` of them). Every
    step function whose jumps lie on the points is constant on each piece,
    which reduces all integrals and atom sums to per-piece arithmetic.
    """

    __slots__ = ("points", "widths", "_index")

    def __init__(self, points: Iterable):
        pts = sorted(set(points) | {0, 1})
        if pts[0] < 0 or pts[-1] > 1:
            raise DomainError("partition points must lie in [0, 1]")
        self.points = tuple(pts)
        self.widths = tuple(b - a for a, b in zip(pts, pts[1:]))  # gap k is p_{k+1} - p_k long
        self._index = {p: k for k, p in enumerate(pts)}

    @property
    def npieces(self) -> int:
        return 2 * len(self.points) - 1

    def piece_of_point(self, v) -> int:
        return 2 * self._index[v]

    def values(self, f: StepFunction) -> list:
        """Per-piece values of ``f``; raises if a jump sits off the points.

        One merge pass: at each point the closed jump there (if any) is
        passed before the point's value is read, the open one before the
        gap's value is read.
        """
        jumps, levels = f.jumps, f.levels
        j, nj, last = 0, len(jumps), len(self.points) - 1
        out = []
        for k, p in enumerate(self.points):
            if j < nj and jumps[j].at < p:
                raise ValueError(f"jump at {jumps[j].at} is not a partition point")
            if j < nj and jumps[j].at == p and jumps[j].closed:
                j += 1
            out.append(levels[j])
            if k < last:
                if j < nj and jumps[j].at == p:
                    j += 1
                out.append(levels[j])
        return out

    def prefix_integrals(self, gap_values: Sequence) -> list:
        """``∫_0^{p_k}`` of the function worth ``gap_values[k]`` on gap k, one entry per point.

        The list is ``accumulate(map(mul, gap_values, widths), initial=0)``,
        by type too. Gap values are mostly 0 on the lowest gaps, where no
        later period sells. A leading run of exact ``Fraction`` zeros on
        int or ``Fraction`` widths adds ``Fraction(0)`` at each gap, so that
        run takes no arithmetic; other values take the full accumulation.
        """
        widths = self.widths
        zero = gap_values[0]  # one value per gap, and a partition has at least one gap
        if type(zero) is not Fraction or zero or isinstance(widths[0], float):
            return list(accumulate(map(mul, gap_values, widths), initial=0))
        lead = 1
        for g, w in zip(gap_values[1:], widths[1:]):
            if type(g) is not Fraction or g or isinstance(w, float):
                break
            lead += 1
        rest = accumulate(map(mul, gap_values[lead:], widths[lead:]), initial=zero)
        return [0, *repeat(zero, lead - 1), *rest]


def segment_refinement(fs: Iterable[StepFunction], points: Iterable = ()) -> Partition:
    """Minimal common partition: every input is constant on each open gap.

    Extra ``points`` (market atoms, typically) are merged in as degenerate
    boundaries so that atom sums can use the same piece arithmetic.
    """
    cuts = set(points)
    for f in fs:
        cuts.update(f.jump_locations)
    return Partition(cuts)


def mixture(f0: StepFunction, f1: StepFunction, theta) -> StepFunction:
    """Pointwise convex combination ``theta * f1 + (1 - theta) * f0``."""
    part = segment_refinement((f0, f1))
    return StepFunction.from_values(
        part, [theta * b + (1 - theta) * a for a, b in zip(part.values(f0), part.values(f1))]
    )

