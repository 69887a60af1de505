"""Cross-validation on finite grids, independent of the orbit-sum reduction.

Restricting the group to increasing maps into a finite integer grid
approximates the module from below: every combination of grid-placed
generators is a genuine member, so a hit yields an explicit witness,
while a miss says nothing (there is no a-priori bound on the support a
witness may need).  The decider's verdicts are checked against this
under-approximation in the randomized suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from permod.linalg import IntegerSpan, make_span
from permod.pmod import (
    ModVector,
    act,
    chain_skeleton,
    check_family,
    support_points,
    translate_onto,
)
from permod.ring import QQ, RingSpec, Scalar
from permod.structure import gap_values


@dataclass(frozen=True)
class Grid:
    """A strictly increasing finite chain of rationals."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pts = tuple(Fraction(p) for p in self.points)
        for a, b in zip(pts, pts[1:]):
            if a >= b:
                raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def integers(cls, n: int) -> "Grid":
        return cls(tuple(Fraction(i) for i in range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.points)


def _placed_on_grid(generators: Sequence[ModVector], grid: Grid):
    """Every image of every generator under increasing maps into the grid."""
    placed: list[ModVector] = []
    for g in generators:
        chain, skeleton = chain_skeleton(g)
        if len(chain) > grid.size:
            raise ValueError(
                f"grid too small: {grid.size} points cannot hold a "
                f"{len(chain)}-point support chain"
            )
        for idxs in combinations(range(grid.size), len(chain)):
            images = tuple(grid.points[i] for i in idxs)
            placed.append(translate_onto(skeleton, g.ring, g.arity, images))
    return placed


def _span_of_placed(placed: Sequence[ModVector], ring: RingSpec):
    columns = sorted({tup for v in placed for tup, _ in v.terms})
    col = {t: i for i, t in enumerate(columns)}
    engine = make_span(ring, reduced=False)
    for v in placed:
        engine.insert((col[t], c) for t, c in v.terms)
    return engine, columns, col


def grid_span(generators: Sequence[ModVector], grid: Grid) -> list[ModVector]:
    """A spanning basis of all grid-placed generator images, as vectors.

    Fields give row-echelon rows in first-seen order; Z gives the
    triangular lattice basis in canonical (above-reduced) form.
    """
    generators = list(generators)
    if not generators:
        return []
    check_family(generators)
    ring = generators[0].ring
    arity = generators[0].arity
    placed = _placed_on_grid(generators, grid)
    engine, columns, _ = _span_of_placed(placed, ring)
    if isinstance(engine, IntegerSpan):
        engine.hnf_normalize()
    rows = sorted(engine.basis_pairs(), key=lambda pr: pr[0])
    return [
        ModVector.from_terms(ring, arity, [(columns[c], v) for c, v in row.items()])
        for _, row in rows
    ]


@dataclass(frozen=True)
class OracleResult:
    status: str  # "yes" | "inconclusive"
    witness: tuple[tuple[Scalar, ModVector], ...] | None = None
    grid_size: int | None = None

    @property
    def conclusive(self) -> bool:
        return self.status == "yes"


def _unmap_grid(
    anchors: Sequence[Fraction], idxs: Sequence[int], grid: Grid
) -> dict[Fraction, Fraction]:
    """Extend the inverse of an anchoring injection to the whole grid,
    staying strictly increasing: integer offsets outside the anchored
    range, deterministic in-gap values between anchors."""
    n = grid.size
    values: list[Fraction] = [Fraction(0)] * n
    if not idxs:
        return dict(zip(grid.points, gap_values(None, None, n)))
    for a, i in zip(anchors, idxs):
        values[i] = a
    first, last = idxs[0], idxs[-1]
    for j in range(first):
        values[j] = anchors[0] - (first - j)
    for j in range(last + 1, n):
        values[j] = anchors[-1] + (j - last)
    for k in range(len(idxs) - 1):
        lo_i, hi_i = idxs[k], idxs[k + 1]
        between = gap_values(anchors[k], anchors[k + 1], hi_i - lo_i - 1)
        for off, j in enumerate(range(lo_i + 1, hi_i)):
            values[j] = between[off]
    return dict(zip(grid.points, values))


def oracle_membership(
    target: ModVector,
    generators: Sequence[ModVector],
    max_grid: int,
) -> OracleResult:
    """Search growing integer grids for an explicit witness.

    The grid starts at support size + 2 (at least the longest generator
    chain) and grows by 2 up to ``max_grid``.  On each grid, every
    order-embedding of the target's support into the grid is tried
    against the span of the placed generators; the first hit is unmapped
    back to the original coordinates.  Never conclusive for NO.
    """
    generators = list(generators)
    check_family([target, *generators])
    ring = target.ring
    anchors = support_points(target).points
    m = len(anchors)
    longest = max((len(support_points(g).points) for g in generators), default=0)
    start = max(m + 2, longest, 1)
    for size in range(start, max_grid + 1, 2):
        grid = Grid.integers(size)
        placed = _placed_on_grid(generators, grid)
        engine, _, col = _span_of_placed(placed, ring)
        for idxs in combinations(range(size), m):
            sigma = {p: grid.points[i] for p, i in zip(anchors, idxs)}
            moved = act(target, sigma)
            if any(t not in col for t, _ in moved.terms):
                continue
            comb = engine.reduce_comb((col[t], c) for t, c in moved.terms)
            if comb is None:
                continue
            unmap = _unmap_grid(anchors, idxs, grid)
            summands = tuple(
                (c, act(placed[j], unmap)) for j, c in sorted(comb.items()) if c != 0
            )
            witness_sum = ModVector.zero(ring, target.arity)
            for c, v in summands:
                witness_sum = witness_sum.add(v.scale(c))
            if witness_sum != target:
                raise AssertionError("grid witness failed exact re-evaluation")
            return OracleResult("yes", summands, size)
    return OracleResult("inconclusive")


@dataclass(frozen=True)
class InstanceProfile:
    """Shape of a random instance; all sizes are upper bounds."""

    arity: int = 2
    max_support: int = 4
    coeff_pool: tuple[int, ...] = (-2, -1, 1, 2)
    ring: RingSpec = QQ
    point_pool: int = 4

    def __post_init__(self) -> None:
        for name in ("arity", "max_support", "point_pool"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # otherwise every drawn vector is zero and drawing never ends
        if all(self.ring.is_zero(self.ring.normalize(c)) for c in self.coeff_pool):
            raise ValueError(f"coeff_pool holds no coefficient nonzero in {self.ring.name}")

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "maxSupport": self.max_support,
            "coeffPool": list(self.coeff_pool),
            "ring": self.ring.name,
            "pointPool": self.point_pool,
        }


@dataclass(frozen=True)
class Instance:
    seed: int
    target: ModVector
    generators: tuple[ModVector, ...]
    planted: bool


def random_instance(seed: int, profile: InstanceProfile = InstanceProfile()) -> Instance:
    """Deterministic random instance: half the time the target is planted
    as an exact combination of acted generators (so membership must hold),
    otherwise one coefficient of that combination is perturbed and the
    status is unknown."""
    rng = random.Random(seed)
    ring = profile.ring
    n = rng.randint(1, profile.arity)
    pool = [Fraction(i) for i in range(profile.point_pool)]

    def rand_vector() -> ModVector:
        while True:
            count = rng.randint(1, profile.max_support)
            items = [
                (
                    tuple(rng.choice(pool) for _ in range(n)),
                    rng.choice(profile.coeff_pool),
                )
                for _ in range(count)
            ]
            v = ModVector.from_terms(ring, n, items)
            if not v.is_zero:
                return v

    def rand_increasing_map(v: ModVector) -> dict[Fraction, Fraction]:
        pts = support_points(v).points
        images = sorted(rng.sample(range(profile.point_pool), len(pts)))
        return {p: Fraction(q) for p, q in zip(pts, images)}

    gens = tuple(rand_vector() for _ in range(rng.randint(1, 2)))
    total = ModVector.zero(ring, n)
    for g in gens:
        for _ in range(rng.randint(1, 2)):
            coeff = rng.choice(profile.coeff_pool)
            total = total.add(act(g, rand_increasing_map(g)).scale(coeff))

    planted = rng.random() < 0.5
    if planted:
        target = total
    elif total.is_zero:
        tup = tuple(rng.choice(pool) for _ in range(n))
        target = ModVector.from_terms(ring, n, [(tup, rng.choice(profile.coeff_pool))])
    else:
        terms = list(total.terms)
        i = rng.randrange(len(terms))
        tup, c = terms[i]
        terms[i] = (tup, ring.add(c, ring.normalize(rng.choice(profile.coeff_pool))))
        target = ModVector.from_terms(ring, n, terms)
    return Instance(seed, target, gens, planted)
