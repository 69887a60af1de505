"""Cross-validation on finite grids, independent of the orbit-sum reduction.

Restricting the group to increasing maps into a finite integer grid
approximates the module from below: every combination of grid-placed
generators is a genuine member, so a hit yields an explicit witness,
while a miss says nothing (there is no a-priori bound on the support a
witness may need).  The decider's verdicts are checked against this
under-approximation in the randomized suite.

The search works on grid positions 0..size-1 (position i stands for the
grid point i + 1): generators and target alike are placed by indexing
their chain skeletons, columns are position tuples, and only the
summands of a hit become vectors, as an `ExplicitWitness`.

Grids are searched from small to large, and a hit on one grid is a hit
on every larger one: the placed rows, their columns and the target's
embeddings only grow.  So after a miss on the first grid the last grid
is probed for membership alone, and the grids in between are built
(with provenance, for the witness) only when an embedding survives it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from permod.linalg import make_span
from permod.pmod import (
    ModVector,
    act,
    chain_skeleton,
    check_family,
    support_points,
    translate_onto,
)
from permod.ring import QQ, RingSpec, Scalar
from permod.structure import realize, slot_map_of


@dataclass(frozen=True)
class ExplicitWitness:
    """Summands (coefficient, acted generator) adding up to the target."""

    summands: tuple[tuple[Scalar, ModVector], ...]

    def evaluate(self, ring: RingSpec, arity: int) -> ModVector:
        total = ModVector.zero(ring, arity)
        for coeff, vec in self.summands:
            total = total.add(vec.scale(coeff))
        return total

    def to_json(self) -> dict:
        summands = [{"coeff": v.ring.format(c), "vector": v.to_json()} for c, v in self.summands]
        return {"type": "explicit-witness", "summands": summands}


def _placed_on_grid(generators: Sequence[ModVector], size: int) -> list:
    """(skeleton, positions) for every increasing map of every generator's
    support chain into the grid positions."""
    placed = []
    for g in generators:
        chain, skeleton = chain_skeleton(g)
        if len(chain) > size:
            raise ValueError(
                f"grid too small: {size} points cannot hold a "
                f"{len(chain)}-point support chain"
            )
        placed.extend((skeleton, idxs) for idxs in combinations(range(size), len(chain)))
    return placed


def _span_of_placed(placed: Sequence, ring: RingSpec, provenance: bool = True):
    rows = [[(tuple(idxs[i] for i in t), c) for t, c in skeleton] for skeleton, idxs in placed]
    columns = sorted({t for row in rows for t, _ in row})
    col = {t: i for i, t in enumerate(columns)}
    engine = make_span(ring, reduced=False, provenance=provenance)
    for row in rows:
        engine.insert((col[t], c) for t, c in row)
    return engine, columns, col


def grid_span(generators: Sequence[ModVector], size: int) -> list[ModVector]:
    """A spanning basis of all images of the generators under increasing
    maps into the grid points 1..size, as vectors.

    Fields give row-echelon rows in first-seen order; Z gives the
    triangular lattice basis in canonical (above-reduced) form.
    """
    generators = list(generators)
    if not generators:
        return []
    check_family(generators)
    ring, arity = generators[0].ring, generators[0].arity
    engine, columns, _ = _span_of_placed(_placed_on_grid(generators, size), ring, provenance=False)
    points = [tuple(i + 1 for i in t) for t in columns]
    return [ModVector.from_terms(ring, arity, [(points[c], v) for c, v in row.items()])
            for _, row in sorted(engine.basis_pairs(), key=lambda pr: pr[0])]


@dataclass(frozen=True)
class OracleResult:
    status: str  # "yes" | "inconclusive"
    witness: ExplicitWitness | None = None
    grid_size: int | None = None

    @property
    def conclusive(self) -> bool:
        return self.status == "yes"


def oracle_membership(
    target: ModVector,
    generators: Sequence[ModVector],
    max_grid: int,
) -> OracleResult:
    """Search growing integer grids for an explicit witness.

    The grids run from support size + 2 (at least the longest generator
    chain) up to ``max_grid`` in steps of 2.  On a grid, every
    order-embedding of the target's support into the grid is tried
    against the span of the placed generators; the first hit is unmapped
    back to the original coordinates.  Never conclusive for NO.

    Past a first-grid miss, a membership-only probe of the last grid
    runs first: hits only grow with the grid, so if no embedding
    survives there, no grid can hit.  Otherwise the later grids are
    searched in order, and the first hit is the same.
    """
    generators = list(generators)
    check_family([target, *generators])
    ring, arity = target.ring, target.arity
    anchors, target_skeleton = chain_skeleton(target)
    longest = max((len(support_points(g).points) for g in generators), default=0)
    start = max(len(anchors) + 2, longest, 1)

    def embedded(size: int, provenance: bool = True):
        # (engine, placed, positions, target row) per embedding into grid columns
        placed = _placed_on_grid(generators, size)
        engine, _, col = _span_of_placed(placed, ring, provenance)
        for idxs in combinations(range(size), len(anchors)):
            row = [(col.get(tuple(idxs[i] for i in t)), c) for t, c in target_skeleton]
            if all(j is not None for j, _ in row):
                yield engine, placed, idxs, row

    sizes = range(start, max_grid + 1, 2)
    for size in sizes:
        if size == start + 2 and all(e.residue(row) for e, *_, row in embedded(sizes[-1], False)):
            break
        for engine, placed, idxs, row in embedded(size):
            comb = engine.reduce_comb(row)
            if comb is None:
                continue
            values = realize(slot_map_of(range(size), idxs), anchors)
            witness = ExplicitWitness(tuple(
                (c, translate_onto(placed[j][0], ring, arity, [values[i] for i in placed[j][1]]))
                for j, c in sorted(comb.items()) if c != 0
            ))
            if witness.evaluate(ring, arity) != target:
                raise AssertionError("grid witness failed exact re-evaluation")
            return OracleResult("yes", witness, size)
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
