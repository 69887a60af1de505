"""Order-type classification over the dense linear order (Q, <).

Plain functions over one placement encoding, the integer slot map:

* `pattern_of_tuple`: the complete order configuration of an n-tuple
  relative to a finite parameter chain, as a canonical string; two
  tuples get equal keys exactly when an order automorphism fixing the
  parameters pointwise maps one to the other.

* slot maps: the inequivalent ways a finite chain can sit relative to
  the parameter chain (slot ``2i`` is gap i, the open interval below
  parameter i or the top gap when i is the parameter count; slot
  ``2i+1`` is parameter i).  A slot map is non-decreasing and puts at
  most one point on a parameter.  `pmod.placed_rows` searches them in
  lexicographic order, `slot_map_of` reads the slot map of a concrete
  chain, `placement_count` counts them in closed form and `realize`
  builds fresh rationals for one.

The canonical key is a merged weak-order word over tokens ``p<i>``
(parameters) and ``c<j>`` (tuple coordinates), e.g. ``p0<c1=c0<p1``.
Keys compare as plain strings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from typing import Iterable, Sequence

from permod.ring import QQ


def parse_point(text: str) -> Fraction:
    """A rational point written like a Q scalar: ``a`` or ``a/b``."""
    try:
        return QQ.parse(text)
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


@dataclass(frozen=True)
class ParamSet:
    """A strictly increasing finite chain of rational parameter points."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pts = tuple(Fraction(p) for p in self.points)
        for a, b in zip(pts, pts[1:]):
            if a >= b:
                raise ValueError("parameter points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, points: Iterable) -> "ParamSet":
        pts = [Fraction(p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate parameter point")
        return cls(tuple(sorted(pts)))

    @classmethod
    def empty(cls) -> "ParamSet":
        return cls(())

    @property
    def size(self) -> int:
        return len(self.points)

    def issuperset(self, other: "ParamSet") -> bool:
        return set(self.points) >= set(other.points)

    def to_json(self) -> list[str]:
        return [str(p) for p in self.points]


def gap_values(lo: Fraction | None, hi: Fraction | None, count: int) -> list[Fraction]:
    """``count`` fresh increasing rationals strictly inside the gap.

    Bounded gaps subdivide dyadically (one point lands on the midpoint);
    unbounded gaps use unit offsets.  Deterministic by construction.
    """
    if count == 0:
        return []
    if lo is None and hi is None:
        return [Fraction(j) for j in range(1, count + 1)]
    if lo is None:
        return [hi - count + j for j in range(count)]
    if hi is None:
        return [lo + j for j in range(1, count + 1)]
    d = 1 << count.bit_length()
    return [lo + (hi - lo) * Fraction(j, d) for j in range(1, count + 1)]


def merged_word(ppos: Sequence, cpos: Sequence) -> str:
    """Canonical merged weak-order word of coordinates against parameters,
    from their sort positions (the values, or any order-equivalent
    stand-in): tokens p<i> then c<j> within an equality class, classes
    joined by "<", members by "="."""
    items = [(x, 0, i) for i, x in enumerate(ppos)]
    items += [(x, 1, j) for j, x in enumerate(cpos)]
    items.sort()
    parts = []
    prev = None
    for val, kind, idx in items:
        tok = "pc"[kind] + str(idx)
        parts.append(("=" if val == prev else "<") + tok if parts else tok)
        prev = val
    return "".join(parts)


def pattern_of_tuple(w: Sequence[Fraction], params: ParamSet) -> str:
    """The canonical key of w over params; constant on orbits of the
    pointwise parameter stabiliser and separating them."""
    return merged_word(params.points, w)


def slot_map_of(chain: Sequence[Fraction], points: Sequence[Fraction]) -> tuple[int, ...]:
    """The slot map of an increasing chain over the parameter points."""
    slots = []
    for x in chain:
        i = bisect_left(points, x)
        slots.append(2 * i + (i < len(points) and points[i] == x))
    return tuple(slots)


def placement_count(m: int, s: int) -> int:
    """The number of slot maps of an m-chain over s parameters, without
    enumerating: ways[i] counts the placements of the first i points into
    the slots seen so far."""
    ways = [1] + [0] * m
    for k in range(2 * s + 1):
        # a gap takes any number of points, a parameter at most one
        for i in range(m, 0, -1) if k & 1 else range(1, m + 1):
            ways[i] += ways[i - 1]
    return ways[m]


def realize(slot_map: Sequence[int], points: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The canonical images of one placement: the parameter itself on a
    parameter slot, `gap_values` for the run of points sharing a gap."""
    images: list[Fraction] = []
    for k, run in groupby(slot_map):
        g = k // 2
        if k & 1:
            images.append(points[g])
        else:
            bounds = (points[g - 1] if g else None, points[g] if g < len(points) else None)
            images.extend(gap_values(*bounds, len(list(run))))
    return tuple(images)


def slot_word(idxs: Sequence[int], slots: Sequence[int], s: int) -> str:
    """Pattern text of the tuple of chain points ``idxs`` placed in
    ``slots``; points sharing a gap are ordered by chain index.  Agrees
    with `pattern_of_tuple` on `realize` of every placement."""
    return merged_word(
        [(2 * i + 1, 0) for i in range(s)],
        [(k, 0 if k & 1 else j) for j, k in zip(idxs, slots)],
    )


def canonical_orbit_reps(n: int) -> list[tuple[Fraction, ...]]:
    """One n-tuple per orbit of the order automorphisms: every weak order
    of n coordinates, written with values 1..k."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    reps = []
    for tup in product(range(1, n + 1), repeat=n):
        if set(tup) == set(range(1, max(tup) + 1)):
            reps.append(tuple(Fraction(v) for v in tup))
    return reps
