"""Order-type classification over the dense linear order.

The backend answers two finitary questions about the ordered rationals:

* `pattern_of_tuple`: the complete order configuration of an n-tuple
  relative to a finite parameter chain, as a canonical string; two
  tuples get equal keys exactly when an order automorphism fixing the
  parameters pointwise maps one to the other.

* `slot_maps`: the inequivalent ways a finite chain can sit relative to
  the parameter chain (each point either equals a parameter or falls in
  one of the gaps), as integer slot maps, counted in closed form by
  `placement_count` and realised by fresh rationals with `realize`.

The canonical key is a merged weak-order word over tokens ``p<i>``
(parameters) and ``c<j>`` (tuple coordinates), e.g. ``p0<c1=c0<p1``.
Keys compare as plain strings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, permutations, product
from typing import Iterable, Iterator, Sequence

Slot = tuple[str, int]  # ("param", i) or ("gap", i)


def parse_point(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
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

    def union(self, other: "ParamSet") -> "ParamSet":
        return ParamSet.of(set(self.points) | set(other.points))

    def to_json(self) -> list[str]:
        return [str(p) for p in self.points]


@dataclass(frozen=True)
class PatternKey:
    """Canonical order type of a tuple over a parameter chain.

    ``slots[j]`` places coordinate j either on a parameter or in a gap
    (gap i is the open interval below parameter i; gap of index equal to
    the parameter count is the unbounded top gap).  ``text`` is the
    canonical merged word, which determines the slots.
    """

    arity: int
    slots: tuple[Slot, ...]
    text: str

    @property
    def is_singleton(self) -> bool:
        return all(kind == "param" for kind, _ in self.slots)

    def singleton_tuple(self, params: ParamSet) -> tuple[Fraction, ...]:
        if not self.is_singleton:
            raise ValueError("pattern has coordinates in gaps")
        return tuple(params.points[i] for _, i in self.slots)


@dataclass(frozen=True)
class ReductSpec:
    """Group choice: "none" keeps the order automorphisms, "pure-set"
    passes to all permutations of the underlying set."""

    kind: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in ("none", "pure-set"):
            raise ValueError(f"unknown reduct {self.kind!r}")


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


class DenseLinearOrder:
    """The ordered rationals.

    `pattern_of_tuple` is constant on orbits of the pointwise parameter
    stabiliser and separates them.  A placement of an m-chain over s
    parameters is a slot map: slot k of 0..2s is gap k//2 when even and
    parameter (k-1)//2 when odd; a slot map is non-decreasing and puts at
    most one point on a parameter.  `realize` and `slot_word` agree with
    `pattern_of_tuple` on every placement.
    """

    def pattern_of_tuple(self, w: Sequence[Fraction], params: ParamSet) -> PatternKey:
        pts = params.points
        w = tuple(Fraction(x) for x in w)
        slots = []
        for x in w:
            i = bisect_left(pts, x)
            slots.append((("gap", "param")[i < len(pts) and pts[i] == x], i))
        return PatternKey(len(w), tuple(slots), merged_word(pts, w))

    def slot_maps(self, m: int, s: int) -> Iterator[tuple[int, ...]]:
        """Every slot map of an m-chain over s parameters, lazily, in
        lexicographic order."""

        def rec(prefix: tuple[int, ...], lo: int) -> Iterator[tuple[int, ...]]:
            if len(prefix) == m:
                yield prefix
            else:
                for k in range(lo, 2 * s + 1):
                    yield from rec(prefix + (k,), k + (k & 1))

        return rec((), 0)

    def placement_count(self, m: int, s: int) -> int:
        """len(list(slot_maps(m, s))) without enumerating: ways[i] counts
        the placements of the first i points into the slots seen so far."""
        ways = [1] + [0] * m
        for k in range(2 * s + 1):
            # a gap takes any number of points, a parameter at most one
            for i in range(m, 0, -1) if k & 1 else range(1, m + 1):
                ways[i] += ways[i - 1]
        return ways[m]

    def realize(self, slot_map: Sequence[int], points: Sequence[Fraction]) -> tuple[Fraction, ...]:
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

    def slot_word(self, idxs: Sequence[int], slots: Sequence[int], s: int) -> str:
        """Pattern text of the tuple of chain points ``idxs`` placed in
        ``slots``; points sharing a gap are ordered by chain index."""
        return merged_word(
            [(2 * i + 1, 0) for i in range(s)],
            [(k, 0 if k & 1 else j) for j, k in zip(idxs, slots)],
        )

    def canonical_orbit_reps(self, n: int) -> list[tuple[Fraction, ...]]:
        if n < 1:
            raise ValueError("arity must be at least 1")
        reps = []
        for tup in product(range(1, n + 1), repeat=n):
            if set(tup) == set(range(1, max(tup) + 1)):
                reps.append(tuple(Fraction(v) for v in tup))
        return reps

    def reduct_expansions(
        self, points: Sequence[Fraction], reduct: ReductSpec
    ) -> list[dict[Fraction, Fraction]]:
        pts = tuple(Fraction(p) for p in points)
        if reduct.kind == "none":
            # identity only: the group is unchanged
            return [dict(zip(pts, pts))]
        return [dict(zip(pts, img)) for img in permutations(pts)]


DLO = DenseLinearOrder()
