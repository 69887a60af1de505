"""Reference path for the placement stream: every placement realised as a
concrete chain, and every representative built as a vector.  The library
streams integer slot maps instead; the tests compare the two."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from permod.pmod import ModVector, chain_skeleton, translate_onto
from permod.structure import ParamSet, realize

Slot = tuple[str, int]  # ("param", i) or ("gap", i)


def slot_maps(m: int, s: int) -> Iterator[tuple[int, ...]]:
    """Every slot map of an m-chain over s parameters, lazily, in
    lexicographic order: the order `placed_rows` searches them in."""

    def rec(prefix: tuple[int, ...], lo: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == m:
            yield prefix
        else:
            for k in range(lo, 2 * s + 1):
                yield from rec(prefix + (k,), k + (k & 1))

    return rec((), 0)


@dataclass(frozen=True)
class Placement:
    """A monotone assignment of a chain into slots, realized."""

    slots: tuple[Slot, ...]
    images: tuple[Fraction, ...]


def enumerate_placements(source_points: Sequence[Fraction], params: ParamSet) -> list[Placement]:
    """The inequivalent ways a strictly increasing chain can sit relative
    to the parameter chain, each with its canonical realization."""
    source = tuple(Fraction(x) for x in source_points)
    for a, b in zip(source, source[1:]):
        if a >= b:
            raise ValueError("source points must be strictly increasing")
    return [
        Placement(tuple((("gap", "param")[k & 1], k // 2) for k in slot_map),
                  realize(slot_map, params.points))
        for slot_map in slot_maps(len(source), params.size)
    ]


def orbit_reps_over(v: ModVector, params: ParamSet) -> list[ModVector]:
    """One vector per orbit of the parameter stabiliser on the full orbit
    of v: apply every placement of the support chain of v."""
    chain, skeleton = chain_skeleton(v)
    return [
        translate_onto(skeleton, v.ring, v.arity, placement.images)
        for placement in enumerate_placements(chain, params)
    ]
