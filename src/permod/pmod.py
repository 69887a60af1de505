"""Vectors of the permutation module: finite formal sums of rational
n-tuples with exact coefficients, the action of increasing maps, and the
orbitwise coefficient-sum maps over finite parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from permod.ring import RingError, RingSpec, Scalar
from permod.structure import ParamSet, parse_point, pattern_of_tuple, slot_word

Tuple_ = tuple[Fraction, ...]


@dataclass(frozen=True)
class ModVector:
    """A formal R-linear combination of rational n-tuples.

    Terms are stored sorted lexicographically by tuple, with no zero
    coefficients, so equal vectors compare equal structurally.
    """

    ring: RingSpec
    arity: int
    terms: tuple[tuple[Tuple_, Scalar], ...]

    @classmethod
    def from_terms(
        cls, ring: RingSpec, arity: int, items: Iterable[tuple[Sequence, object]]
    ) -> "ModVector":
        if arity < 1:
            raise ValueError("arity must be at least 1")
        acc: dict[Tuple_, Scalar] = {}
        for tup, coeff in items:
            tup = tuple(Fraction(x) for x in tup)
            if len(tup) != arity:
                raise ValueError(f"tuple {tup} does not have arity {arity}")
            c = ring.add(acc.get(tup, ring.zero()), ring.normalize(coeff))
            if ring.is_zero(c):
                acc.pop(tup, None)
            else:
                acc[tup] = c
        return cls(ring, arity, tuple(sorted(acc.items())))

    @classmethod
    def zero(cls, ring: RingSpec, arity: int) -> "ModVector":
        return cls(ring, arity, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ModVector") -> "ModVector":
        _check_compatible(self, other)
        return ModVector.from_terms(
            self.ring, self.arity, list(self.terms) + list(other.terms)
        )

    def scale(self, c) -> "ModVector":
        c = self.ring.normalize(c)
        return ModVector.from_terms(
            self.ring, self.arity, [(t, self.ring.mul(c, v)) for t, v in self.terms]
        )

    def neg(self) -> "ModVector":
        return ModVector(
            self.ring, self.arity, tuple((t, self.ring.neg(v)) for t, v in self.terms)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for tup, coeff in self.terms:
            point = "(" + ",".join(str(x) for x in tup) + ")"
            bits.append(f"{self.ring.format(coeff)}*{point}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.name,
            "arity": self.arity,
            "terms": [
                {"coeff": self.ring.format(c), "tuple": [str(x) for x in t]}
                for t, c in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, ring: RingSpec | None = None) -> "ModVector":
        """Parse the canonical file format, rejecting zero coefficients and
        duplicate tuples.  A ``ring`` argument re-parses coefficients into
        that ring (the CLI's --ring override)."""
        try:
            file_ring = RingSpec.from_name(obj["ring"])
            arity = obj["arity"]
            raw = obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed vector object: {exc}") from None
        if type(arity) is not int or not isinstance(raw, list):
            raise ValueError("malformed vector object: arity must be an integer, terms an array")
        ring = ring or file_ring
        seen: set[Tuple_] = set()
        items = []
        for entry in raw:
            try:
                coeff = ring.parse(entry["coeff"])
                if not isinstance(entry["tuple"], list):
                    raise TypeError("tuple must be an array")
                tup = tuple(parse_point(x) for x in entry["tuple"])
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"term {entry!r}: malformed: {exc}") from None
            if ring.is_zero(coeff):
                raise ValueError(f"term {entry!r}: zero coefficient")
            if tup in seen:
                raise ValueError(f"term {entry!r}: duplicate tuple")
            seen.add(tup)
            items.append((tup, coeff))
        return cls.from_terms(ring, arity, items)


@dataclass(frozen=True)
class AugVector:
    """Sparse image of a vector under the orbitwise coefficient-sum map:
    canonical pattern string -> nonzero ring element."""

    ring: RingSpec
    entries: tuple[tuple[str, Scalar], ...]

    @classmethod
    def from_dict(cls, ring: RingSpec, entries: Mapping[str, Scalar]) -> "AugVector":
        kept = {k: v for k, v in entries.items() if not ring.is_zero(v)}
        return cls(ring, tuple(sorted(kept.items())))

    def entry_dict(self) -> dict[str, Scalar]:
        return dict(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "AugVector") -> "AugVector":
        acc = dict(self.entries)
        for k, v in other.entries:
            acc[k] = self.ring.add(acc.get(k, self.ring.zero()), v)
        return AugVector.from_dict(self.ring, acc)

    def scale(self, c) -> "AugVector":
        c = self.ring.normalize(c)
        return AugVector.from_dict(
            self.ring, {k: self.ring.mul(c, v) for k, v in self.entries}
        )

    def to_json(self) -> dict:
        return {k: self.ring.format(v) for k, v in self.entries}


def _check_compatible(x: ModVector, y: ModVector) -> None:
    if x.ring != y.ring:
        raise RingError(f"ring mismatch: {x.ring.name} vs {y.ring.name}")
    if x.arity != y.arity:
        raise ValueError(f"arity mismatch: {x.arity} vs {y.arity}")


def check_family(vectors: Sequence[ModVector]) -> None:
    for v in vectors[1:]:
        _check_compatible(vectors[0], v)


def support_points(x: ModVector) -> ParamSet:
    """All rationals occurring as coordinates of tuples of x, as a chain.

    Any order automorphism fixing these points fixes x, so any parameter
    set containing them is admissible for deciding membership of x.
    """
    pts = {c for tup, _ in x.terms for c in tup}
    return ParamSet(tuple(sorted(pts)))


def act(x: ModVector, mapping: Mapping[Fraction, Fraction]) -> ModVector:
    """Apply a strictly increasing partial rational map to every tuple.

    The map must be defined on all support points; it extends to an order
    automorphism by density, so the result lies in the same orbit.
    """
    dom = sorted(mapping)
    for a, b in zip(dom, dom[1:]):
        if mapping[a] >= mapping[b]:
            raise ValueError("map is not strictly increasing")
    return relabel(x, mapping)


def relabel(x: ModVector, mapping: Mapping[Fraction, Fraction]) -> ModVector:
    """Apply an arbitrary injective point map (no order requirement).

    Used by the pure-set expansion, where orbit representatives arise
    from re-orderings of the support.
    """
    mapping = {Fraction(k): Fraction(v) for k, v in mapping.items()}
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabelling must be injective")
    missing = [p for p in support_points(x).points if p not in mapping]
    if missing:
        raise ValueError(f"map not defined on support points {missing}")
    terms = [(tuple(mapping[c] for c in tup), v) for tup, v in x.terms]
    return ModVector(x.ring, x.arity, tuple(sorted(terms)))


def omega(x: ModVector, params: ParamSet) -> AugVector:
    """Sum the coefficients of x over each orbit of the pointwise
    stabiliser of ``params``, keyed by canonical pattern string."""
    acc: dict[str, Scalar] = {}
    ring = x.ring
    for tup, coeff in x.terms:
        key = pattern_of_tuple(tup, params)
        acc[key] = ring.add(acc.get(key, ring.zero()), coeff)
    return AugVector.from_dict(ring, acc)


def chain_skeleton(v: ModVector) -> tuple[tuple[Fraction, ...], tuple]:
    """The support chain of v plus its terms with coordinates replaced by
    chain indices.  The skeleton is v's order type: two vectors of one
    ring have equal skeletons exactly when an increasing map carries one
    to the other, and applying any increasing image of the chain is pure
    tuple indexing."""
    chain = support_points(v).points
    index = {p: i for i, p in enumerate(chain)}
    skeleton = tuple((tuple(index[c] for c in tup), coeff) for tup, coeff in v.terms)
    return chain, skeleton


def translate_onto(v_skeleton: Sequence, ring, arity, images: Sequence[Fraction]) -> ModVector:
    # increasing maps preserve the lexicographic term order, so the
    # canonical form survives re-indexing as is
    terms = tuple(
        (tuple(images[i] for i in idxs), coeff) for idxs, coeff in v_skeleton
    )
    return ModVector(ring, arity, terms)


def placed_rows(skeleton: Sequence, ring: RingSpec, params: ParamSet, residue=None):
    """Lazily yield (slot map, omega of its representative) for the
    placements of a chain skeleton (`chain_skeleton`) over ``ring`` in
    lexicographic order: a depth-first search places one chain point per
    level and carries the raw partial row of the terms whose points are
    all placed (keys memoised per term).  The representative at a slot
    map is ``translate_onto(skeleton, ..., realize(slot_map, points))``.

    Without a ``residue`` every placement is yielded.  With one (partial
    row pairs -> hashable class modulo a span the caller grows by each
    yielded row), a subtree is skipped when one finished earlier entered
    with the same depth, next slot, slots of the points that open terms
    still use, and residue: its rows add nothing to the span.
    """
    # a zero vector's skeleton is empty: one placement, of the empty chain
    s, m = params.size, 1 + max((i for t, _ in skeleton for i in t), default=-1)
    closing = [[(t, c, {}) for t, c in skeleton if max(t) == d - 1] for d in range(m + 1)]
    live = [[j for j in range(d) if any(j in t and max(t) >= d for t, _ in skeleton)]
            for d in range(m + 1)]
    slot_map, done = [0] * m, {}

    def search(d: int, lo: int, acc: dict):
        if d == m:
            yield tuple(slot_map), AugVector(ring, tuple(sorted(kv for kv in acc.items() if kv[1] != 0)))
            return
        for k in range(lo, 2 * s + 1):
            slot_map[d] = k
            row = dict(acc) if closing[d + 1] else acc
            for idxs, coeff, keys in closing[d + 1]:
                slots = tuple(map(slot_map.__getitem__, idxs))
                key = keys.get(slots) or keys.setdefault(slots, slot_word(idxs, slots, s))
                row[key] = ring.add(row[key], coeff) if key in row else coeff
            nxt = k + (k & 1)
            if residue is None or d + 1 == m:
                yield from search(d + 1, nxt, row)
                continue
            state = (d, nxt, tuple(slot_map[j] for j in live[d + 1]))
            if state in done and residue(row.items()) in done[state]:
                continue
            yield from search(d + 1, nxt, row)
            done.setdefault(state, set()).add(residue(row.items()))

    return search(0, 0, {})
