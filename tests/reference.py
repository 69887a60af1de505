"""Reference paths the tests compare the library against.

* The placement stream: every placement realised as a concrete chain,
  and every representative built as a vector.  The library streams
  integer slot maps instead.
* The grid oracle's every-grid search: each grid from the first to the
  last is built with provenance and searched in turn.  The library
  probes the last grid for membership before building the middle ones.
* The YES verifier's representative check by placement: every generator
  is placed at the certified representative's slot map and compared.
  The library looks the representative's chain skeleton up instead.
* The Smith form on a dense matrix with a dense row-major transform Q
  and flag-guarded steps, and the character on caller-given columns as
  a dense tuple.  The library runs the same steps on sparse rows, keeps
  Q as its list of column operations, and returns the character sparse,
  on the columns it works out itself.
* The small-support search by re-elimination: every candidate subset
  re-echelonises all of W with that subset's columns last
  (`span_intersect_coords`).  The library eliminates once and tests
  each subset against W's parity check.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from permod.decide import _colex, _dedup_orbits
from permod.linalg import IntegerSpan, make_span, normalize_functional
from permod.oracle import (
    ExplicitWitness,
    OracleResult,
    _placed_on_grid,
    _span_of_placed,
)
from permod.pmod import (
    ModVector,
    chain_skeleton,
    check_family,
    placed_rows,
    support_points,
    translate_onto,
)
from permod.ring import RingError, RingSpec
from permod.structure import ParamSet, gap_values, pattern_of_tuple, realize, slot_map_of

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


def _unmap_grid(anchors: Sequence[Fraction], idxs: Sequence[int], n: int) -> list[Fraction]:
    """Values for the n grid positions, strictly increasing, with the
    anchors at positions ``idxs``: integer offsets outside the anchored
    range, deterministic in-gap values between anchors."""
    if not idxs:
        return gap_values(None, None, n)
    values: list[Fraction] = [Fraction(0)] * n
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
        values[lo_i + 1:hi_i] = between
    return values


def oracle_every_grid(
    target: ModVector,
    generators: Sequence[ModVector],
    max_grid: int,
) -> OracleResult:
    """The grid oracle as it searched before the last-grid probe: every
    grid in order, each with a provenance engine, and the witness
    unmapped by position arithmetic rather than by `realize`."""
    generators = list(generators)
    check_family([target, *generators])
    ring, arity = target.ring, target.arity
    anchors, target_skeleton = chain_skeleton(target)
    longest = max((len(support_points(g).points) for g in generators), default=0)
    start = max(len(anchors) + 2, longest, 1)
    for size in range(start, max_grid + 1, 2):
        placed = _placed_on_grid(generators, size)
        engine, _, col = _span_of_placed(placed, ring)
        for idxs in combinations(range(size), len(anchors)):
            row = [(col.get(tuple(idxs[i] for i in t)), c) for t, c in target_skeleton]
            if any(j is None for j, _ in row):
                continue
            comb = engine.reduce_comb(row)
            if comb is None:
                continue
            values = _unmap_grid(anchors, idxs, size)
            witness = ExplicitWitness(tuple(
                (c, translate_onto(placed[j][0], ring, arity, [values[i] for i in placed[j][1]]))
                for j, c in sorted(comb.items()) if c != 0
            ))
            if witness.evaluate(ring, arity) != target:
                raise AssertionError("grid witness failed exact re-evaluation")
            return OracleResult("yes", witness, size)
    return OracleResult("inconclusive")


def place(v: ModVector, slot_map: Sequence[int], params: ParamSet) -> ModVector:
    """The representative of v at one placement of its support chain."""
    _, skeleton = chain_skeleton(v)
    return translate_onto(skeleton, v.ring, v.arity, realize(slot_map, params.points))


def is_placed_rep(rep: ModVector, gens: Sequence[ModVector], params: ParamSet) -> bool:
    """rep is the canonical representative of its placement of some
    generator: the verifier's check of one certified term, with every
    generator placed at rep's slot map."""
    slot_map = slot_map_of(support_points(rep).points, params.points)
    return any(
        len(support_points(g).points) == len(slot_map)
        and place(g, slot_map, params) == rep
        for g in gens
    )


def smith_with_colops(matrix: Sequence[Sequence[int]], ncols: int):
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns (divisors, Q) where the divisors are positive with d1 | d2 | ...
    and Q is the accumulated n x n column transform, so that the row span
    of the input equals the row span of diag(divisors) * Q^-1.
    """
    A = [list(r) for r in matrix]
    m = len(A)
    n = ncols
    Q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    while r < m and r < n:
        best = None
        for i in range(r, m):
            for j in range(r, n):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != r:
            A[r], A[bi] = A[bi], A[r]
        if bj != r:
            for row in A:
                row[r], row[bj] = row[bj], row[r]
            for row in Q:
                row[r], row[bj] = row[bj], row[r]
        if A[r][r] < 0:
            A[r] = [-v for v in A[r]]
        d = A[r][r]
        dirty = False
        for i in range(r + 1, m):
            if A[i][r]:
                q = A[i][r] // d
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                if A[i][r]:
                    dirty = True
        for j in range(r + 1, n):
            if A[r][j]:
                q = A[r][j] // d
                for row in A:
                    row[j] -= q * row[r]
                for row in Q:
                    row[j] -= q * row[r]
                if A[r][j]:
                    dirty = True
        if dirty:
            continue
        ok = True
        for i in range(r + 1, m):
            bad = next((j for j in range(r + 1, n) if A[i][j] % d), None)
            if bad is not None:
                A[r] = [a + b for a, b in zip(A[r], A[i])]
                ok = False
                break
        if ok:
            r += 1
    return [A[i][i] for i in range(r)], Q


def character_from_span(engine: IntegerSpan, target: dict, cols: Sequence) -> tuple[Fraction, ...]:
    """Separating character for a sparse target outside an already-built
    lattice, as its values mod 1 on ``cols`` (the lattice's columns, in
    pivot order).

    The obstruction column of the Smith form is the smallest elementary
    divisor exceeding 1 that fails on the target, with ties broken by the
    lowest coordinate; a free direction yields the value 1/2 instead.
    """
    ncols = len(cols)
    basis = sorted(engine.basis_pairs(), key=lambda t: t[0])
    divisors, Q = smith_with_colops([[row.get(c, 0) for c in cols] for _, row in basis], ncols)
    dense = [target.get(c, 0) for c in cols]
    s = [sum(dense[i] * Q[i][j] for i in range(ncols)) for j in range(ncols)]
    rank = len(divisors)
    witnessed = [
        (divisors[j], j) for j in range(rank) if divisors[j] > 1 and s[j] % divisors[j]
    ]
    if witnessed:
        d, j = min(witnessed)
        scale = Fraction(1, d)
    else:
        j = next((j for j in range(rank, ncols) if s[j]), None)
        if j is None:
            raise RingError("target lies in the span; no separating character")
        scale = Fraction(1, 2 * s[j])
    return tuple(Q[i][j] * scale % 1 for i in range(ncols))


def coord_block_basis(rows: Iterable[dict], coords: Iterable, ring: RingSpec) -> list[dict]:
    """A basis of the span's intersection with the ``coords`` coordinates,
    in pivot order.

    Re-echelonises with the other columns ordered first: the basis rows
    whose pivots fall in the trailing block are supported on ``coords``
    alone and span the intersection.  They are its RREF over a field and
    its Hermite normal form over Z, and both are unique.
    """
    coords = set(coords)
    engine = make_span(ring, provenance=False)
    for row in rows:
        engine.insert(((c in coords, c), v) for c, v in row.items())
    return [{c: v for (_, c), v in row.items()}
            for (in_block, _), row in sorted(engine.basis_pairs(), key=lambda t: t[0])
            if in_block]


def span_intersect_coords(rows: Iterable[dict], coords: Iterable, ring: RingSpec):
    """A nonzero span row vanishing outside ``coords``, else None: the
    first row of `coord_block_basis`, scaled by `normalize_functional`
    over a field."""
    basis = coord_block_basis(rows, coords, ring)
    if not basis:
        return None
    return normalize_functional(basis[0], ring) if ring.is_field else basis[0]


def min_support(generators: Sequence[ModVector], k: int) -> ModVector | None:
    """A nonzero module element with at most k basis tuples, or None.

    Every orbit of k-element tuple sets has a representative with all
    coordinates in the integer grid 1..k*n, so it is enough to look for
    span vectors supported on at most k parameter-only patterns over that
    grid; such patterns lift exactly (their tuples are fixed pointwise).

    The basis of the residue-pruned rows is eliminated again with the
    singleton (parameter-only) pattern columns last, for W, the span's
    intersection with those columns (`coord_block_basis`).  Each candidate
    subset C is then tried against W alone, as span ∩ <e_C> = W ∩ <e_C>.
    Subsets run in the order of their reversed tuples, and a column on
    which W vanishes is skipped: a subset holding it hits only if the
    earlier subset without it does.
    """
    if k < 1:
        raise ValueError("support bound must be at least 1")
    generators = list(generators)
    if not generators:
        return None
    check_family(generators)
    ring = generators[0].ring
    n = generators[0].arity
    grid = [Fraction(i) for i in range(1, k * n + 1)]
    params = ParamSet.of(grid)
    singleton = [(pattern_of_tuple(t, params), t) for t in product(grid, repeat=n)]

    engine = make_span(ring)
    for skeleton in _dedup_orbits(generators):
        for _, row in placed_rows(skeleton, ring, params, engine.residue):
            engine.insert(row.entries)
    w = coord_block_basis((r for _, r in engine.basis_pairs()), (t for t, _ in singleton), ring)

    live = [i for i, (text, _) in enumerate(singleton) if any(text in row for row in w)]
    for picks in _colex(len(live), k):
        subset = [singleton[live[i]] for i in picks]
        hit = span_intersect_coords(w, (text for text, _ in subset), ring)
        if hit is not None:
            return ModVector.from_terms(ring, n, [(tup, hit[text]) for text, tup in subset
                                                  if text in hit])
    return None
