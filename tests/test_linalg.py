"""Span kernels against brute-force oracles.

Expected values for the worked examples are recomputed here by
exhaustive search or direct evaluation, never copied from the
implementation under test.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.linalg import (
    IntegerSpan,
    axpy_int,
    axpy_mod,
    axpy_q,
    dual_character,
    dual_functional,
    rowpair_int,
    scale_mod,
    scale_q,
    smith_with_colops,
    span_intersect_coords,
    span_membership,
    xgcd,
)
from permod.ring import GF, QQ, ZZ, RingError


def combine(coeffs, gens, ring):
    n = len(gens[0]) if gens else 0
    out = [ring.zero()] * n
    for c, g in zip(coeffs, gens):
        for i, v in enumerate(g):
            out[i] = ring.add(out[i], ring.mul(ring.normalize(c), ring.normalize(v)))
    return out


# -- membership --------------------------------------------------------------


def test_membership_parity_obstruction_over_z():
    assert span_membership([1, 1], [[2, 0], [0, 2]], ZZ) is None


def test_membership_field_division_over_q():
    coeffs = span_membership([1, 1], [[2, 0], [0, 2]], QQ)
    assert coeffs == [Fraction(1, 2), Fraction(1, 2)]


def test_membership_gf2_matches_exhaustive_search():
    ring = GF(2)
    gens = [[1, 0, -1], [0, 1, -1]]
    target = [1, -1, 0]
    tgt = [ring.normalize(v) for v in target]
    expected = [
        c
        for c in product(range(2), repeat=2)
        if combine(c, gens, ring) == tgt
    ]
    assert expected == [(1, 1)]
    coeffs = span_membership(target, gens, ring)
    assert tuple(coeffs) in expected


def test_membership_recombines_exactly():
    rng = random.Random(7)
    for ring in (QQ, GF(2), GF(3), ZZ):
        for _ in range(40):
            n = rng.randint(1, 5)
            gens = [
                [rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 4))
            ]
            coeffs = [rng.randint(-3, 3) for _ in gens]
            target = combine(coeffs, gens, ring)
            got = span_membership(target, gens, ring)
            assert got is not None
            assert combine(got, gens, ring) == target


def test_membership_z_implies_q():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        target = [rng.randint(-4, 4) for _ in range(n)]
        if span_membership(target, gens, ZZ) is not None:
            assert span_membership(target, gens, QQ) is not None


def test_membership_shape_errors():
    with pytest.raises(RingError):
        span_membership([1, 2], [[1]], QQ)
    with pytest.raises(RingError):
        span_membership([Fraction(1, 2)], [[1]], ZZ)


def test_ragged_generator_rows_rejected():
    # the first row fits the target, a later one is shorter or longer
    for ring in (QQ, GF(3), ZZ):
        with pytest.raises(RingError):
            span_membership([1, 0], [[1, 0], [1]], ring)
    for ring in (QQ, GF(3)):
        with pytest.raises(RingError):
            dual_functional([1, 0], [[0, 1], [0, 1, 0]], ring)
    with pytest.raises(RingError):
        dual_character([1, 0], [[2, 0], [1]])


# -- dual functionals --------------------------------------------------------


def brute_force_functionals(target, gens, bound=2):
    """All small integer functionals annihilating the generators but not
    the target (independent oracle for the rational examples)."""
    n = len(target)
    hits = []
    for phi in product(range(-bound, bound + 1), repeat=n):
        if all(sum(a * b for a, b in zip(phi, g)) == 0 for g in gens) and sum(
            a * b for a, b in zip(phi, target)
        ) != 0:
            hits.append(phi)
    return hits


def test_dual_functional_hand_solved_system():
    target = [1, 0, 0]
    gens = [[1, -1, 0], [0, 1, -1]]
    oracle = brute_force_functionals(target, gens, bound=1)
    assert (1, 1, 1) in oracle
    phi = dual_functional(target, gens, QQ)
    assert phi == [Fraction(1), Fraction(1), Fraction(1)]
    assert tuple(int(v) for v in phi) in oracle


def test_dual_functional_empty_span():
    assert dual_functional([1], [], GF(3)) == [1]
    assert dual_functional([0, 1], [[1, 0]], QQ) == [Fraction(0), Fraction(1)]


def test_dual_functional_separates_randomized():
    rng = random.Random(3)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 5)
        ring = rng.choice([QQ, GF(2), GF(5)])
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        target = [rng.randint(-2, 2) for _ in range(n)]
        if span_membership(target, gens, ring) is not None:
            continue
        trials += 1
        phi = dual_functional(target, gens, ring)
        dot = lambda u, v: sum(
            (ring.mul(ring.normalize(a), ring.normalize(b)) for a, b in zip(u, v)),
            start=ring.zero(),
        ) if ring is QQ else sum(a * b for a, b in zip(u, v)) % ring.p
        for g in gens:
            assert ring.is_zero(ring.normalize(dot(phi, g)))
        assert not ring.is_zero(ring.normalize(dot(phi, target)))


def test_dual_functional_errors():
    with pytest.raises(RingError):
        dual_functional([1, 1], [[1, 1]], QQ)  # member
    with pytest.raises(RingError):
        dual_functional([1], [[2]], ZZ)  # not a field


# -- integer characters ------------------------------------------------------


def test_character_snf_diag_2_2():
    chi = dual_character([1, 1], [[2, 0], [0, 2]])
    assert chi.coeffs == (Fraction(1, 2), Fraction(0))
    assert chi.annihilates([2, 0]) and chi.annihilates([0, 2])
    assert chi.value([1, 1]) == Fraction(1, 2)


def test_character_empty_span():
    chi = dual_character([1], [])
    assert chi.coeffs == (Fraction(1, 2),)


def test_character_snf_single_6():
    chi = dual_character([3], [[6]])
    assert chi.coeffs == (Fraction(1, 6),)
    assert chi.annihilates([6])
    assert chi.value([3]) == Fraction(1, 2)


def test_character_member_rejected():
    with pytest.raises(RingError):
        dual_character([2], [[1]])


def test_character_separates_randomized():
    rng = random.Random(5)
    trials = 0
    while trials < 60:
        n = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        target = [rng.randint(-4, 4) for _ in range(n)]
        if span_membership(target, gens, ZZ) is not None:
            continue
        trials += 1
        chi = dual_character(target, gens)
        for g in gens:
            assert chi.annihilates(g)
        assert chi.value(target) != 0


# -- row kernels -------------------------------------------------------------

sparse_rows = st.dictionaries(st.integers(0, 7), st.integers(-30, 30).filter(bool), max_size=6)


def lowest_terms(row: dict, den: int) -> tuple[dict, int]:
    g = gcd(den, *row.values())
    return {k: v // g for k, v in row.items()}, den // g


@given(
    sparse_rows,
    sparse_rows,
    st.sampled_from([2, 3, 5, 97]),
    st.lists(st.integers(-12, 12), min_size=4, max_size=4),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(-6, 6),
    st.integers(1, 6),
    st.sampled_from([-4, -1, 1, 3]),
)
@settings(max_examples=300, deadline=None)
def test_row_kernels_match_plain_arithmetic(a, b, p, xyuv, aden, bden, cn, cd, sd):
    """Every row kernel equals entrywise int / Fraction arithmetic, stores
    no zero entry, and leaves a rational row over a positive denominator
    that is coprime to its numerators."""
    cols = set(a) | set(b)
    c = xyuv[0]

    def expect(f):
        return {k: f(k) for k in cols if f(k)}

    def stored(row, want):
        assert 0 not in row.values()
        assert row == want

    # mod p: rows hold residues 1..p-1, as the field engines keep them
    am = {k: v % p for k, v in a.items() if v % p}
    bm = {k: v % p for k, v in b.items() if v % p}
    row = dict(am)
    axpy_mod(row, bm, c, p)
    stored(row, expect(lambda k: (am.get(k, 0) + c * bm.get(k, 0)) % p))
    unit = c % p or 1
    row = dict(am)
    scale_mod(row, unit, p)
    stored(row, expect(lambda k: am.get(k, 0) * unit % p))

    row = dict(a)
    axpy_int(row, b, c)
    stored(row, expect(lambda k: a.get(k, 0) + c * b.get(k, 0)))
    x, y, u, v = xyuv
    ra, rb = dict(a), dict(b)
    rowpair_int(ra, rb, x, y, u, v)
    stored(ra, expect(lambda k: x * a.get(k, 0) + y * b.get(k, 0)))
    stored(rb, expect(lambda k: u * a.get(k, 0) + v * b.get(k, 0)))

    # rationals: numerators over one denominator, in lowest terms on input
    aq, aden = lowest_terms(a, aden)
    bq, bden = lowest_terms(b, bden)
    row = dict(aq)
    den = axpy_q(row, aden, bq, bden, cn, cd)
    assert den > 0 and gcd(den, *row.values()) == 1
    stored({k: Fraction(n, den) for k, n in row.items()},
           expect(lambda k: Fraction(aq.get(k, 0), aden)
                  + Fraction(cn, cd) * Fraction(bq.get(k, 0), bden)))
    sn = cn or 1
    prev = {k: Fraction(n, den) for k, n in row.items()}
    den = scale_q(row, den, sn, sd)
    assert den > 0 and gcd(den, *row.values()) == 1
    stored({k: Fraction(n, den) for k, n in row.items()},
           {k: q * Fraction(sn, sd) for k, q in prev.items()})


# -- Smith normal form -------------------------------------------------------


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_smith_membership_equivalence(rows, data):
    """SNF-based membership conditions agree with lattice reduction."""
    n = len(rows[0])
    divisors, Q = smith_with_colops(rows, n)
    for a, b in zip(divisors, divisors[1:]):
        assert a > 0 and b % a == 0
    engine = IntegerSpan()
    for r in rows:
        engine.insert(enumerate(r))
    target = data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    s = [sum(target[i] * Q[i][j] for i in range(n)) for j in range(n)]
    rank = len(divisors)
    snf_member = all(s[j] % divisors[j] == 0 for j in range(rank)) and all(
        s[j] == 0 for j in range(rank, n)
    )
    assert snf_member == (engine.reduce_comb(enumerate(target)) is not None)


def test_xgcd_identity():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


# -- coordinate-constrained span ---------------------------------------------


def test_intersect_q_example():
    got = span_intersect_coords([[1, -1, 0], [0, 1, -1]], {0, 2}, QQ)
    assert got is not None
    assert got[1] == 0 and got != [0, 0, 0]
    # membership of the hit in the span, checked independently
    assert span_membership(got, [[1, -1, 0], [0, 1, -1]], QQ) is not None
    assert got == [Fraction(1), Fraction(0), Fraction(-1)]


def test_intersect_none_when_coordinates_tied():
    assert span_intersect_coords([[1, -1]], {0}, QQ) is None


def test_intersect_z_generator_itself():
    assert span_intersect_coords([[2, 0]], {0}, ZZ) == [2, 0]


def test_intersect_randomized_soundness():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        ring = rng.choice([QQ, GF(3), ZZ])
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        coords = set(rng.sample(range(n), rng.randint(1, n)))
        hit = span_intersect_coords(gens, coords, ring)
        if hit is None:
            continue
        assert any(not ring.is_zero(ring.normalize(v)) for v in hit)
        assert all(ring.is_zero(ring.normalize(hit[i])) for i in range(n) if i not in coords)
        assert span_membership(hit, gens, ring) is not None
