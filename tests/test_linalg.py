"""Span kernels against brute-force oracles.

Expected values for the worked examples are recomputed here by
exhaustive search or direct evaluation, never copied from the
implementation under test.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.linalg import (
    IntegerSpan,
    axpy_int,
    axpy_mod,
    axpy_q,
    character_from_span,
    make_span,
    normalize_functional,
    rowpair_int,
    scale_mod,
    scale_q,
    smith_with_colops,
    xgcd,
)
from permod.oracle import InstanceProfile, _placed_on_grid, random_instance
from permod.ring import GF, QQ, ZZ, RingError
import reference


def sparse(vector):
    return {i: v for i, v in enumerate(vector) if v}


def span_of(gens, ring):
    """A span engine holding the given rows, inserted in order."""
    engine = make_span(ring)
    for g in gens:
        engine.insert(sparse(g).items())
    return engine


def combine(coeffs, gens, ring):
    """sum(coeffs[j] * gens[j]) for a sparse coefficient dict."""
    n = len(gens[0]) if gens else 0
    out = [ring.zero()] * n
    for j, c in coeffs.items():
        for i, v in enumerate(gens[j]):
            out[i] = ring.add(out[i], ring.mul(ring.normalize(c), ring.normalize(v)))
    return out


def character_value(chi, vector):
    return sum((c * vector[k] for k, c in chi.items()), Fraction(0)) % 1


# -- membership --------------------------------------------------------------


def test_membership_parity_obstruction_over_z():
    assert span_of([[2, 0], [0, 2]], ZZ).reduce_comb(enumerate([1, 1])) is None


def test_membership_field_division_over_q():
    coeffs = span_of([[2, 0], [0, 2]], QQ).reduce_comb(enumerate([1, 1]))
    assert coeffs == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_membership_gf2_matches_exhaustive_search():
    ring = GF(2)
    gens = [[1, 0, -1], [0, 1, -1]]
    target = [1, -1, 0]
    tgt = [ring.normalize(v) for v in target]
    expected = [
        c
        for c in product(range(2), repeat=2)
        if combine(dict(enumerate(c)), gens, ring) == tgt
    ]
    assert expected == [(1, 1)]
    coeffs = span_of(gens, ring).reduce_comb(enumerate(target))
    assert tuple(coeffs.get(j, 0) for j in range(2)) in expected


def test_membership_recombines_exactly():
    rng = random.Random(7)
    for ring in (QQ, GF(2), GF(3), ZZ):
        for _ in range(40):
            n = rng.randint(1, 5)
            gens = [
                [rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, 4))
            ]
            coeffs = {j: rng.randint(-3, 3) for j in range(len(gens))}
            target = combine(coeffs, gens, ring)
            got = span_of(gens, ring).reduce_comb(enumerate(target))
            assert got is not None
            assert combine(got, gens, ring) == target


def test_membership_z_implies_q():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        target = [rng.randint(-4, 4) for _ in range(n)]
        if span_of(gens, ZZ).reduce_comb(enumerate(target)) is not None:
            assert span_of(gens, QQ).reduce_comb(enumerate(target)) is not None


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


def test_functional_hand_solved_system():
    target = [1, 0, 0]
    gens = [[1, -1, 0], [0, 1, -1]]
    oracle = brute_force_functionals(target, gens, bound=1)
    assert (1, 1, 1) in oracle
    phi = normalize_functional(span_of(gens, QQ).functional(enumerate(target)), QQ)
    assert phi == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}
    assert tuple(int(phi.get(c, 0)) for c in range(3)) in oracle


def test_functional_empty_span():
    phi = span_of([], GF(3)).functional(enumerate([1]))
    assert normalize_functional(phi, GF(3)) == {0: 1}
    phi = span_of([[1, 0]], QQ).functional(enumerate([0, 1]))
    assert normalize_functional(phi, QQ) == {1: Fraction(1)}


def test_functional_separates_randomized():
    rng = random.Random(3)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 5)
        ring = rng.choice([QQ, GF(2), GF(5)])
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        target = [rng.randint(-2, 2) for _ in range(n)]
        if span_of(gens, ring).reduce_comb(enumerate(target)) is not None:
            continue
        trials += 1
        phi = normalize_functional(span_of(gens, ring).functional(enumerate(target)), ring)
        dot = lambda u, v: sum(
            (ring.mul(ring.normalize(u.get(i, 0)), ring.normalize(b)) for i, b in enumerate(v)),
            start=ring.zero(),
        ) if ring is QQ else sum(u.get(i, 0) * b for i, b in enumerate(v)) % ring.p
        for g in gens:
            assert ring.is_zero(ring.normalize(dot(phi, g)))
        assert not ring.is_zero(ring.normalize(dot(phi, target)))


def test_functional_errors():
    with pytest.raises(RingError):
        span_of([[1, 1]], QQ).functional(enumerate([1, 1]))  # member
    assert not hasattr(make_span(ZZ), "functional")  # not a field


# -- integer characters ------------------------------------------------------


def test_character_snf_diag_2_2():
    chi = character_from_span(span_of([[2, 0], [0, 2]], ZZ), sparse([1, 1]))
    assert chi == {0: Fraction(1, 2)}
    assert character_value(chi, [2, 0]) == 0 and character_value(chi, [0, 2]) == 0
    assert character_value(chi, [1, 1]) == Fraction(1, 2)


def test_character_values():
    chi = character_from_span(span_of([[2, 0], [0, 2]], ZZ), sparse([1, 1]))
    assert character_value(chi, (2, 5)) == 0
    assert character_value(chi, (1, 1)) == Fraction(1, 2)
    assert lcm(*(c.denominator for c in chi.values())) == 2
    assert character_value(chi, (4, 9)) == 0
    # a free direction with negative weight: -1/2 is reduced into [0, 1)
    assert character_from_span(span_of([], ZZ), sparse([-1])) == {0: Fraction(1, 2)}


def test_character_empty_span():
    chi = character_from_span(span_of([], ZZ), sparse([1]))
    assert chi == {0: Fraction(1, 2)}


def test_character_snf_single_6():
    chi = character_from_span(span_of([[6]], ZZ), sparse([3]))
    assert chi == {0: Fraction(1, 6)}
    assert character_value(chi, [6]) == 0
    assert character_value(chi, [3]) == Fraction(1, 2)


def test_character_member_rejected():
    with pytest.raises(RingError):
        character_from_span(span_of([[1]], ZZ), {0: 2})


def test_character_separates_randomized():
    rng = random.Random(5)
    trials = 0
    while trials < 60:
        n = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        target = [rng.randint(-4, 4) for _ in range(n)]
        if span_of(gens, ZZ).reduce_comb(enumerate(target)) is not None:
            continue
        trials += 1
        chi = character_from_span(span_of(gens, ZZ), sparse(target))
        for g in gens:
            assert character_value(chi, g) == 0
        assert character_value(chi, target) != 0


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

    # mod p: rows hold residues 1..p-1 over the denominator 1, as the
    # field engine keeps them
    am = {k: v % p for k, v in a.items() if v % p}
    bm = {k: v % p for k, v in b.items() if v % p}
    row = dict(am)
    assert axpy_mod(p, row, 1, bm, 1, c, 1) == 1
    stored(row, expect(lambda k: (am.get(k, 0) + c * bm.get(k, 0)) % p))
    unit = c % p or 1
    row = dict(am)
    assert scale_mod(p, row, 1, unit, 1) == 1
    stored(row, expect(lambda k: am.get(k, 0) * unit % p))
    if cd % p:  # a unit denominator divides
        inv = pow(cd, -1, p)
        row = dict(am)
        assert axpy_mod(p, row, 1, bm, 1, c, cd) == 1
        stored(row, expect(lambda k: (am.get(k, 0) + c * inv * bm.get(k, 0)) % p))
        row = dict(am)
        assert scale_mod(p, row, 1, unit, cd) == 1
        stored(row, expect(lambda k: am.get(k, 0) * unit * inv % p))

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


def q_of(ops, perm):
    """The dense column transform Q = E1 ... Ek P on columns 0..n-1: the
    identity's columns with each column operation applied in order, then
    put in the order ``perm``."""
    cols = {c: [int(i == c) for i in range(len(perm))] for c in perm}
    for k, c, q in ops:
        cols[k] = [a - q * b for a, b in zip(cols[k], cols[c])]
    return [list(row) for row in zip(*(cols[c] for c in perm))]


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
    divisors, ops, perm = smith_with_colops([sparse(r) for r in rows], range(n))
    Q = q_of(ops, perm)
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


# m and n independently in 0..6 (so m = 0, m < n and m > n), with whole
# zero rows and columns blanked out and entries up to 10^6 in size
int_entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def int_matrices(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [draw(st.lists(int_entry, min_size=n, max_size=n)) for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)], n


@given(int_matrices())
@settings(max_examples=400, deadline=None)
def test_smith_matches_reference(case):
    """The sparse routine reproduces the dense row-major one exactly: the
    same divisors, and its column operations rebuild the same Q."""
    rows, n = case
    divisors, ops, perm = smith_with_colops([sparse(r) for r in rows], range(n))
    assert (divisors, q_of(ops, perm)) == reference.smith_with_colops(rows, n)


@given(int_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_smith_read_off_matches_reference(case, data):
    """The character's two reads of Q from the column operations: replayed
    in order on a target they give target * Q, and replayed in reverse on
    the unit vector at perm[j] they give column j of Q."""
    rows, n = case
    _, ops, perm = smith_with_colops([sparse(r) for r in rows], range(n))
    _, Q = reference.smith_with_colops(rows, n)
    target = data.draw(st.lists(int_entry, min_size=n, max_size=n))
    s = list(target)
    for k, c, q in ops:
        s[k] -= q * s[c]
    assert [s[c] for c in perm] == [sum(t * row[j] for t, row in zip(target, Q)) for j in range(n)]
    for j in range(n):
        x = [int(i == perm[j]) for i in range(n)]
        for k, c, q in reversed(ops):
            x[c] -= q * x[k]
        assert x == [row[j] for row in Q]


@given(
    st.lists(st.dictionaries(st.integers(0, 7), int_entry, max_size=5), max_size=5),
    st.dictionaries(st.integers(0, 7), int_entry, min_size=1, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_character_matches_reference(gens, target):
    """The sparse character is the dense one on the columns the caller
    used to pass (basis keys and target keys, sorted), zeros dropped."""
    engine = make_span(ZZ)
    for g in gens:
        engine.insert(g.items())
    cols = sorted({c for row in engine.rows for c in row}.union(target))
    try:
        dense = reference.character_from_span(engine, target, cols)
    except RingError:
        with pytest.raises(RingError):
            character_from_span(engine, target)
        return
    assert character_from_span(engine, target) == {c: v for c, v in zip(cols, dense) if v}


def test_xgcd_identity():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


# -- residues and engine input -----------------------------------------------


vectors4 = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


@given(
    st.sampled_from([QQ, GF(2), GF(5), ZZ]),
    st.lists(vectors4, max_size=4),
    vectors4,
    vectors4,
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_residue_is_a_canonical_class_modulo_the_span(ring, rows, v, w, coeffs):
    """Equal residues exactly when the difference lies in the span, on
    the echelon basis `insert` leaves (no Hermite form over Z)."""
    engine = span_of(rows, ring)

    def residue(vector):
        return engine.residue(sparse(vector).items())

    moved = list(v)
    for c, row in zip(coeffs, rows):
        moved = [a + c * b for a, b in zip(moved, row)]
    assert residue(moved) == residue(v)
    assert (residue(v) == ()) == (engine.reduce_comb(sparse(v).items()) is not None)
    diff = [a - b for a, b in zip(v, w)]
    assert (residue(v) == residue(w)) == (engine.reduce_comb(sparse(diff).items()) is not None)


def test_rational_residue_keeps_its_denominator():
    engine = span_of([[2, 1]], QQ)  # (1,0) reduces to (0,-1/2), (0,-1) stays
    assert engine.residue({0: 1}.items()) == ((1, Fraction(-1, 2)),)
    assert engine.residue({1: -1}.items()) == ((1, Fraction(-1)),)


def test_engines_read_entries_by_the_ring_rules():
    half = [(0, Fraction(1, 2))]
    gf5 = make_span(GF(5))
    assert gf5.residue(half) == ((0, 3),)  # 1/2 is 3 mod 5
    assert gf5.insert(half) and gf5.basis_pairs() == [(0, {0: 1})]
    assert gf5.reduce_comb([(0, Fraction(3, 2))]) == {0: 3}
    with pytest.raises(RingError):
        gf5.insert([(1, Fraction(1, 5))])
    z = IntegerSpan()
    for call in (z.insert, z.reduce_comb, z.residue):
        with pytest.raises(RingError):
            call(half)
    # a rejected row takes no insertion index
    assert z.n_inserted == 0 and z.insert([(0, Fraction(4, 2))]) and z.prov == [{0: 1}]
    assert z.basis_pairs() == [(0, {0: 2})]
    assert z.residue([(0, 5), (1, Fraction(1))]) == ((0, 1), (1, 1))


def test_rational_engine_refuses_floats_and_strings():
    engine = make_span(QQ)
    for entry in (0.1, "1/3"):
        for call in (engine.insert, engine.reduce_comb, engine.residue):
            with pytest.raises(RingError):
                call([(0, entry)])
    assert engine.n_inserted == 0 and engine.rows == []


def test_integer_row_engines_refuse_strings():
    # over GF(p) "1/3" % p is string formatting, over Z the entry is kept
    # as it is: both must end in RingError, before any insertion index
    for ring in (GF(5), ZZ):
        engine = make_span(ring)
        for entry in ("1/3", "%d"):
            for call in (engine.insert, engine.reduce_comb, engine.residue):
                with pytest.raises(RingError):
                    call([(0, 1), (1, entry)])
        assert engine.n_inserted == 0 and engine.rows == []
        assert engine.insert([(0, 1)]) and engine.prov == [{0: 1}]
    # a falsy non-number is not a zero entry, and 0.0 is a float like any
    # other; exact zeros (0, False, Fraction(0)) are still dropped
    for ring in (QQ, GF(2), GF(5), ZZ):
        engine = make_span(ring)
        for entry in ("", None, [], 0.0, -0.0):
            for call in (engine.insert, engine.reduce_comb, engine.residue):
                with pytest.raises(RingError):
                    call([(0, entry)])
                with pytest.raises(RingError):
                    call([(0, 1), (1, entry)])
        assert engine.n_inserted == 0 and engine.rows == []
        assert not engine.insert([(0, 0), (1, False), (2, Fraction(0))])
        assert engine.insert([(0, 1)]) and engine.prov == [{1: 1}]


def canonical_nonzero(values, ring):
    """Every value is a nonzero scalar in the ring's canonical form:
    a `Fraction` over Q, a residue in 1..p-1 over GF(p)."""
    return all(type(x) is type(ring.zero()) and ring.normalize(x) == x and not ring.is_zero(x)
               for x in values)


def pairing(phi, vector, ring):
    total = ring.zero()
    for i, v in enumerate(vector):
        total = ring.add(total, ring.mul(ring.normalize(phi.get(i, 0)), ring.normalize(v)))
    return total


@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.lists(vectors4, max_size=6),
    vectors4,
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_reduced_and_echelon_field_engines_agree(ring, rows, v, coeffs):
    """The fully reduced engine and the first-seen echelon one, fed the
    same rows, give the same insert results, the same coefficients
    (unique over the rank-raising rows) and the same residues (canonical
    on any echelon basis); the reduced engine's functional vanishes on
    every row and not on the vector it separates.  Every value returned
    is a canonical nonzero scalar of the ring."""
    reduced, echelon = make_span(ring), make_span(ring, reduced=False)
    for row in rows:
        assert reduced.insert(sparse(row).items()) == echelon.insert(sparse(row).items())
    member = [0] * 4
    for c, row in zip(coeffs, rows):
        member = [a + c * b for a, b in zip(member, row)]
    for probe in (v, member):
        pairs = sparse(probe).items()
        comb = reduced.reduce_comb(pairs)
        assert comb == echelon.reduce_comb(pairs)
        rho = reduced.residue(pairs)
        assert rho == echelon.residue(pairs)
        assert canonical_nonzero([*(comb or {}).values(), *(x for _, x in rho)], ring)
        if rho:
            phi = reduced.functional(pairs)
            assert canonical_nonzero(phi.values(), ring)
            assert all(ring.is_zero(pairing(phi, row, ring)) for row in rows)
            assert not ring.is_zero(pairing(phi, probe, ring))
            with pytest.raises(RuntimeError):
                echelon.functional(pairs)
    assert reduced.reduce_comb(sparse(member).items()) is not None
    for engine in (reduced, echelon):
        assert canonical_nonzero([x for _, row in engine.basis_pairs() for x in row.values()], ring)


def in_hermite_form(engine):
    """Pivots positive, and every other row's entry in a pivot column in
    [0, pivot)."""
    for i, row in enumerate(engine.rows):
        p = engine.pivot_of[i]
        if min(row) != p or row[p] <= 0:
            return False
        if any(not 0 <= other.get(p, 0) < row[p] for j, other in enumerate(engine.rows) if j != i):
            return False
    return True


@given(
    st.sampled_from([QQ, GF(2), GF(5), ZZ]),
    st.lists(vectors4, max_size=6),
    st.lists(vectors4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_membership_only_engines_agree_with_provenance_engines(ring, rows, probes):
    """The ``provenance=False`` engine keeps no provenance and refuses
    `reduce_comb`, yet gives the same insert results and residues as
    the engine with provenance; over Z its basis is in Hermite form
    after every insert."""
    full, bare = make_span(ring), make_span(ring, reduced=False, provenance=False)
    for row in rows:
        assert full.insert(sparse(row).items()) == bare.insert(sparse(row).items())
        assert all(pr == {} for pr in bare.prov)
        assert ring.is_field or in_hermite_form(bare)
    for v in [*probes, *rows]:
        assert bare.residue(sparse(v).items()) == full.residue(sparse(v).items())
    with pytest.raises(RuntimeError, match="provenance"):
        bare.reduce_comb([(0, 1)])


def test_membership_only_lattice_stays_small_on_an_explosive_grid():
    """Grid 9 of the Z instance 953097914958 drives the unreduced
    provenance engine's entries to 16916 bits; the Hermite engine stays
    within 64 bits after every insert."""
    inst = random_instance(953097914958, InstanceProfile(ring=ZZ))
    engine = make_span(ZZ, reduced=False, provenance=False)
    for skeleton, idxs in _placed_on_grid(inst.generators, 9):
        engine.insert((tuple(idxs[i] for i in t), c) for t, c in skeleton)
        assert max(abs(v).bit_length() for row in engine.rows for v in row.values()) <= 64
    assert engine.n_inserted == 168 and in_hermite_form(engine)


# -- coordinate-constrained span ---------------------------------------------


def test_intersect_q_example():
    gens = [{0: 1, 1: -1}, {1: 1, 2: -1}]
    got = reference.span_intersect_coords(gens, {0, 2}, QQ)
    assert got is not None
    assert 1 not in got and got
    # membership of the hit in the span, checked independently
    assert span_of([[1, -1, 0], [0, 1, -1]], QQ).reduce_comb(got.items()) is not None
    assert got == {0: Fraction(1), 2: Fraction(-1)}


def test_intersect_none_when_coordinates_tied():
    assert reference.span_intersect_coords([{0: 1, 1: -1}], {0}, QQ) is None


def test_intersect_z_generator_itself():
    assert reference.span_intersect_coords([{0: 2}], {0}, ZZ) == {0: 2}


def test_intersect_randomized_soundness():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        ring = rng.choice([QQ, GF(3), ZZ])
        gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        coords = set(rng.sample(range(n), rng.randint(1, n)))
        hit = reference.span_intersect_coords([sparse(g) for g in gens], coords, ring)
        if hit is None:
            continue
        assert any(not ring.is_zero(ring.normalize(v)) for v in hit.values())
        assert all(ring.is_zero(ring.normalize(hit.get(i, 0))) for i in range(n) if i not in coords)
        assert span_of(gens, ring).reduce_comb(hit.items()) is not None
