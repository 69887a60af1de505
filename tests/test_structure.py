"""Order-type classification and placements against brute force."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.structure import (
    ParamSet,
    canonical_orbit_reps,
    gap_values,
    parse_point,
    pattern_of_tuple,
    slot_map_of,
)
from reference import enumerate_placements

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def brute_slot_maps(m: int, s: int) -> list[tuple[int, ...]]:
    """All weakly increasing maps of an m-chain into the alternating slot
    sequence (slots 0..2s; odd slots are parameters, used at most once)."""
    out = []
    for cand in product(range(2 * s + 1), repeat=m):
        if any(a > b for a, b in zip(cand, cand[1:])):
            continue
        odd = [k for k in cand if k % 2]
        if len(odd) != len(set(odd)):
            continue
        out.append(cand)
    return out


def tagged(slot_map):
    """A slot map in the reference's tagged ("gap"|"param", i) form."""
    return tuple((("gap", "param")[k & 1], k // 2) for k in slot_map)


def order_table(tup, params):
    """Exhaustive comparison table of the tuple with itself and the
    parameters; the independent ground truth for pattern equality."""

    def sign(a, b):
        return (a > b) - (a < b)

    coords = list(tup)
    return (
        tuple(sign(a, b) for a in coords for b in coords),
        tuple(sign(a, p) for a in coords for p in params.points),
    )


# -- pattern keys -------------------------------------------------------------


def test_pattern_examples():
    S = ParamSet.of([0, 2])
    assert tagged(slot_map_of((Fraction(1),), S.points)) == (("gap", 1),)
    assert pattern_of_tuple((Fraction(1),), S) == "p0<c0<p1"
    assert tagged(slot_map_of((Fraction(0),), S.points)) == (("param", 0),)
    assert pattern_of_tuple((Fraction(0),), S) == "p0=c0<p1"
    assert tagged(slot_map_of((Fraction(1, 2), Fraction(1)), S.points)) == (
        ("gap", 1), ("gap", 1))
    k3 = pattern_of_tuple((Fraction(1), Fraction(1, 2)), S)
    assert k3 == "p0<c1<c0<p1"
    assert k3 != pattern_of_tuple((Fraction(1, 2), Fraction(1)), S)


def test_pattern_repeated_and_equal_to_param():
    S = ParamSet.of([5])
    assert pattern_of_tuple((Fraction(5), Fraction(5)), S) == "p0=c0=c1"


@given(
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=3),
    st.sets(rationals, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_pattern_separation(u, w, pts):
    if len(u) != len(w):
        u = u[: min(len(u), len(w))]
        w = w[: len(u)]
    S = ParamSet.of(pts)
    same_key = pattern_of_tuple(u, S) == pattern_of_tuple(w, S)
    same_table = order_table(tuple(u), S) == order_table(tuple(w), S)
    assert same_key == same_table


@given(st.lists(rationals, min_size=1, max_size=3), st.sets(rationals, max_size=3))
@settings(max_examples=200, deadline=None)
def test_pattern_invariant_under_increasing_maps(tup, pts):
    """A piecewise-linear increasing map fixing the parameters pointwise
    does not change the key."""
    S = ParamSet.of(pts)

    def squeeze(x):
        # increasing, fixes every parameter: linear interpolation between
        # neighbouring parameters, cubic-ish shift outside
        lo = None
        hi = None
        for p in S.points:
            if p <= x:
                lo = p
            if p >= x and hi is None:
                hi = p
        if lo is not None and lo == x:
            return x
        if lo is None and hi is None:
            return x + 7
        if lo is None:
            return hi - (hi - x) * Fraction(1, 3)
        if hi is None:
            return lo + (x - lo) * 5
        return lo + (x - lo) * Fraction(1, 2) + (hi - lo) * Fraction(1, 4)

    moved = tuple(squeeze(Fraction(x)) for x in tup)
    assert pattern_of_tuple(moved, S) == pattern_of_tuple(tup, S)


# -- placements ---------------------------------------------------------------


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("s", range(4))
def test_placement_counts_match_brute_force(m, s):
    params = ParamSet.of(range(0, 2 * s, 2))
    chain = [Fraction(i) for i in range(m)]
    placements = enumerate_placements(chain, params)
    brute = brute_slot_maps(m, s)
    assert len(placements) == len(brute)
    seen = set()
    for pl in placements:
        assert len(set(pl.images)) == len(pl.images)
        assert list(pl.images) == sorted(pl.images)
        assert pl.slots not in seen
        seen.add(pl.slots)
        # realization matches the slot assignment
        assert tagged(slot_map_of(pl.images, params.points)) == pl.slots


def test_placement_counts_examples():
    one = ParamSet.of([0])
    two = ParamSet.of([0, 2])
    assert len(enumerate_placements([Fraction(0), Fraction(1)], one)) == 5
    assert len(enumerate_placements([Fraction(0), Fraction(1)], two)) == 13
    assert len(enumerate_placements([], two)) == 1


def test_placement_completeness_random_chains():
    """Any concrete chain realises the slot pattern of exactly one
    enumerated placement."""
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 4)
        s = rng.randint(0, 3)
        params = ParamSet.of(sorted(rng.sample(range(-6, 7), s)))
        pool = sorted(
            rng.sample(
                [Fraction(n, 2) for n in range(-13, 14)],
                m,
            )
        )
        slots = tagged(slot_map_of(pool, params.points))
        matches = [
            pl
            for pl in enumerate_placements(pool, params)
            if pl.slots == slots
        ]
        assert len(matches) == 1


def test_placement_rejects_unsorted_source():
    with pytest.raises(ValueError):
        enumerate_placements([Fraction(1), Fraction(0)], ParamSet.empty())


# -- canonical orbit representatives ------------------------------------------


def test_orbit_reps_small():
    assert canonical_orbit_reps(1) == [(Fraction(1),)]
    reps2 = canonical_orbit_reps(2)
    assert set(reps2) == {
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(1)),
    }


def test_orbit_reps_count_is_number_of_weak_orders():
    # independent count: distinct empty-parameter patterns of all tuples
    # over a big enough chain
    for n in (1, 2, 3):
        table = {
            pattern_of_tuple(tup, ParamSet.empty())
            for tup in product([Fraction(i) for i in range(1, n + 1)], repeat=n)
        }
        reps = canonical_orbit_reps(n)
        assert len(reps) == len(table)
        assert len({pattern_of_tuple(r, ParamSet.empty()) for r in reps}) == len(reps)
    assert len(canonical_orbit_reps(3)) == 13


# -- helpers -------------------------------------------------------------------


def test_gap_values_deterministic_and_inside():
    assert gap_values(Fraction(2), Fraction(3), 2) == [Fraction(9, 4), Fraction(5, 2)]
    assert gap_values(Fraction(4), Fraction(5), 3) == [
        Fraction(17, 4),
        Fraction(9, 2),
        Fraction(19, 4),
    ]
    assert gap_values(None, Fraction(0), 2) == [Fraction(-2), Fraction(-1)]
    assert gap_values(Fraction(0), None, 2) == [Fraction(1), Fraction(2)]
    assert gap_values(None, None, 3) == [Fraction(1), Fraction(2), Fraction(3)]
    for lo, hi in [(Fraction(0), Fraction(1)), (Fraction(-3), Fraction(-1))]:
        for count in range(1, 6):
            vals = gap_values(lo, hi, count)
            assert all(lo < v < hi for v in vals)
            assert vals == sorted(set(vals))


def test_param_set_validation():
    with pytest.raises(ValueError):
        ParamSet.of([1, 1])
    with pytest.raises(ValueError):
        ParamSet((Fraction(2), Fraction(1)))
    assert ParamSet.of([3, 1]).points == (Fraction(1), Fraction(3))


def test_parse_point():
    assert parse_point("3/2") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_point("1/0")
    with pytest.raises(ValueError):
        parse_point("abc")

    # only the scalar grammar a or a/b
    assert parse_point("-3/2") == Fraction(-3, 2)
    assert parse_point(" 7 ") == Fraction(7)
    for text in ("0.5", "1_000", "1e3", "+1", "1/-0", "inf"):
        with pytest.raises(ValueError):
            parse_point(text)
