"""Formal sums, the group action, and orbitwise coefficient sums."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.pmod import (
    AugVector,
    ModVector,
    act,
    chain_skeleton,
    omega,
    relabel,
    support_points,
)
from permod.ring import GF, QQ, ZZ, RingError
from permod.structure import ParamSet
from reference import orbit_reps_over


def qvec(arity, items):
    return ModVector.from_terms(QQ, arity, items)


def test_terms_canonical():
    v = qvec(1, [((2,), 1), ((0,), 1), ((2,), -1)])
    assert v.terms == (((Fraction(0),), Fraction(1)),)
    assert qvec(1, [((0,), 1), ((0,), -1)]).is_zero
    assert qvec(2, [((1, 0), 2)]) == qvec(2, [((1, 0), 1), ((1, 0), 1)])


def test_support_points():
    assert support_points(qvec(1, [((0,), 1), ((2,), -1)])).points == (0, 2)
    assert support_points(ModVector.zero(QQ, 1)).points == ()
    assert support_points(qvec(2, [((3, 5), 1), ((5, 3), 2)])).points == (3, 5)


def test_omega_examples():
    S = ParamSet.of([0, 2])
    x = qvec(1, [((0,), 1), ((2,), -1)])
    assert omega(x, S).to_json() == {"p0=c0<p1": "1", "p0<p1=c0": "-1"}
    # both points inside the same gap: the sums cancel
    y = qvec(1, [((1,), 1), ((Fraction(3, 2),), -1)])
    assert omega(y, S).is_zero
    assert omega(ModVector.zero(QQ, 1), S).is_zero


def test_omega_does_not_need_support_inside_params():
    x = qvec(1, [((5,), 1)])
    assert omega(x, ParamSet.of([0])).to_json() == {"p0<c0": "1"}


def test_omega_linearity_randomized():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 2)
        pool = [Fraction(i) for i in range(4)]
        rand = lambda: qvec(
            n,
            [
                (tuple(rng.choice(pool) for _ in range(n)), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 3))
            ],
        )
        x, y = rand(), rand()
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        S = ParamSet.of(sorted(rng.sample(range(4), rng.randint(0, 3))))
        lhs = omega(x.scale(a).add(y.scale(b)), S)
        rhs = omega(x, S).scale(a).add(omega(y, S).scale(b))
        assert lhs == rhs


def test_omega_invariant_under_stabilising_maps():
    S = ParamSet.of([0, 2])
    x = qvec(2, [((1, 3), 2), ((0, 1), -1)])
    # increasing map fixing 0 and 2 pointwise
    mapping = {
        Fraction(0): Fraction(0),
        Fraction(1): Fraction(3, 2),
        Fraction(2): Fraction(2),
        Fraction(3): Fraction(7),
    }
    assert omega(act(x, mapping), S) == omega(x, S)


def test_act_examples_and_errors():
    x = qvec(1, [((0,), 1), ((1,), -1)])
    moved = act(x, {0: 5, 1: 7})
    assert moved == qvec(1, [((5,), 1), ((7,), -1)])
    assert act(x, {0: 0, 1: 1}) == x
    assert act(x, {0: -1, 1: Fraction(1, 3)}) == qvec(
        1, [((-1,), 1), ((Fraction(1, 3),), -1)]
    )
    with pytest.raises(ValueError):
        act(x, {0: 1, 1: 0})  # not increasing
    with pytest.raises(ValueError):
        act(x, {0: 1})  # domain too small


def test_relabel_allows_reordering():
    x = qvec(2, [((0, 1), 1)])
    swapped = relabel(x, {Fraction(0): Fraction(1), Fraction(1): Fraction(0)})
    assert swapped == qvec(2, [((1, 0), 1)])
    with pytest.raises(ValueError):
        relabel(x, {Fraction(0): Fraction(1), Fraction(1): Fraction(1)})


def test_orbit_reps_over_profile():
    v = qvec(1, [((0,), 1), ((1,), -1)])
    S = ParamSet.of([0])
    reps = orbit_reps_over(v, S)
    assert len(reps) == 5
    profile = [omega(r, S).to_json() for r in reps]
    assert profile == [
        {},
        {"c0<p0": "1", "p0=c0": "-1"},
        {"c0<p0": "1", "p0<c0": "-1"},
        {"p0=c0": "1", "p0<c0": "-1"},
        {},
    ]
    assert len(orbit_reps_over(qvec(1, [((0,), 1)]), ParamSet.empty())) == 1
    assert len(orbit_reps_over(v, ParamSet.of([0, 2]))) == 13
    # all representatives share the empty-parameter profile of v
    base = omega(v, ParamSet.empty())
    assert all(omega(r, ParamSet.empty()) == base for r in reps)


def test_aug_zero():
    def aug_zero(x):
        return omega(x, ParamSet.empty()).is_zero

    assert aug_zero(qvec(1, [((0,), 1), ((2,), -1)]))
    assert not aug_zero(qvec(1, [((0,), 1), ((1,), 1)]))
    two = ModVector.from_terms(GF(2), 1, [((0,), 1), ((1,), 1)])
    assert aug_zero(two)
    # distinct orbits do not cancel against each other
    mixed = qvec(2, [((0, 1), 1), ((1, 0), -1)])
    assert not aug_zero(mixed)


def test_chain_skeleton_is_the_orbit_key():
    v = qvec(1, [((3,), 1), ((7,), -1)])
    w = qvec(1, [((0,), 1), ((Fraction(1, 2),), -1)])
    assert chain_skeleton(v)[1] == chain_skeleton(w)[1]
    assert chain_skeleton(v) == ((3, 7), (((0,), 1), ((1,), -1)))
    assert chain_skeleton(ModVector.zero(QQ, 2)) == ((), ())


# few points, arities and coefficients, so that unrelated draws often share
# a skeleton
SKELETON_POINTS = st.sampled_from([Fraction(v) for v in (-1, 0, Fraction(1, 3), 2)])


@st.composite
def small_vectors(draw, ring, arity):
    terms = draw(st.lists(st.tuples(st.tuples(*[SKELETON_POINTS] * arity),
                                    st.sampled_from([1, -1, 2])), max_size=3))
    return ModVector.from_terms(ring, arity, terms)


@st.composite
def increasing_images(draw, n):
    """n strictly increasing rationals."""
    pts = draw(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=n, max_size=n,
                        unique=True))
    return sorted(pts)


@given(st.sampled_from([QQ, GF(2), GF(3), ZZ]), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_skeleton_is_the_order_type(ring, arity, data):
    v = data.draw(small_vectors(ring, arity))
    chain, skeleton = chain_skeleton(v)
    # an increasing map changes the chain and keeps the skeleton
    images = data.draw(increasing_images(len(chain)))
    moved = act(v, dict(zip(chain, images)))
    assert chain_skeleton(moved) == (tuple(images), skeleton)
    # equal skeletons: the map from one chain onto the other carries one
    # vector to the other; unequal ones: no increasing map does
    w = data.draw(st.one_of(small_vectors(ring, arity), st.just(moved)))
    other, w_skeleton = chain_skeleton(w)
    if len(other) == len(chain):
        assert (act(v, dict(zip(chain, other))) == w) == (w_skeleton == skeleton)
    else:
        assert w_skeleton != skeleton


def test_json_round_trip_and_rejections():
    v = ModVector.from_terms(ZZ, 2, [((0, Fraction(1, 2)), 3), ((1, 1), -2)])
    assert ModVector.from_json(v.to_json()) == v
    obj = v.to_json()
    assert [t["tuple"] for t in obj["terms"]] == [["0", "1/2"], ["1", "1"]]
    with pytest.raises(ValueError):
        ModVector.from_json(
            {"ring": "Q", "arity": 1, "terms": [{"coeff": "0", "tuple": ["1"]}]}
        )
    with pytest.raises(ValueError):
        ModVector.from_json(
            {
                "ring": "Q",
                "arity": 1,
                "terms": [
                    {"coeff": "1", "tuple": ["1"]},
                    {"coeff": "2", "tuple": ["1"]},
                ],
            }
        )
    with pytest.raises(ValueError):
        ModVector.from_json(
            {"ring": "Q", "arity": 1, "terms": [{"coeff": "1", "tuple": ["1/0"]}]}
        )
    # ring coercion re-parses coefficients
    coerced = ModVector.from_json(
        {"ring": "Q", "arity": 1, "terms": [{"coeff": "3", "tuple": ["0"]}]}, GF(2)
    )
    assert coerced.ring == GF(2)
    assert coerced.terms[0][1] == 1


def test_family_mismatch_errors():
    a = qvec(1, [((0,), 1)])
    b = ModVector.from_terms(GF(2), 1, [((0,), 1)])
    with pytest.raises(RingError):
        a.add(b)
    with pytest.raises(ValueError):
        a.add(qvec(2, [((0, 1), 1)]))


def test_singleton_injectivity():
    """Vectors supported on parameter points are separated by their sums."""
    S = ParamSet.of([0, 1, 2])
    rng = random.Random(9)
    for _ in range(40):
        items = [
            ((Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2))), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        ]
        x = ModVector.from_terms(QQ, 2, items)
        y = ModVector.from_terms(QQ, 2, [
            ((Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2))), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        ])
        assert (omega(x, S) == omega(y, S)) == (x == y)


def test_aug_vector_from_json():
    aug = AugVector.from_dict(QQ, {"a": Fraction(1, 2), "b": Fraction(0)})
    assert aug.to_json() == {"a": "1/2"}


@given(
    st.lists(
        st.tuples(
            st.tuples(
                st.fractions(min_value=-9, max_value=9, max_denominator=6),
                st.fractions(min_value=-9, max_value=9, max_denominator=6),
            ),
            st.integers(-9, 9),
        ),
        max_size=5,
    )
)
@settings(max_examples=150, deadline=None)
def test_json_round_trip_property(items):
    v = ModVector.from_terms(ZZ, 2, items)
    assert ModVector.from_json(v.to_json()) == v
