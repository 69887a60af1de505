"""The integer placement stream against the realise-every-representative
reference path: rows, placement order, representatives and counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.decide import (
    CharacterCert,
    FunctionalCert,
    SpanWitnessCert,
    membership,
    verify_certificate,
)
from permod.pmod import ModVector, omega, place, placed_rows
from permod.ring import GF, QQ, ZZ
from permod.structure import ParamSet, placement_count, slot_maps
from reference import enumerate_placements, orbit_reps_over

RINGS = [QQ, GF(2), GF(3), GF(5), ZZ]
# generator points partly on, partly between and outside the parameters
POINTS = [Fraction(v) for v in (-1, 0, Fraction(1, 2), 1, 3)]
PARAMS = [Fraction(v) for v in (0, 1, 2, Fraction(5, 2))]


@st.composite
def generator_and_params(draw):
    ring = draw(st.sampled_from(RINGS))
    arity = draw(st.integers(1, 3))
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from(POINTS)] * arity),
                st.sampled_from([-2, -1, 1, 2]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    params = ParamSet.of(draw(st.sets(st.sampled_from(PARAMS), max_size=4)))
    return ModVector.from_terms(ring, arity, terms), params


@given(generator_and_params())
@settings(max_examples=150, deadline=None)
def test_stream_rows_match_omega_of_reps(case):
    g, params = case
    reps = orbit_reps_over(g, params)
    stream = list(placed_rows(g, params))
    assert [row for _, row in stream] == [omega(r, params) for r in reps]
    assert [place(g, slot_map, params) for slot_map, _ in stream] == reps


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("s", range(5))
def test_closed_form_count_matches_enumeration(m, s):
    chain = [Fraction(i) for i in range(m)]
    params = ParamSet.of(range(10, 10 + s))
    count = len(enumerate_placements(chain, params))
    assert placement_count(m, s) == count == len(list(slot_maps(m, s)))


def _kind(decision):
    return type(decision.certificate)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_zero_target_is_decided_without_rows(ring):
    g = ModVector.from_terms(ring, 1, [((0,), 1), ((1,), -1)])
    d = membership(ModVector.zero(ring, 1), [g], param_set=ParamSet.of([0, 1]))
    assert d.member and d.certificate.terms == () and d.rep_count == 13
    assert verify_certificate(d, ModVector.zero(ring, 1), [g])


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_empty_generator_list(ring):
    x = ModVector.from_terms(ring, 2, [((0, 1), 1)])
    d = membership(x, [])
    assert not d.member and d.rep_count == 0
    assert _kind(d) is (FunctionalCert if ring.is_field else CharacterCert)
    assert verify_certificate(d, x, [])
    zero = ModVector.zero(ring, 2)
    assert membership(zero, []).member and verify_certificate(membership(zero, []), zero, [])


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_target_keys_in_no_rep_exhaust_the_stream(ring):
    # every generator tuple is strictly increasing, the target is diagonal
    g = ModVector.from_terms(ring, 2, [((0, 1), 1), ((1, 2), 1)])
    x = ModVector.from_terms(ring, 2, [((5, 5), 1)])
    d = membership(x, [g])
    assert not d.member and d.rep_count == placement_count(3, 1)
    assert _kind(d) is (FunctionalCert if ring.is_field else CharacterCert)
    assert verify_certificate(d, x, [g])


def test_early_exit_names_only_certified_reps():
    chain = [((i,), (-1) ** i) for i in range(8)]
    g = ModVector.from_terms(QQ, 1, chain)
    x = ModVector.from_terms(QQ, 1, [((100 + i,), c) for (i,), c in chain])
    d = membership(x, [g])
    assert d.member and d.rep_count == 265729
    assert isinstance(d.certificate, SpanWitnessCert) and len(d.certificate.terms) == 8
    assert verify_certificate(d, x, [g])
