"""Decision procedures and certificate verification."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import reference
from permod.decide import (
    CharacterCert,
    FunctionalCert,
    SpanWitnessCert,
    _colex,
    cyclic_generator,
    decision_from_json,
    decision_to_json,
    generates_all,
    membership,
    min_support,
    pure_set_expand,
    verify_certificate,
)
from permod.oracle import InstanceProfile, oracle_membership, random_instance
from permod.pmod import AugVector, ModVector, act, omega, support_points
from permod.ring import GF, QQ, ZZ, RingError
from permod.structure import ParamSet


def vec(ring, arity, items):
    return ModVector.from_terms(ring, arity, items)


GEN_DIFF = vec(QQ, 1, [((0,), 1), ((1,), -1)])


# -- membership worked examples ------------------------------------------------


def test_telescoping_yes():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF], witness_budget=4)
    assert d.member and d.rep_count == 13
    assert d.param_set.points == (0, 2)
    cert = d.certificate
    assert isinstance(cert, SpanWitnessCert)
    total = AugVector.from_dict(QQ, {})
    for coeff, rep in cert.terms:
        total = total.add(omega(rep, d.param_set).scale(coeff))
    assert total == omega(target, d.param_set)
    assert cert.explicit is not None
    assert cert.explicit.evaluate(QQ, 1) == target
    assert verify_certificate(d, target, [GEN_DIFF])


def test_augmentation_no_with_all_ones_functional():
    target = vec(QQ, 1, [((0,), 1)])
    d = membership(target, [GEN_DIFF])
    assert not d.member and d.rep_count == 5
    cert = d.certificate
    assert isinstance(cert, FunctionalCert)
    assert set(cert.functional.entry_dict().values()) == {Fraction(1)}
    assert len(cert.functional.entries) == 3
    assert verify_certificate(d, target, [GEN_DIFF])


def test_characteristic_two_flips_the_answer():
    tq = vec(QQ, 1, [((0,), 1), ((1,), 1)])
    assert not membership(tq, [GEN_DIFF]).member
    g2 = vec(GF(2), 1, [((0,), 1), ((1,), -1)])
    t2 = vec(GF(2), 1, [((0,), 1), ((1,), 1)])
    d = membership(t2, [g2])
    assert d.member
    assert verify_certificate(d, t2, [g2])


def test_integer_character_certificate():
    target = vec(ZZ, 1, [((0,), 1), ((1,), 1)])
    gen = vec(ZZ, 1, [((0,), 2)])
    d = membership(target, [gen])
    assert not d.member and d.rep_count == 5
    cert = d.certificate
    assert isinstance(cert, CharacterCert)
    assert cert.denominator == 2
    chi = dict(cert.values)

    def value(x):
        return sum(chi.get(k, 0) * c for k, c in omega(x, d.param_set).entries) % 1

    assert value(target) == Fraction(1, 2)
    for rep in [act(gen, {Fraction(0): img}) for img in map(Fraction, (-1, 0, 1))]:
        assert value(rep) == 0
    assert verify_certificate(d, target, [gen])


def test_zero_target_and_empty_generators():
    zero = ModVector.zero(QQ, 1)
    assert membership(zero, []).member
    assert membership(zero, [GEN_DIFF]).member
    d = membership(vec(QQ, 1, [((3,), 1)]), [])
    assert not d.member
    assert verify_certificate(d, vec(QQ, 1, [((3,), 1)]), [])


def test_membership_validation_errors():
    t = vec(QQ, 1, [((0,), 1)])
    with pytest.raises(RingError):
        membership(t, [vec(ZZ, 1, [((0,), 1)])])
    with pytest.raises(ValueError):
        membership(t, [vec(QQ, 2, [((0, 1), 1)])])
    with pytest.raises(ValueError):
        membership(vec(QQ, 1, [((5,), 1)]), [GEN_DIFF], param_set=ParamSet.of([0]))


def test_duplicate_orbit_generators_collapse():
    g_copy = act(GEN_DIFF, {Fraction(0): Fraction(10), Fraction(1): Fraction(12)})
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d1 = membership(target, [GEN_DIFF])
    d2 = membership(target, [GEN_DIFF, g_copy])
    assert d1.rep_count == d2.rep_count == 13


# -- certificate verification against tampering --------------------------------


def test_verify_rejects_tampered_functional():
    target = vec(QQ, 1, [((0,), 1)])
    d = membership(target, [GEN_DIFF])
    zeroed = d.__class__(
        d.member, FunctionalCert(AugVector.from_dict(QQ, {})), d.param_set, d.rep_count
    )
    assert not verify_certificate(zeroed, target, [GEN_DIFF])
    wrong = d.__class__(
        d.member,
        FunctionalCert(AugVector.from_dict(QQ, {"p0=c0": Fraction(1)})),
        d.param_set,
        d.rep_count,
    )
    assert not verify_certificate(wrong, target, [GEN_DIFF])


def test_verify_rejects_foreign_representative():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF])
    fake = vec(QQ, 1, [((0,), 1), ((2,), -1), ((3,), 1)])
    doctored = d.__class__(
        d.member,
        SpanWitnessCert(((Fraction(1), fake),), None),
        d.param_set,
        d.rep_count,
    )
    assert not verify_certificate(doctored, target, [GEN_DIFF])


def test_verify_rejects_wrong_coefficients():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF])
    cert = d.certificate
    scaled = SpanWitnessCert(
        tuple((coeff * 2, rep) for coeff, rep in cert.terms), None
    )
    doctored = d.__class__(d.member, scaled, d.param_set, d.rep_count)
    assert not verify_certificate(doctored, target, [GEN_DIFF])


def test_verify_rejects_tampered_character():
    target = vec(ZZ, 1, [((0,), 1), ((1,), 1)])
    gen = vec(ZZ, 1, [((0,), 2)])
    d = membership(target, [gen])
    doctored = d.__class__(
        d.member,
        CharacterCert((("p0<p1=c0", Fraction(1, 3)),)),
        d.param_set,
        d.rep_count,
    )
    assert not verify_certificate(doctored, target, [gen])


def test_verify_rejects_wrong_inputs():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF])
    other_gen = vec(QQ, 1, [((0,), 1), ((1,), -2)])
    assert not verify_certificate(d, target, [other_gen])


# -- algebraic properties --------------------------------------------------------


def rand_vec(rng, ring, n, pool_size=4, max_terms=3):
    pool = [Fraction(i) for i in range(pool_size)]
    while True:
        items = [
            (tuple(rng.choice(pool) for _ in range(n)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, max_terms))
        ]
        v = ModVector.from_terms(ring, n, items)
        if not v.is_zero:
            return v


def test_reflexivity_and_monotonicity():
    rng = random.Random(31)
    for _ in range(25):
        ring = rng.choice([QQ, GF(2), ZZ])
        v = rand_vec(rng, ring, rng.randint(1, 2))
        assert membership(v, [v]).member
        extra = rand_vec(rng, ring, v.arity)
        assert membership(v, [v, extra]).member


def test_linearity_closure_over_fields():
    rng = random.Random(37)
    for _ in range(15):
        ring = rng.choice([QQ, GF(3)])
        n = rng.randint(1, 2)
        g = rand_vec(rng, ring, n)
        x = act(g, {p: p + 10 for p in support_points(g).points})
        y = act(g, {p: p * 2 - 7 for p in support_points(g).points})
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        z = x.scale(a).add(y.scale(b))
        assert membership(z, [g]).member


def test_action_invariance():
    rng = random.Random(41)
    for _ in range(15):
        ring = rng.choice([QQ, GF(2)])
        n = rng.randint(1, 2)
        g = rand_vec(rng, ring, n)
        x = rand_vec(rng, ring, n)
        sigma = {p: p * 3 + Fraction(1, 2) for p in support_points(x).points}
        tau = {p: p + 5 for p in support_points(g).points}
        before = membership(x, [g]).member
        after = membership(act(x, sigma), [act(g, tau)]).member
        assert before == after


def test_z_yes_implies_q_yes():
    rng = random.Random(43)
    for _ in range(20):
        gz = rand_vec(rng, ZZ, 1)
        xz = rand_vec(rng, ZZ, 1)
        if membership(xz, [gz]).member:
            gq = ModVector.from_json(gz.to_json(), QQ)
            xq = ModVector.from_json(xz.to_json(), QQ)
            assert membership(xq, [gq]).member


def test_parameter_superset_stability_small():
    rng = random.Random(47)
    for _ in range(10):
        ring = rng.choice([QQ, GF(2), ZZ])
        g = rand_vec(rng, ring, 1)
        x = rand_vec(rng, ring, 1)
        base = membership(x, [g])
        bigger = ParamSet.of({*support_points(x).points, Fraction(17), Fraction(-9)})
        over = membership(x, [g], param_set=bigger)
        assert base.member == over.member
        assert verify_certificate(over, x, [g])


def test_decision_json_round_trip():
    target = vec(ZZ, 1, [((0,), 1), ((1,), 1)])
    gen = vec(ZZ, 1, [((0,), 2)])
    d = membership(target, [gen])
    back = decision_from_json(decision_to_json(d), ZZ)
    assert back == d
    t2 = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d2 = membership(t2, [GEN_DIFF], witness_budget=4)
    back2 = decision_from_json(decision_to_json(d2), QQ)
    assert back2 == d2


# -- generates_all ---------------------------------------------------------------


def test_generates_all_examples():
    single = vec(QQ, 1, [((0,), 1)])
    res = generates_all([single])
    assert res.result and len(res.decisions) == 1
    res2 = generates_all([GEN_DIFF])
    assert not res2.result
    failing = [d for w, d in res2.decisions if not d.member]
    assert failing and isinstance(failing[0].certificate, FunctionalCert)
    res3 = generates_all([], ring=QQ, arity=1)
    assert not res3.result
    with pytest.raises(ValueError):
        generates_all([])


# -- min_support ------------------------------------------------------------------


def test_min_support_difference_generator():
    assert min_support([GEN_DIFF], 1) is None
    found = min_support([GEN_DIFF], 2)
    assert found is not None and len(found.terms) <= 2 and not found.is_zero
    assert membership(found, [GEN_DIFF]).member


def test_min_support_integer_translate():
    gen = vec(ZZ, 1, [((0,), 2)])
    found = min_support([gen], 1)
    assert found == vec(ZZ, 1, [((1,), 2)])
    assert min_support([], 3) is None
    with pytest.raises(ValueError):
        min_support([gen], 0)


def four_point(ring):
    """(0,1) - (1,2) + (2,3) - (3,0)."""
    return vec(ring, 2, [((i, (i + 1) % 4), (-1) ** i) for i in range(4)])


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_min_support_four_point_k3_is_fast(ring):
    # re-echelonising every row per candidate subset took 22.9 s over Q
    t0 = time.perf_counter()
    found = min_support([four_point(ring)], 3)
    assert time.perf_counter() - t0 < 1.0
    assert found == vec(ring, 2, [((1, 2), 1), ((2, 1), -1)])
    assert membership(found, [four_point(ring)]).member


@pytest.mark.parametrize("ring", [QQ, ZZ])
def test_min_support_four_point_k5_returns(ring):
    # W is nonzero on 90 of the 100 singleton columns: the subsets are
    # never listed, only walked up to the first hit
    assert min_support([four_point(ring)], 5) == vec(ring, 2, [((1, 2), 1), ((2, 1), -1)])


def test_min_support_matches_reference():
    """The parity-check subset test returns the reference's vector, or
    None with it, on seeded random generators."""
    rng = random.Random(24)
    for ring in (QQ, GF(2), GF(3), GF(5), ZZ):
        for arity in (1, 2, 3):
            for k in (1, 2, 3):
                for _ in range(2):
                    profile = InstanceProfile(ring=ring, arity=arity, max_support=3)
                    gens = random_instance(rng.randrange(10**6), profile).generators
                    assert min_support(gens, k) == reference.min_support(gens, k)
    # a hit that is not primitive in the lattice: over Z the least
    # multiple of the rational dependency that lies in W
    gen = vec(ZZ, 2, [((0, 1), 2), ((1, 0), -4)])
    found = min_support([gen], 2)
    assert found == reference.min_support([gen], 2) == vec(ZZ, 2, [((1, 2), 2), ((2, 1), -4)])


def test_colex_lists_every_proper_subset_first():
    # the first hit of `min_support` is unique up to scale only because
    # every proper subset was tried before it
    for n in range(8):
        for k in range(1, 5):
            seen = []
            for subset in _colex(n, k):
                assert all(sub in seen for size in range(1, len(subset))
                           for sub in combinations(subset, size))
                seen.append(subset)
            assert sorted(seen) == sorted(c for size in range(1, k + 1)
                                          for c in combinations(range(n), size))


def test_min_support_tri_k6_is_fast():
    # the reference search takes about 10 s here and returns this vector
    gen = vec(QQ, 2, [((0, 1), 1), ((1, 2), 2), ((2, 0), 3)])
    t0 = time.process_time()
    found = min_support([gen], 6)
    assert time.process_time() - t0 < 2.0
    assert found == vec(QQ, 2, [((1, 2), 3), ((1, 3), -2), ((2, 1), 3), ((2, 3), 2)])
    assert membership(found, [gen]).member


# -- the pure-set reduct -----------------------------------------------------------


def test_reduct_translate_and_obstruction():
    gen = vec(QQ, 2, [((0, 1), 1), ((1, 0), -1)])
    pure = pure_set_expand([gen])
    yes = membership(vec(QQ, 2, [((3, 5), 1), ((5, 3), -1)]), pure)
    assert yes.member
    no = membership(vec(QQ, 2, [((3, 5), 1), ((5, 3), 1)]), pure)
    assert not no.member
    assert isinstance(no.certificate, FunctionalCert)
    # a case the order group alone cannot reach: swapping the coordinates
    single = vec(QQ, 2, [((0, 1), 1)])
    swapped = vec(QQ, 2, [((4, 3), 1)])
    assert not membership(swapped, [single]).member
    assert membership(swapped, pure_set_expand([single])).member
    assert membership(gen, pure).member
    yes_target = vec(QQ, 2, [((3, 5), 1), ((5, 3), -1)])
    no_target = vec(QQ, 2, [((3, 5), 1), ((5, 3), 1)])
    assert verify_certificate(yes, yes_target, pure)
    assert verify_certificate(no, no_target, pure)


# -- cyclic generators ---------------------------------------------------------------


def test_cyclic_single_generator():
    res = cyclic_generator([GEN_DIFF])
    placed = res.generator
    assert len(placed.terms) == 2
    assert all(Fraction(2) < c < Fraction(3) for t, _ in placed.terms for c in t)
    assert res.back.member and all(d.member for d in res.into)


def test_cyclic_pair_matches_block_construction():
    g2 = vec(QQ, 1, [((0,), 1), ((1,), -2), ((2,), 1)])
    res = cyclic_generator([GEN_DIFF, g2])
    expected = vec(
        QQ,
        1,
        [
            ((Fraction(9, 4),), 1),
            ((Fraction(5, 2),), -1),
            ((Fraction(17, 4),), 1),
            ((Fraction(9, 2),), -2),
            ((Fraction(19, 4),), 1),
        ],
    )
    assert res.generator == expected
    assert res.back.member and all(d.member for d in res.into)
    # the single combined vector generates each original back
    assert membership(g2, [res.generator]).member


def test_cyclic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cyclic_generator([vec(QQ, 1, [((0,), 1), ((1,), 1)])])  # not aug-zero
    with pytest.raises(RingError):
        cyclic_generator([vec(ZZ, 1, [((0,), 1), ((1,), -1)])])  # not a field
    with pytest.raises(ValueError):
        cyclic_generator([])


# -- explicit witnesses ----------------------------------------------------------------


def test_witness_budget_failure_does_not_weaken_verdict():
    # budget too small for any grid: witness absent, verdict unchanged
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF], witness_budget=2)
    assert d.member and d.certificate.explicit is None
    assert verify_certificate(d, target, [GEN_DIFF])


def test_witness_agrees_with_oracle():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    res = oracle_membership(target, [GEN_DIFF], 4)
    assert res.conclusive
    d = membership(target, [GEN_DIFF], witness_budget=4)
    assert d.certificate.explicit is not None
    assert d.certificate.explicit.summands == res.witness.summands
