"""Grid oracle: spans, witness search, instance generation."""

import json
import time
from fractions import Fraction

import pytest
from reference import oracle_every_grid

from permod.decide import membership
from permod.oracle import (
    InstanceProfile,
    grid_span,
    oracle_membership,
    random_instance,
)
from permod.pmod import ModVector, support_points
from permod.ring import GF, QQ, ZZ, RingError


def vec(ring, arity, items):
    return ModVector.from_terms(ring, arity, items)


GEN_DIFF = vec(QQ, 1, [((0,), 1), ((1,), -1)])


def test_grid_span_difference_basis():
    basis = grid_span([GEN_DIFF], 3)
    assert basis == [
        vec(QQ, 1, [((1,), 1), ((2,), -1)]),
        vec(QQ, 1, [((2,), 1), ((3,), -1)]),
    ]


def test_grid_span_trivial_cases():
    single = vec(QQ, 1, [((0,), 1)])
    assert grid_span([single], 2) == [
        vec(QQ, 1, [((1,), 1)]),
        vec(QQ, 1, [((2,), 1)]),
    ]
    assert grid_span([], 4) == []


def test_grid_span_z_keeps_lattice_scaling():
    doubled = vec(ZZ, 1, [((0,), 2)])
    basis = grid_span([doubled], 2)
    assert basis == [
        vec(ZZ, 1, [((1,), 2)]),
        vec(ZZ, 1, [((2,), 2)]),
    ]


def test_grid_too_small():
    with pytest.raises(ValueError):
        grid_span([GEN_DIFF], 1)


def test_oracle_telescoping_witness():
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    res = oracle_membership(target, [GEN_DIFF], 4)
    assert res.conclusive and res.grid_size == 4
    total = ModVector.zero(QQ, 1)
    for c, w in res.witness.summands:
        total = total.add(w.scale(c))
    assert total == target


def test_oracle_obstruction_stays_inconclusive():
    res = oracle_membership(vec(QQ, 1, [((0,), 1)]), [GEN_DIFF], 8)
    assert res.status == "inconclusive" and res.witness is None


def test_oracle_generator_is_its_own_witness():
    res = oracle_membership(GEN_DIFF, [GEN_DIFF], 6)
    assert res.conclusive
    assert res.grid_size == 4  # first grid in the schedule


def test_oracle_zero_target():
    res = oracle_membership(ModVector.zero(QQ, 1), [GEN_DIFF], 5)
    assert res.conclusive and res.witness.summands == ()


def test_oracle_sound_for_gf_and_z():
    g = vec(GF(2), 1, [((0,), 1), ((1,), 1)])
    t = vec(GF(2), 1, [((2,), 1), ((5,), 1)])
    res = oracle_membership(t, [g], 6)
    assert res.conclusive
    gz = vec(ZZ, 1, [((0,), 2)])
    assert oracle_membership(vec(ZZ, 1, [((4,), 1)]), [gz], 8).status == "inconclusive"
    assert oracle_membership(vec(ZZ, 1, [((4,), 2)]), [gz], 8).conclusive


def test_random_instance_deterministic():
    prof = InstanceProfile()
    a = random_instance(12, prof)
    b = random_instance(12, prof)
    assert a == b
    assert a != random_instance(13, prof)


def test_random_instances_respect_profile():
    for seed in range(40):
        prof = InstanceProfile(ring=[QQ, GF(2), GF(3), ZZ][seed % 4])
        inst = random_instance(seed, prof)
        assert inst.target.arity <= prof.arity
        for v in (*inst.generators, inst.target):
            assert v.ring == prof.ring
            assert len(v.terms) <= prof.max_support * 4  # combination of few translates
            for p in support_points(v).points:
                assert 0 <= p < prof.point_pool


def test_random_instance_rejects_coefficients_outside_the_ring():
    with pytest.raises(RingError):
        random_instance(0, InstanceProfile(ring=ZZ, coeff_pool=(Fraction(1, 2),)))


def test_degenerate_profiles_rejected_at_once():
    # every pool coefficient is 0 mod 2: drawing a nonzero vector never ends
    with pytest.raises(ValueError, match="coeff_pool"):
        InstanceProfile(ring=GF(2), coeff_pool=(2,))
    for field in ("arity", "max_support", "point_pool"):
        with pytest.raises(ValueError, match=field):
            InstanceProfile(**{field: 0})


def test_planted_instances_are_members():
    hits = 0
    for seed in range(30):
        inst = random_instance(seed, InstanceProfile())
        if not inst.planted:
            continue
        hits += 1
        assert membership(inst.target, list(inst.generators)).member
    assert hits > 5


def test_planted_witnesses_found_when_grid_is_big_enough():
    """One-sided completeness: the planted combination lives inside the
    point pool, so a grid covering it must produce a witness."""
    for seed in range(40):
        inst = random_instance(seed, InstanceProfile())
        if not inst.planted:
            continue
        res = oracle_membership(inst.target, list(inst.generators), 10)
        assert res.conclusive, f"seed {seed}"


def test_oracle_agrees_with_decider_on_small_batch():
    for seed in range(25):
        prof = InstanceProfile(ring=[QQ, GF(2), ZZ][seed % 3])
        inst = random_instance(seed, prof)
        decided = membership(inst.target, list(inst.generators))
        res = oracle_membership(inst.target, list(inst.generators), 8)
        if res.conclusive:
            assert decided.member
            total = ModVector.zero(inst.target.ring, inst.target.arity)
            for c, w in res.witness.summands:
                total = total.add(w.scale(c))
            assert total == inst.target


def oracle_key(res):
    witness = res.witness and json.dumps(res.witness.to_json(), sort_keys=True)
    return res.status, res.grid_size, witness


@pytest.mark.parametrize("seed", [953097914958, 994601624964, 1068538071434])
def test_explosive_z_instances_settle_fast(seed):
    """Z instances whose unreduced lattice basis explodes on the middle
    grids (953097914958 took 10.8 s with every grid built): the
    last-grid probe rules every embedding out at once."""
    inst = random_instance(seed, InstanceProfile(ring=ZZ))
    t0 = time.perf_counter()
    res = oracle_membership(inst.target, list(inst.generators), 10)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "inconclusive"


@pytest.mark.parametrize("ring, seed, grid", [
    (QQ, 2300, 8), (QQ, 2474, 10), (GF(3), 2554, 8), (GF(3), 2018, 6),
])
def test_probe_keeps_later_grid_hits(ring, seed, grid):
    """Hits past the first grid, the last one included, come from the
    same grid with the same witness as the every-grid search."""
    inst = random_instance(seed, InstanceProfile(ring=ring))
    res = oracle_membership(inst.target, list(inst.generators), 10)
    assert res.grid_size == grid
    assert oracle_key(res) == oracle_key(oracle_every_grid(inst.target, list(inst.generators), 10))


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), ZZ], ids=lambda r: r.name)
def test_oracle_matches_every_grid_search(ring):
    for seed in range(2000, 2150):
        inst = random_instance(seed, InstanceProfile(ring=ring))
        gens = list(inst.generators)
        assert oracle_key(oracle_membership(inst.target, gens, 10)) == \
            oracle_key(oracle_every_grid(inst.target, gens, 10)), f"seed {seed}"
