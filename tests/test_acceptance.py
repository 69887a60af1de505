"""Acceptance suite: one test per criterion, exact checks, stated runtime
bounds asserted.  Each test prints a single PASS line (visible with -s).

Run:  pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from permod.decide import (
    CharacterCert,
    FunctionalCert,
    cyclic_generator,
    membership,
    pure_set_expand,
    verify_certificate,
)
from permod.oracle import InstanceProfile, oracle_membership, random_instance
from permod.pmod import ModVector, omega, support_points
from permod.ring import GF, QQ, ZZ
from permod.structure import ParamSet
from reference import enumerate_placements, orbit_reps_over


def vec(ring, arity, items):
    return ModVector.from_terms(ring, arity, items)


def combine(witness, ring, arity):
    total = ModVector.zero(ring, arity)
    for c, w in witness:
        total = total.add(w.scale(c))
    return total


GEN_DIFF = vec(QQ, 1, [((0,), 1), ((1,), -1)])


def report(n, name):
    print(f"ACCEPTANCE {n:>2} {name}: PASS")


def test_01_telescoping_membership():
    t0 = time.perf_counter()
    target = vec(QQ, 1, [((0,), 1), ((2,), -1)])
    d = membership(target, [GEN_DIFF], witness_budget=4)
    assert d.member is True
    assert d.rep_count == 13
    assert d.param_set == ParamSet.of([0, 2])
    explicit = d.certificate.explicit
    assert explicit is not None, "explicit witness not found within maxGrid 4"
    assert combine(explicit.summands, QQ, 1) == target
    assert verify_certificate(d, target, [GEN_DIFF])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "telescoping membership")


def test_02_augmentation_obstruction():
    t0 = time.perf_counter()
    target = vec(QQ, 1, [((0,), 1)])
    d = membership(target, [GEN_DIFF])
    assert d.member is False
    assert d.rep_count == 5
    assert d.param_set == ParamSet.of([0])
    phi = d.certificate.functional.entry_dict()
    assert set(phi.values()) == {Fraction(1)}, "functional is not all-ones"
    assert len(phi) == 3  # every occurring pattern coordinate
    assert verify_certificate(d, target, [GEN_DIFF]) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, "augmentation obstruction")


def test_03_characteristic_sensitivity():
    tq = vec(QQ, 1, [((0,), 1), ((1,), 1)])
    dq = membership(tq, [GEN_DIFF])
    assert dq.member is False
    t2 = vec(GF(2), 1, [((0,), 1), ((1,), 1)])
    g2 = vec(GF(2), 1, [((0,), 1), ((1,), -1)])
    d2 = membership(t2, [g2])
    assert d2.member is True
    assert verify_certificate(dq, tq, [GEN_DIFF]) and verify_certificate(d2, t2, [g2])
    report(3, "characteristic sensitivity")


def test_04_integer_character_certificate():
    target = vec(ZZ, 1, [((0,), 1), ((1,), 1)])
    gen = vec(ZZ, 1, [((0,), 2)])
    d = membership(target, [gen])
    assert d.member is False
    assert d.rep_count == 5
    cert = d.certificate
    assert isinstance(cert, CharacterCert)
    assert cert.denominator == 2
    chi = dict(cert.values)

    def value(x):
        return sum(chi.get(k, 0) * c for k, c in omega(x, d.param_set).entries) % 1

    assert value(target) == Fraction(1, 2)
    reps = orbit_reps_over(gen, d.param_set)
    assert len(reps) == 5
    assert all(value(r) == 0 for r in reps)
    assert verify_certificate(d, target, [gen])
    report(4, "integer character certificate")


def test_05_placement_counts():
    t0 = time.perf_counter()

    def brute(m, s):
        count = 0
        for cand in product(range(2 * s + 1), repeat=m):
            if any(a > b for a, b in zip(cand, cand[1:])):
                continue
            odd = [k for k in cand if k % 2]
            if len(odd) != len(set(odd)):
                continue
            count += 1
        return count

    for m in range(5):
        for s in range(4):
            params = ParamSet.of(range(0, 3 * s, 3))
            chain = [Fraction(i) for i in range(m)]
            assert len(enumerate_placements(chain, params)) == brute(m, s)
    assert len(enumerate_placements([Fraction(0), Fraction(1)], ParamSet.of([0]))) == 5
    assert len(enumerate_placements([Fraction(0), Fraction(1)], ParamSet.of([0, 2]))) == 13
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    report(5, "placement counts")


def test_06_randomized_cross_validation():
    t0 = time.perf_counter()
    rings = [QQ, GF(2), GF(3), ZZ]
    planted_count = 0
    member_count = 0
    oracle_yes = 0
    for seed in range(1000):
        profile = InstanceProfile(ring=rings[seed % 4])
        inst = random_instance(seed, profile)
        gens = list(inst.generators)
        d = membership(inst.target, gens)
        assert verify_certificate(d, inst.target, gens), f"seed {seed}: bad certificate"
        if inst.planted:
            planted_count += 1
            assert d.member, f"seed {seed}: planted instance decided NO"
        member_count += d.member
        res = oracle_membership(inst.target, gens, 10)
        if res.conclusive:
            oracle_yes += 1
            assert d.member, f"seed {seed}: oracle witness contradicts NO"
            total = combine(res.witness.summands, inst.target.ring, inst.target.arity)
            assert total == inst.target
    elapsed = time.perf_counter() - t0
    # sanity on the mix: both verdicts occur, plants are plentiful
    assert planted_count > 300
    assert 0 < member_count < 1000
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(6, f"randomized cross-validation ({member_count} members, "
              f"{oracle_yes} oracle-confirmed, {elapsed:.1f}s)")


def test_07_override_stability():
    rings = [QQ, GF(2), GF(3), ZZ]
    import random as _random

    rng = _random.Random(99)
    for seed in range(200):
        profile = InstanceProfile(ring=rings[seed % 4])
        inst = random_instance(10_000 + seed, profile)
        gens = list(inst.generators)
        base = membership(inst.target, gens)
        extra = {
            Fraction(rng.randint(-30, 40), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
        }
        bigger = ParamSet.of(set(support_points(inst.target).points) | extra)
        over = membership(inst.target, gens, param_set=bigger)
        assert base.member == over.member, f"seed {seed}: verdict changed under superset"
        assert verify_certificate(over, inst.target, gens)
    report(7, "override stability")


def test_08_cyclic_generator_round_trip():
    t0 = time.perf_counter()
    g2 = vec(QQ, 1, [((0,), 1), ((1,), -2), ((2,), 1)])
    res = cyclic_generator([GEN_DIFF, g2])
    assert res.back.member and all(d.member for d in res.into)
    for d, g in zip(res.into, [GEN_DIFF, g2]):
        assert verify_certificate(d, g, [res.generator])
    assert verify_certificate(res.back, res.generator, [GEN_DIFF, g2])
    confirm = oracle_membership(g2, [res.generator], 12)
    assert confirm.conclusive, "oracle failed to confirm within maxGrid 12"
    assert combine(confirm.witness.summands, QQ, 1) == g2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(8, "cyclic generator round-trip")


def test_09_reduct_reduction():
    gen = vec(QQ, 2, [((0, 1), 1), ((1, 0), -1)])
    pure = pure_set_expand([gen])
    yes_target = vec(QQ, 2, [((3, 5), 1), ((5, 3), -1)])
    yes = membership(yes_target, pure)
    assert yes.member is True
    assert verify_certificate(yes, yes_target, pure)
    no_target = vec(QQ, 2, [((3, 5), 1), ((5, 3), 1)])
    no = membership(no_target, pure)
    assert no.member is False
    assert isinstance(no.certificate, FunctionalCert)
    assert verify_certificate(no, no_target, pure)
    # expansion count is the factorial of the support-point count
    import math

    for points in ([Fraction(0)], [Fraction(0), Fraction(1)], [0, 1, 2], [0, 1, 2, 3]):
        pts = [Fraction(p) for p in points]
        # distinct coefficients, so every relabelling is a distinct vector
        g = vec(QQ, 1, [((p,), i + 1) for i, p in enumerate(pts)])
        assert len(set(pure_set_expand([g]))) == math.factorial(len(pts))
    report(9, "reduct reduction")


def test_10_cli_determinism(tmp_path):
    target = tmp_path / "x.json"
    gens = tmp_path / "g.json"
    target.write_text(
        json.dumps(
            {
                "ring": "Q",
                "arity": 1,
                "terms": [
                    {"coeff": "1", "tuple": ["0"]},
                    {"coeff": "-1", "tuple": ["2"]},
                ],
            }
        )
    )
    gens.write_text(
        json.dumps(
            [
                {
                    "ring": "Q",
                    "arity": 1,
                    "terms": [
                        {"coeff": "1", "tuple": ["0"]},
                        {"coeff": "-1", "tuple": ["1"]},
                    ],
                }
            ]
        )
    )
    outputs = set()
    for _ in range(3):
        for cmd in (
            ["decide", "--target", str(target), "--gens", str(gens), "--witness-budget", "4"],
            ["omega", "--target", str(target), "--params", "0,2"],
        ):
            run = subprocess.run(
                [sys.executable, "-m", "permod.cli", *cmd],
                capture_output=True,
                check=True,
            )
            outputs.add((tuple(cmd), run.stdout))
    assert len(outputs) == 2  # one distinct byte string per command
    report(10, "CLI determinism")
