"""Adversarial check of the certificate verifier.

Each mutation below is chosen so that it must break a certificate
identity (not merely differ from the emitted certificate — certificates
are not unique), so the verifier has to answer False every time.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from permod.cli import main
from permod.decide import (
    CharacterCert,
    Decision,
    FunctionalCert,
    SpanWitnessCert,
    decision_from_json,
    decision_to_json,
    membership,
    verify_certificate,
)
from permod.oracle import InstanceProfile, random_instance
from permod.pmod import AugVector, ModVector, act, chain_skeleton, support_points
from permod.ring import GF, QQ, ZZ
from permod.structure import ParamSet
from reference import is_placed_rep, place, slot_maps

RINGS = [QQ, GF(2), GF(3), ZZ]


def off_canonical(rep, params):
    """rep with one gap point moved further into its gap: the same orbit of
    the parameter stabiliser (so the same coefficient sums), but not the
    canonical realisation of its placement.  None if no point is in a gap."""
    pts = support_points(rep).points
    for x in pts:
        if x not in params.points:
            above = [p for p in pts + params.points if p > x]
            mapping = {p: p for p in pts}
            mapping[x] = (x + min(above)) / 2 if above else x + 1
            return act(rep, mapping)
    return None


def rep_swaps(decision: Decision, ring, gens):
    """(kind, decision) pairs that swap the first certified representative
    for a vector with the same coefficient sums that is not one of the
    placed representatives, so that only the representative check can
    catch them."""
    cert = decision.certificate
    if not isinstance(cert, SpanWitnessCert) or not cert.terms:
        return []
    coeff, rep = cert.terms[0]
    out = []
    moved = off_canonical(rep, decision.param_set)
    if moved is not None:
        out.append(("off-canonical", ((coeff, moved),)))
    # -rep placed from -g, a generator outside the family unless -g lies
    # in the orbit of a generator
    keys = {chain_skeleton(g)[1] for g in gens}
    if ring.neg(ring.one()) != ring.one() and chain_skeleton(rep.neg())[1] not in keys:
        out.append(("foreign", ((ring.neg(coeff), rep.neg()),)))
    return [
        (kind, Decision(True, SpanWitnessCert(head + cert.terms[1:], cert.explicit),
                        decision.param_set, decision.rep_count))
        for kind, head in out
    ]


def mutations(decision: Decision, ring, gens):
    """Guaranteed-breaking variants of a decision."""
    out = [bad for _, bad in rep_swaps(decision, ring, gens)]
    cert = decision.certificate
    # wrong bookkeeping
    out.append(Decision(decision.member, cert, decision.param_set, decision.rep_count + 1))
    if decision.rep_count:
        out.append(Decision(decision.member, cert, decision.param_set, decision.rep_count - 1))
    if isinstance(cert, SpanWitnessCert):
        # flipped verdict keeps a YES-shaped certificate on a NO claim
        out.append(Decision(False, cert, decision.param_set, decision.rep_count))
        if cert.terms:
            coeff, rep = cert.terms[0]
            # every certified representative has a nonzero coefficient sum
            # image, so doubling one coefficient shifts the combination
            doubled = ((ring.add(coeff, coeff), rep),) + cert.terms[1:]
            out.append(
                Decision(True, SpanWitnessCert(doubled, cert.explicit),
                         decision.param_set, decision.rep_count)
            )
            out.append(
                Decision(True, SpanWitnessCert(cert.terms[1:], cert.explicit),
                         decision.param_set, decision.rep_count)
            )
    elif isinstance(cert, FunctionalCert):
        out.append(Decision(True, cert, decision.param_set, decision.rep_count))
        out.append(
            Decision(False, FunctionalCert(AugVector.from_dict(ring, {})),
                     decision.param_set, decision.rep_count)
        )
    elif isinstance(cert, CharacterCert):
        out.append(Decision(True, cert, decision.param_set, decision.rep_count))
        out.append(
            Decision(False, CharacterCert(()), decision.param_set, decision.rep_count)
        )
    return out


def test_verifier_rejects_every_guaranteed_break():
    rejected = 0
    for seed in range(120):
        ring = RINGS[seed % 4]
        inst = random_instance(seed, InstanceProfile(ring=ring))
        gens = list(inst.generators)
        decision = membership(inst.target, gens)
        assert verify_certificate(decision, inst.target, gens)
        for bad in mutations(decision, ring, gens):
            assert not verify_certificate(bad, inst.target, gens), (
                f"seed {seed}: tampered decision verified"
            )
            rejected += 1
    assert rejected > 300


def test_verifier_rejects_reps_that_are_not_placed_representatives():
    kinds = {"off-canonical": 0, "foreign": 0}
    for seed in range(160):
        ring = RINGS[seed % 4]
        inst = random_instance(seed, InstanceProfile(ring=ring))
        gens = list(inst.generators)
        decision = membership(inst.target, gens)
        for kind, bad in rep_swaps(decision, ring, gens):
            assert not verify_certificate(bad, inst.target, gens), f"seed {seed}: {kind}"
            kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds


def test_verifier_rejects_cross_instance_certificates():
    decisions = []
    for seed in range(32):
        ring = RINGS[seed % 4]
        inst = random_instance(seed, InstanceProfile(ring=ring))
        d = membership(inst.target, list(inst.generators))
        decisions.append((inst, d))
    swaps = 0
    for i in range(len(decisions) - 4):
        inst_a, d_a = decisions[i]
        inst_b, d_b = decisions[i + 4]  # same ring, different instance
        if d_a == d_b:
            continue
        swaps += 1
        ok = verify_certificate(d_b, inst_a.target, list(inst_a.generators))
        if ok:
            # a foreign certificate may only pass if it happens to satisfy
            # the identities for this instance too; re-check the claim
            assert d_b.member == membership(inst_a.target, list(inst_a.generators)).member
    assert swaps > 10


def test_verifier_rejects_reps_over_another_ring(tmp_path, capsys):
    # Q copies of a GF(3) certificate's reps have the reps' chain skeletons
    # (1 and 2 as Fractions hash like the residues), so only the ring
    # comparison tells them apart
    target = ModVector.from_terms(GF(3), 1, [((0,), 1), ((2,), -1)])
    gens = [ModVector.from_terms(GF(3), 1, [((0,), 1), ((1,), -1)])]
    d = membership(target, gens)
    assert d.member and d.certificate.terms and verify_certificate(d, target, gens)
    copies = tuple((c, ModVector.from_terms(QQ, rep.arity, rep.terms))
                   for c, rep in d.certificate.terms)
    assert [chain_skeleton(q) for _, q in copies] == \
        [chain_skeleton(rep) for _, rep in d.certificate.terms]
    obj = decision_to_json(Decision(True, SpanWitnessCert(copies), d.param_set, d.rep_count))
    assert not verify_certificate(decision_from_json(obj, GF(3)), target, gens)

    argv = ["verify"]
    for flag, payload in (("decision", obj), ("target", target.to_json()),
                          ("gens", [g.to_json() for g in gens])):
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{flag}", str(path)]
    assert (main(argv), capsys.readouterr().out) == (3, '{"verified":false}\n')


# -- the representative check against placing every generator ------------------

AGREE_RINGS = [QQ, GF(2), GF(3), GF(5), ZZ]
AGREE_POINTS = [Fraction(v) for v in (-1, 0, Fraction(1, 2), 1, 3)]


@st.composite
def agree_family(draw, ring, arity):
    """One to three generators over ``ring``, one of them possibly zero."""
    terms = st.lists(st.tuples(st.tuples(*[st.sampled_from(AGREE_POINTS)] * arity),
                               st.sampled_from([-2, -1, 1, 2])), max_size=4)
    return [ModVector.from_terms(ring, arity, t) for t in draw(st.lists(terms, min_size=1,
                                                                         max_size=3))]


def _placements(gens, params, rnd, k=12):
    """Up to k canonical representatives of each generator."""
    out = []
    for g in gens:
        maps = list(slot_maps(len(support_points(g).points), params.size))
        out += [place(g, slot_map, params) for slot_map in rnd.sample(maps, min(k, len(maps)))]
    return out


@given(st.sampled_from(AGREE_RINGS), st.integers(1, 2), st.data(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_skeleton_check_agrees_with_placing_every_generator(ring, arity, data, rnd):
    gens = data.draw(agree_family(ring, arity))
    others = data.draw(agree_family(ring, data.draw(st.integers(1, 2))))
    params = ParamSet.of(data.draw(st.sets(st.sampled_from(AGREE_POINTS[1:] + [Fraction(2)]),
                                           max_size=3)))
    placed = _placements(gens, params, rnd)
    reps = placed + _placements(others, params, rnd, 4)
    reps += [moved for rep in placed if (moved := off_canonical(rep, params)) is not None]
    reps += [rep.neg() for rep in placed]
    other_ring = QQ if ring != QQ else GF(3)
    reps += [ModVector.from_terms(other_ring, rep.arity, rep.terms) for rep in placed[:6]]
    reps += [ModVector.zero(ring, arity), ModVector.zero(ring, 3 - arity)]
    zero = ModVector.zero(ring, arity)
    rep_count = membership(zero, gens, param_set=params).rep_count
    one, minus = ring.one(), ring.neg(ring.one())
    for rep in reps:
        # the two terms cancel, so the zero target verifies exactly when
        # rep passes the representative check
        d = Decision(True, SpanWitnessCert(((one, rep), (minus, rep))), params, rep_count)
        assert verify_certificate(d, zero, gens) == is_placed_rep(rep, gens, params), rep
