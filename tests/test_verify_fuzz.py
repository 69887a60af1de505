"""Adversarial check of the certificate verifier.

Each mutation below is chosen so that it must break a certificate
identity (not merely differ from the emitted certificate — certificates
are not unique), so the verifier has to answer False every time.
"""

from permod.decide import (
    CharacterCert,
    Decision,
    FunctionalCert,
    SpanWitnessCert,
    membership,
    verify_certificate,
)
from permod.oracle import InstanceProfile, random_instance
from permod.pmod import AugVector, act, orbit_canonical_form, support_points
from permod.ring import GF, QQ, ZZ

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
    forms = {orbit_canonical_form(g) for g in gens}
    if ring.neg(ring.one()) != ring.one() and orbit_canonical_form(rep.neg()) not in forms:
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
