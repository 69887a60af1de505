"""Membership decisions with independently checkable certificates.

The decision reduces membership of a target vector in the module
generated by the given vectors under all order automorphisms to a span
question among finitely many placed representatives: the parameter set S
is the support chain of the target (or any finite superset), the
representatives are the generators acted by every placement of their
support chains relative to S, and both sides are compared through their
orbitwise coefficient sums over S.

Every verdict carries a certificate:

* YES: span coefficients against the placed representatives, optionally
  an explicit witness (an exact combination of acted generators found by
  the grid oracle within a budget);
* NO over a field: a functional on pattern coordinates vanishing on all
  representatives but not on the target;
* NO over Z: a character into the rationals mod 1 with the same
  separation property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Sequence

from permod import oracle as _oracle
from permod.linalg import character_from_span, make_span, normalize_functional
from permod.oracle import ExplicitWitness
from permod.pmod import (
    AugVector,
    ModVector,
    act,
    chain_skeleton,
    check_family,
    omega,
    placed_rows,
    relabel,
    support_points,
    translate_onto,
)
from permod.ring import QQ, RingError, RingSpec, Scalar
from permod.structure import (
    ParamSet,
    canonical_orbit_reps,
    gap_values,
    parse_point,
    pattern_of_tuple,
    placement_count,
    realize,
    slot_map_of,
)


@dataclass(frozen=True)
class SpanWitnessCert:
    """YES certificate: coefficients against placed representatives."""

    terms: tuple[tuple[Scalar, ModVector], ...]
    explicit: ExplicitWitness | None = None


@dataclass(frozen=True)
class FunctionalCert:
    """NO certificate over a field: an invariant functional, given by its
    value on each occurring pattern coordinate."""

    functional: AugVector


@dataclass(frozen=True)
class CharacterCert:
    """NO certificate over Z: pattern coordinate -> rational mod 1."""

    values: tuple[tuple[str, Fraction], ...]

    @property
    def denominator(self) -> int:
        return lcm(*(v.denominator for _, v in self.values))


Certificate = SpanWitnessCert | FunctionalCert | CharacterCert


@dataclass(frozen=True)
class Decision:
    member: bool
    certificate: Certificate
    param_set: ParamSet
    rep_count: int


class VerificationError(RuntimeError):
    """A construction failed its own membership re-check."""

    def __init__(self, message: str, decision: Decision | None = None):
        super().__init__(message)
        self.decision = decision


def _dedup_orbits(generators: Sequence[ModVector]) -> dict[tuple, int]:
    """One record per orbit of the family, in first-seen order: chain
    skeleton (the orbit's key: equal exactly when an increasing map joins
    two generators) -> chain length, 0 for a zero generator."""
    return {skeleton: len(chain) for chain, skeleton in map(chain_skeleton, generators)}


def _rep_count(orbits: dict[tuple, int], params: ParamSet) -> int:
    return sum(placement_count(m, params.size) for m in orbits.values())


def membership(
    target: ModVector,
    generators: Sequence[ModVector],
    *,
    param_set: ParamSet | None = None,
    witness_budget: int = 0,
) -> Decision:
    """Decide whether the target lies in the module generated by the given
    vectors under all order automorphisms.

    ``param_set`` may name any finite superset of the target's support
    points (the verdict does not depend on the choice); ``witness_budget``
    caps the grid size of the optional explicit-witness search on YES.

    Rows go in in placement order, each naming its representative, from
    `placed_rows` pruned by the engine's residue: the rows it skips lie in
    the span and would change neither basis nor provenance.  Over a field
    the search stops once the target is in the span; over Z it runs on.
    """
    generators = list(generators)
    check_family([target, *generators])
    ring = target.ring
    support = support_points(target)
    params = param_set if param_set is not None else support
    if not params.issuperset(support):
        raise ValueError("parameter set must contain the support points of the target")

    orbits = _dedup_orbits(generators)
    rep_count = _rep_count(orbits, params)
    target_aug = omega(target, params)
    engine = make_span(ring)
    first: list = []  # (skeleton, slot map) of each inserted row
    rows = ((skeleton, slot_map, row) for skeleton in orbits
            for slot_map, row in placed_rows(skeleton, ring, params, engine.residue))
    for skeleton, slot_map, row in () if target_aug.is_zero else rows:
        first.append((skeleton, slot_map))
        if engine.insert(row.entries) and ring.is_field and not engine.residue(target_aug.entries):
            break
    comb = engine.reduce_comb(target_aug.entries)

    if comb is not None:
        terms = tuple(
            (comb[j], translate_onto(first[j][0], ring, target.arity,
                                     realize(first[j][1], params.points)))
            for j in sorted(comb) if comb[j] != 0
        )
        explicit = None
        if witness_budget:
            explicit = _oracle.oracle_membership(target, generators, witness_budget).witness
        cert: Certificate = SpanWitnessCert(terms, explicit)
        return Decision(True, cert, params, rep_count)

    if ring.is_field:
        phi = normalize_functional(engine.functional(target_aug.entries), ring)
        functional = AugVector.from_dict(ring, phi)
        return Decision(False, FunctionalCert(functional), params, rep_count)

    chi = character_from_span(engine, target_aug.entry_dict())
    return Decision(False, CharacterCert(tuple(chi.items())), params, rep_count)


def verify_certificate(
    decision: Decision,
    target: ModVector,
    generators: Sequence[ModVector],
) -> bool:
    """Recompute the representative count, the certified representatives
    and the coefficient sums from scratch and re-evaluate the certificate
    identities.  False signals a defect.  A certified representative (and
    an explicit witness's summand) is one lookup, not a loop over the
    generators: its chain skeleton must be an orbit key of the family, and
    a representative's chain the canonical realisation of its own slot map.
    A NO certificate must pair to zero with every placed row: pairing is
    additive over terms, so the partial pairing is the residue that prunes
    `placed_rows`.
    """
    try:
        generators = list(generators)
        check_family([target, *generators])
        ring = target.ring
        params = decision.param_set
        if not params.issuperset(support_points(target)):
            return False
        orbits = _dedup_orbits(generators)
        if decision.rep_count != _rep_count(orbits, params):
            return False
        target_aug = omega(target, params)
        cert = decision.certificate

        if decision.member:
            if not isinstance(cert, SpanWitnessCert):
                return False
            total = AugVector.from_dict(ring, {})
            for coeff, rep in cert.terms:
                chain, skeleton = chain_skeleton(rep)
                if (skeleton not in orbits or (rep.ring, rep.arity) != (ring, target.arity)
                        or realize(slot_map_of(chain, params.points), params.points) != chain
                        or ring.is_zero(coeff)):
                    return False
                total = total.add(omega(rep, params).scale(coeff))
            if total != target_aug:
                return False
            return cert.explicit is None or (
                all(chain_skeleton(vec)[1] in orbits for _, vec in cert.explicit.summands)
                and cert.explicit.evaluate(ring, target.arity) == target)

        if isinstance(cert, FunctionalCert):
            if not ring.is_field or cert.functional.is_zero:
                return False
            table, mod = cert.functional.entry_dict(), ring.p
        elif isinstance(cert, CharacterCert) and not ring.is_field:
            # values mod 1 as integers mod their common denominator
            mod = cert.denominator
            table = {k: int(v * mod) for k, v in cert.values}
        else:
            return False

        def pairing(entries) -> Scalar:
            total = sum(table[k] * c for k, c in entries if k in table)
            return total % mod if mod else total

        rows = (row for skeleton in orbits
                for _, row in placed_rows(skeleton, ring, params, pairing))
        return not any(pairing(r.entries) for r in rows) and pairing(target_aug.entries) != 0
    except ValueError:
        return False


@dataclass(frozen=True)
class GeneratesAll:
    result: bool
    decisions: tuple[tuple[ModVector, Decision], ...]


def generates_all(
    generators: Sequence[ModVector],
    *,
    ring: RingSpec | None = None,
    arity: int | None = None,
) -> GeneratesAll:
    """Do the generators span the whole module?  True exactly when every
    canonical orbit representative is a member."""
    generators = list(generators)
    if generators:
        check_family(generators)
        ring = generators[0].ring
        arity = generators[0].arity
    elif ring is None or arity is None:
        raise ValueError("empty generator list needs explicit ring and arity")
    decisions = []
    verdict = True
    for rep_tuple in canonical_orbit_reps(arity):
        w = ModVector.from_terms(ring, arity, [(rep_tuple, ring.one())])
        d = membership(w, generators)
        decisions.append((w, d))
        verdict = verdict and d.member
    return GeneratesAll(verdict, tuple(decisions))


def _colex(n: int, k: int):
    """Nonempty subsets of range(n) with at most k elements, lazily, in
    the order of their reversed tuples."""
    for j in range(n):
        yield (j,)
        if k > 1:
            for rest in _colex(j, k - 1):
                yield rest + (j,)


def min_support(generators: Sequence[ModVector], k: int) -> ModVector | None:
    """A nonzero module element with at most k basis tuples, or None.

    Every orbit of k-element tuple sets has a representative with all
    coordinates in the integer grid 1..k*n, so it is enough to look for
    span vectors supported on at most k parameter-only patterns over that
    grid; such patterns lift exactly (their tuples are fixed pointwise).

    The residue-pruned rows are eliminated once, with the singleton
    (parameter-only) pattern columns sorted last, so the basis rows that
    pivot in that block span W, the span's intersection with it: its RREF
    over a field, its Hermite form over Z.  A subset C of columns holds a
    nonzero vector of W exactly when the columns of W's parity check H
    indexed by C are dependent, over F = the ring, or Q over Z (a vector
    of Q*W has a multiple in W).  Column c of H is e_c for a free column
    of W's RREF, and minus the RREF row of pivot c, pivot left out, for a
    pivot column.  Subsets run in the order of their reversed tuples,
    which lists every proper subset before the set; a column on which W
    vanishes is skipped, as a subset holding it hits only if the earlier
    subset without it does.  So at the first hit no proper subset is
    dependent: the dependency is unique up to scale, has full support,
    and only the last insert fails.  It is scaled by
    `normalize_functional`, and over Z by the least factor that puts it
    in the lattice W, the lcm of the denominators of its coordinates on
    W's basis: W's Hermite row on C.
    """
    if k < 1:
        raise ValueError("support bound must be at least 1")
    generators = list(generators)
    if not generators:
        return None
    check_family(generators)
    ring = generators[0].ring
    n = generators[0].arity
    grid = [Fraction(i) for i in range(1, k * n + 1)]
    params = ParamSet.of(grid)
    singleton = [(pattern_of_tuple(t, params), t) for t in product(grid, repeat=n)]
    block = {text for text, _ in singleton}

    def keyed(pairs):
        return (((c in block, c), v) for c, v in pairs)

    engine = make_span(ring, provenance=False)
    for skeleton in _dedup_orbits(generators):
        for _, row in placed_rows(skeleton, ring, params, lambda p: engine.residue(keyed(p))):
            engine.insert(keyed(row.entries))
    field = ring if ring.is_field else QQ
    w = make_span(field)
    for (in_block, _), row in engine.basis_pairs():
        if in_block:
            w.insert((c, v) for (_, c), v in row.items())
    rref = dict(w.basis_pairs())
    support = set().union(*rref.values())
    live = [(text, tup) for text, tup in singleton if text in support]
    h = [{f: -v for f, v in rref[text].items() if f != text} if text in rref else {text: 1}
         for text, _ in live]
    for picks in _colex(len(live), k):
        subset = [live[i] for i in picks]
        span = make_span(field)
        if all(span.insert(h[i].items()) for i in picks):
            continue
        comb = span.reduce_comb(h[picks[-1]].items())
        x = {subset[j][0]: v for j, v in comb.items()} | {subset[-1][0]: -1}
        hit = normalize_functional(x, field)
        if not ring.is_field:
            m = lcm(*(v.denominator for v in w.reduce_comb(hit.items()).values()))
            hit = {c: int(v * m) for c, v in hit.items()}
        return ModVector.from_terms(ring, n, [(tup, hit[text]) for text, tup in subset])
    return None


def pure_set_expand(generators: Sequence[ModVector]) -> list[ModVector]:
    """Each generator relabelled by every permutation of its support.

    The module these generate under the order automorphisms is the one
    the originals generate under all permutations of the rationals (the
    pure-set reduct), so `membership` and `verify_certificate` against
    the expansion answer the pure-set question.
    """
    expanded = []
    for g in generators:
        pts = support_points(g).points
        expanded.extend(relabel(g, dict(zip(pts, img))) for img in permutations(pts))
    return expanded


@dataclass(frozen=True)
class CyclicResult:
    generator: ModVector
    into: tuple[Decision, ...]
    back: Decision


def cyclic_generator(generators: Sequence[ModVector]) -> CyclicResult:
    """A single vector generating the same module as the given family.

    Each generator is moved into its own convex block (2i, 2i+1) and the
    translates are summed.  The construction is never trusted: membership
    is re-checked in both directions and a failure raises, it is not
    silently accepted.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    check_family(generators)
    ring = generators[0].ring
    if not ring.is_field:
        raise RingError("cyclic generator synthesis needs a field")
    for g in generators:
        if not omega(g, ParamSet.empty()).is_zero:
            raise ValueError(f"generator {g} has a nonzero coefficient sum on some orbit")

    x = ModVector.zero(ring, generators[0].arity)
    for i, g in enumerate(generators, start=1):
        chain = support_points(g).points
        images = gap_values(Fraction(2 * i), Fraction(2 * i + 1), len(chain))
        x = x.add(act(g, dict(zip(chain, images))))

    into = []
    for g in generators:
        d = membership(g, [x])
        if not d.member:
            raise VerificationError("a generator is not in the cyclic module", d)
        into.append(d)
    back = membership(x, generators)
    if not back.member:
        raise VerificationError("the combined vector left the original module", back)
    return CyclicResult(x, tuple(into), back)


# ---------------------------------------------------------------------------
# canonical JSON forms
# ---------------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, SpanWitnessCert):
        out: dict = {
            "type": "span-witness",
            "coefficients": [
                {"coeff": rep.ring.format(coeff), "rep": rep.to_json()}
                for coeff, rep in cert.terms
            ],
        }
        out["explicitWitness"] = cert.explicit.to_json() if cert.explicit else None
        return out
    if isinstance(cert, FunctionalCert):
        return {"type": "dual-functional", "functional": cert.functional.to_json()}
    return {
        "type": "character",
        "character": {k: str(v) for k, v in cert.values},
    }


def decision_to_json(decision: Decision) -> dict:
    return {
        "member": decision.member,
        "paramSet": decision.param_set.to_json(),
        "repCount": decision.rep_count,
        "certificate": certificate_to_json(decision.certificate),
    }


def certificate_from_json(obj: dict, ring: RingSpec) -> Certificate:
    kind = obj.get("type")
    if kind == "span-witness":
        terms = tuple(
            (ring.parse(entry["coeff"]), ModVector.from_json(entry["rep"]))
            for entry in obj["coefficients"]
        )
        explicit = None
        raw = obj.get("explicitWitness")
        if raw is not None:
            explicit = ExplicitWitness(
                tuple(
                    (ring.parse(e["coeff"]), ModVector.from_json(e["vector"]))
                    for e in raw["summands"]
                )
            )
        return SpanWitnessCert(terms, explicit)
    if kind == "dual-functional":
        entries = {k: ring.parse(v) for k, v in obj["functional"].items()}
        return FunctionalCert(AugVector.from_dict(ring, entries))
    if kind == "character":
        values = tuple(
            sorted((k, parse_point(v)) for k, v in obj["character"].items())
        )
        return CharacterCert(values)
    raise ValueError(f"unknown certificate type {kind!r}")


def decision_from_json(obj: dict, ring: RingSpec) -> Decision:
    try:
        if (type(obj["paramSet"]), type(obj["member"]), type(obj["repCount"])) != (list, bool, int):
            raise TypeError("paramSet must be an array, member a boolean, repCount an integer")
        return Decision(obj["member"], certificate_from_json(obj["certificate"], ring),
                        ParamSet.of(parse_point(p) for p in obj["paramSet"]), obj["repCount"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed decision object: {exc}") from None
