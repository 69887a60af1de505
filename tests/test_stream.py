"""The integer placement stream against the realise-every-representative
reference path: rows, placement order, representatives and counts; and
the residue-pruned search against the full stream."""

import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permod.decide import (
    CharacterCert,
    Decision,
    FunctionalCert,
    SpanWitnessCert,
    membership,
    verify_certificate,
)
from permod.linalg import make_span
from permod.pmod import (
    AugVector,
    ModVector,
    chain_skeleton,
    omega,
    placed_rows,
    support_points,
    translate_onto,
)
from permod.ring import GF, QQ, ZZ
from permod.structure import ParamSet, placement_count, realize
from reference import enumerate_placements, orbit_reps_over, slot_maps

RINGS = [QQ, GF(2), GF(3), GF(5), ZZ]
# generator points partly on, partly between and outside the parameters
POINTS = [Fraction(v) for v in (-1, 0, Fraction(1, 2), 1, 3)]
PARAMS = [Fraction(v) for v in (0, 1, 2, Fraction(5, 2))]


def terms_of(arity):
    return st.lists(
        st.tuples(
            st.tuples(*[st.sampled_from(POINTS)] * arity),
            st.sampled_from([-2, -1, 1, 2]),
        ),
        min_size=1,
        max_size=4,
    )


@st.composite
def generator_and_params(draw):
    ring = draw(st.sampled_from(RINGS))
    arity = draw(st.integers(1, 3))
    terms = draw(terms_of(arity))
    params = ParamSet.of(draw(st.sets(st.sampled_from(PARAMS), max_size=4)))
    return ModVector.from_terms(ring, arity, terms), params


@st.composite
def family_and_params(draw):
    """One or two generators over one ring and arity, and parameters."""
    g, params = draw(generator_and_params())
    more = draw(st.lists(terms_of(g.arity), max_size=1))
    return [g] + [ModVector.from_terms(g.ring, g.arity, terms) for terms in more], params


def rows_of(g, params, residue=None):
    """`placed_rows` of a generator, through its chain skeleton."""
    return placed_rows(chain_skeleton(g)[1], g.ring, params, residue)


@given(generator_and_params())
@settings(max_examples=150, deadline=None)
def test_stream_rows_match_omega_of_reps(case):
    g, params = case
    reps = orbit_reps_over(g, params)
    _, skeleton = chain_skeleton(g)
    stream = list(placed_rows(skeleton, g.ring, params))
    assert [row for _, row in stream] == [omega(r, params) for r in reps]
    assert [translate_onto(skeleton, g.ring, g.arity, realize(slot_map, params.points))
            for slot_map, _ in stream] == reps


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



# -- the residue-pruned search -------------------------------------------------


def _engine_state(engine):
    return engine.basis_pairs(), [dict(pr) for pr in engine.prov], getattr(engine, "pdens", None)


def _feed(gens, params, pruned):
    """Insert every row the search yields into a fresh engine, as
    `membership` does.  Returns the (generator, slot map) of each row that
    changed the engine, every yielded placement, and the final basis with
    provenance keyed by placement instead of insertion index."""
    engine = make_span(gens[0].ring)
    names, changed = [], []
    for i, g in enumerate(gens):
        for slot_map, row in rows_of(g, params, engine.residue if pruned else None):
            before = _engine_state(engine)
            names.append((i, slot_map))
            engine.insert(row.entries)
            if _engine_state(engine) != before:
                changed.append((i, slot_map))
    basis, prov, pdens = _engine_state(engine)
    return changed, names, (basis, [{names[j]: c for j, c in pr.items()} for pr in prov], pdens)


@given(family_and_params())
@settings(max_examples=150, deadline=None)
def test_pruned_search_changes_the_engine_where_the_stream_does(case):
    gens, params = case
    changed, names, final = _feed(gens, params, pruned=True)
    all_changed, all_names, all_final = _feed(gens, params, pruned=False)
    assert changed == all_changed
    assert final == all_final
    assert all_names == [(i, slot_map) for i, g in enumerate(gens)
                         for slot_map in slot_maps(len(support_points(g).points), params.size)]
    # what the pruned search reaches is a subsequence of the lex order
    rest = iter(all_names)
    assert all(name in rest for name in names)


def _pair(table, row, mod):
    total = sum(table.get(k, 0) * c for k, c in row.items())
    return total % mod if mod else total


def _late_separators(rows, field):
    """Functionals over ``field`` whose first nonzero row, among ``rows``
    (dicts in lex order), comes late: one vanishes on every row before
    the last row outside the span of the rows before it, and not on that
    row; and when one of the last four distinct rows lies outside the span
    of all the others, one vanishes on every row but that one and its
    repeats.  Each comes with the position of its first nonzero row."""
    engine = make_span(field)
    raising = [pos for pos, row in enumerate(rows) if engine.insert(row.items())]
    if not raising:
        return []
    last = raising[-1]
    before = make_span(field)
    for pos in raising[:-1]:
        before.insert(rows[pos].items())
    found = [(before.functional(rows[last].items()), last)]
    distinct = list({tuple(sorted(row.items())): pos for pos, row in enumerate(rows)}.items())
    for key, pos in sorted(distinct, key=lambda kv: -kv[1])[:4]:
        others = make_span(field)
        for row in rows:
            if tuple(sorted(row.items())) != key:
                others.insert(row.items())
        if others.reduce_comb(rows[pos].items()) is None:
            first = next(p for p, row in enumerate(rows) if tuple(sorted(row.items())) == key)
            found.append((others.functional(rows[pos].items()), first))
            break
    return found


def _no_decision(ring, table, params, rep_count):
    """A NO decision carrying ``table``: a functional over a field, over Z
    a character with the values mod 1."""
    if ring.is_field:
        cert = FunctionalCert(AugVector.from_dict(ring, table))
    else:
        cert = CharacterCert(tuple(sorted((k, v % 1) for k, v in table.items() if v % 1)))
    return Decision(False, cert, params, rep_count)


def _verifier_view(ring, table):
    # a character pairs as integers mod the common denominator of its values
    if ring.is_field:
        return table, ring.p
    values = {k: v % 1 for k, v in table.items() if v % 1}
    mod = lcm(*(v.denominator for v in values.values()))
    return {k: int(v * mod) for k, v in values.items()}, mod


@given(family_and_params(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_pairing_search_matches_full_enumeration(case, rnd):
    gens, params = case
    ring = gens[0].ring
    params = params if params.size else ParamSet.of([0])
    arity = gens[0].arity
    target = ModVector.from_terms(ring, arity, [(params.points[:1] * arity, 1)])
    target_row = omega(target, params).entry_dict()
    rows = [omega(r, params).entry_dict() for g in gens for r in orbit_reps_over(g, params)]
    keys = sorted({k for row in rows for k in row}.union(target_row))
    decided = membership(target, gens, param_set=params)

    field = ring if ring.is_field else QQ
    if ring.is_field:
        tables = [{k: ring.normalize(rnd.randint(-3, 3)) for k in keys}]
    else:
        tables = [{k: Fraction(rnd.randint(-3, 3), rnd.choice([1, 2, 3, 6])) for k in keys}]
    cert = None
    if not decided.member:
        cert = dict(decided.certificate.functional.entries if ring.is_field
                    else decided.certificate.values)
        tables.append(cert)
    for delta, pos in _late_separators(rows, field):
        if not ring.is_field:  # 1/2 mod 1 on the late row
            delta = {k: v / (2 * _pair(delta, rows[pos], None)) for k, v in delta.items()}
        tables.append(delta)
        if cert is not None:  # a valid certificate broken late
            tables.append({k: field.add(cert.get(k, 0), delta.get(k, 0)) for k in keys})

    for table in tables:
        int_table, mod = _verifier_view(ring, table)
        want = all(_pair(int_table, row, mod) == 0 for row in rows) and \
            _pair(int_table, target_row, mod) != 0
        d = _no_decision(ring, table, params, decided.rep_count)
        assert verify_certificate(d, target, gens) is want


def chain(ring, start, coeffs):
    return ModVector.from_terms(ring, 1, [((start + i,), c) for i, c in enumerate(coeffs)])


def alternating(m, scale=1):
    return [scale * (-1) ** i for i in range(m)]


def _first_nonzero(table, mod, gen, params):
    """Positions, in the full stream, of the rows ``table`` pairs nonzero."""
    return [pos for pos, (_, row) in enumerate(rows_of(gen, params))
            if _pair(table, row.entry_dict(), mod)]


def _break(ring, d, target, delta):
    """The decision's certificate plus ``delta``, scaled until the target
    still pairs nonzero, as a NO decision and as the verifier sees it."""
    table = dict(d.certificate.functional.entries if ring.is_field else d.certificate.values)
    target_row = omega(target, d.param_set).entry_dict()
    field = ring if ring.is_field else QQ
    for c in range(1, 5):
        broken = {k: field.add(table.get(k, 0), c * delta.get(k, 0)) for k in {*table, *delta}}
        int_table, mod = _verifier_view(ring, broken)
        if _pair(int_table, target_row, mod):
            return _no_decision(ring, broken, d.param_set, d.rep_count), int_table, mod
    raise AssertionError("no scale keeps the target pairing nonzero")


@pytest.mark.parametrize(
    "ring, target, gen",
    [
        (ZZ, chain(ZZ, 0, alternating(7)), chain(ZZ, 0, alternating(7, 2))),
        (GF(5), chain(GF(5), 0, [1] * 6), chain(GF(5), 0, alternating(6))),
    ],
    ids=["Z-m7-character", "GF5-m6-functional"],
)
def test_verify_rejects_a_chain_certificate_broken_at_its_last_span_step(ring, target, gen):
    # The first 15 (Z, m = 7) and 13 (GF(5), m = 6) placements already
    # span the whole row space, so any perturbation pairs nonzero with one
    # of them; the latest first failure is at the last rank-raising row.
    d = membership(target, [gen])
    assert not d.member and verify_certificate(d, target, [gen])
    field = ring if ring.is_field else QQ
    engine = make_span(field)
    raising = [(pos, row.entry_dict()) for pos, (_, row)
               in enumerate(rows_of(gen, d.param_set, engine.residue))
               if engine.insert(row.entries)]
    before = make_span(field)
    for _, row in raising[:-1]:
        before.insert(row.items())
    last, late_row = raising[-1]
    delta = before.functional(late_row.items())
    if not ring.is_field:  # 1/2 mod 1 on the late row
        delta = {k: v / (2 * _pair(delta, late_row, None)) for k, v in delta.items()}
    doctored, int_table, mod = _break(ring, d, target, delta)
    assert _first_nonzero(int_table, mod, gen, d.param_set)[0] == last
    assert not verify_certificate(doctored, target, [gen])


@pytest.mark.parametrize("ring", [ZZ, GF(5)], ids=lambda r: r.name)
def test_verify_rejects_a_certificate_broken_only_at_the_last_placement(ring):
    # the diagonal term on the first chain point is the only one whose
    # pattern puts both coordinates in the top gap, and only the lex-last
    # placement moves the first point there
    gen = ModVector.from_terms(ring, 2, [((0, 0), 1)] + [((i, i + 1), (-1) ** (i + 1))
                                                        for i in range(1, 6)])
    target = ModVector.from_terms(ring, 2, [((0, 1), 1), ((2, 3), 1)])
    d = membership(target, [gen])
    assert not d.member and verify_certificate(d, target, [gen])
    top = "p0<p1<p2<p3<c0=c1"
    doctored, int_table, mod = _break(ring, d, target, {top: Fraction(1, 2) if ring == ZZ else 1})
    assert _first_nonzero(int_table, mod, gen, d.param_set) == [d.rep_count - 1]
    assert not verify_certificate(doctored, target, [gen])


@pytest.mark.parametrize(
    "target, gen",
    [
        (chain(ZZ, 0, alternating(8)), chain(ZZ, 0, alternating(8, 2))),
        (chain(QQ, 0, [1] * 8), chain(QQ, 0, alternating(8))),
        (chain(GF(5), 0, [1] * 8), chain(GF(5), 0, alternating(8))),
    ],
    ids=["Z", "Q", "GF5"],
)
def test_m8_no_chains_decide_and_verify_in_under_a_second(target, gen):
    t0 = time.perf_counter()
    d = membership(target, [gen])
    t1 = time.perf_counter()
    assert verify_certificate(d, target, [gen])
    t2 = time.perf_counter()
    assert not d.member and d.rep_count == placement_count(8, 8) == 265729
    assert t1 - t0 < 1 and t2 - t1 < 1
