"""Exact span kernels over sparse rows: membership with coefficients,
dual functionals and integer characters.

Every row, in and out, is sparse: a dict or an iterable of
(column, value) pairs, where columns are any sortable keys and pivot
order is their sort order.  `make_span` gives an incremental row-echelon
engine that tracks provenance, i.e. how every basis row was combined
from the inserted rows: one `FieldSpan` for Q and every GF(p), which
differ only in their scalar kernels, and `IntegerSpan` for Z.  (With
``provenance=False`` it answers membership alone, over Z on a Hermite
basis.)  Membership answers therefore come with exact coefficients, and
non-membership leaves behind the data needed to build an independently
checkable witness:

* fields: a functional vanishing on the span but not on the target,
  read off the reduced row echelon basis;
* Z: a character into the rationals mod 1, built from the Smith normal
  form of the lattice basis (which keeps Q as its list of column
  operations) and returned as a sparse row of values mod 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Sequence

from permod.ring import (
    PRIME_FIELD,
    RATIONALS,
    ZZ,
    RingError,
    RingSpec,
    Scalar,
    primitive_int_vector,
)

Pairs = Iterable[tuple[int, Scalar]]


# -- sparse-row kernels --------------------------------------------------------
# Rows are dicts mapping column index to a nonzero value.  Field rows carry
# their entries as integer numerators over a single positive denominator,
# which over GF(p) is always 1 (the entries are residues), so every kernel
# here is integer-only.  The Q and GF(p) kernels share one argument list,
# (dst, dden, src, sden, cn, cd), and return the new denominator.


def axpy_mod(p: int, dst: dict, dden: int, src: dict, sden: int, cn: int, cd: int) -> int:
    # dst += (cn/cd) * src (mod p), dropping zero entries; cd is a unit,
    # and dden, sden are the ring's only denominator, 1
    c = cn % p if cd == 1 else cn * pow(cd, -1, p) % p
    if c:
        for k, v in src.items():
            w = (dst.get(k, 0) + c * v) % p
            if w:
                dst[k] = w
            elif k in dst:
                del dst[k]
    return 1


def scale_mod(p: int, row: dict, den: int, cn: int, cd: int) -> int:
    # row *= cn/cd (mod p); cn and cd must be units
    c = cn * pow(cd, -1, p) % p
    for k in row:
        row[k] = row[k] * c % p
    return 1


def axpy_int(dst: dict, src: dict, c: int) -> None:
    # dst += c * src over Z.
    if c == 0:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        elif k in dst:
            del dst[k]


def rowpair_int(ra: dict, rb: dict, x: int, y: int, u: int, v: int) -> None:
    # (ra, rb) <- (x*ra + y*rb, u*ra + v*rb); used for gcd pivot steps.
    keys = set(ra)
    keys.update(rb)
    for k in keys:
        a = ra.get(k, 0)
        b = rb.get(k, 0)
        na = x * a + y * b
        nb = u * a + v * b
        if na:
            ra[k] = na
        elif k in ra:
            del ra[k]
        if nb:
            rb[k] = nb
        elif k in rb:
            del rb[k]


def lowest_terms(nums: dict, den: int) -> int:
    # divide den > 0 and all numerators by their gcd; returns the new den
    g = den
    for v in nums.values():
        g = gcd(g, v)
        if g == 1:
            return den
    for k in nums:
        nums[k] //= g
    return den // g


def axpy_q(dst: dict, dden: int, src: dict, sden: int, cn: int, cd: int) -> int:
    """dst/dden += (cn/cd) * src/sden; returns the new denominator.

    All denominators must be positive.  The result row is renormalised so
    gcd(den, numerators) = 1.
    """
    if cn == 0:
        return dden
    a = cd * sden
    b = cn * dden
    if a != 1:
        for k in dst:
            dst[k] *= a
    for k, v in src.items():
        w = dst.get(k, 0) + b * v
        if w:
            dst[k] = w
        elif k in dst:
            del dst[k]
    return lowest_terms(dst, dden * a)


def scale_q(nums: dict, den: int, cn: int, cd: int) -> int:
    """nums/den *= cn/cd (cn nonzero); returns the new denominator."""
    if cd < 0:
        cn, cd = -cn, -cd
    for k in nums:
        nums[k] *= cn
    return lowest_terms(nums, den * cd)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # x*a + y*b == g >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _exact_zero(v) -> bool:
    # called on falsy entries only: an exact zero is dropped, and a falsy
    # non-number ("", None, [], 0.0) is no scalar of any ring
    if type(v) in (int, bool, Fraction):
        return False
    raise RingError(f"{v!r} is not a scalar")


def _int_row(pairs: Pairs, p: int = 0) -> dict:
    # nonzero int entries, mod p when p is set; one C-level sum finds any
    # other entry (a Fraction), and those are read by the ring's own rules
    try:
        row = {c: r for c, v in pairs if (r := v % p if p else v) or _exact_zero(r)}
        if type(sum(row.values())) is int:
            return row
    except TypeError:  # a string
        raise RingError("entries must be int or Fraction") from None
    ring = RingSpec(PRIME_FIELD, p) if p else ZZ
    return {c: r for c, v in row.items() if (r := ring.normalize(v))}


def _q_row(pairs: Pairs) -> tuple[dict, int]:
    # integer numerators over one positive denominator, gcd-reduced
    row = {c: v for c, v in pairs if v or _exact_zero(v)}
    try:
        den = lcm(*(v.denominator for v in row.values()))
        return {c: v.numerator * (den // v.denominator) for c, v in row.items()}, den
    except AttributeError:  # a float or a string
        raise RingError("entries over Q must be int or Fraction") from None


class FieldSpan:
    """Row echelon span over Q (``p`` = 0) or GF(p), grown one vector at
    a time.

    Basis and provenance rows are integer numerators over one positive
    denominator each; over GF(p) they are residues over 1.  The ring's
    row reader, kernels and value function are picked here, once.  With
    ``reduced=True`` (the default) the basis is kept fully reduced, which
    the separating-functional construction relies on; with
    ``reduced=False`` basis rows stay in first-seen echelon form.
    ``provenance=False`` keeps provenance rows empty; `reduce_comb` raises.
    """

    def __init__(self, p: int = 0, reduced: bool = True, provenance: bool = True) -> None:
        self.p = p
        self.reduced = reduced
        self.provenance = provenance
        if p:
            self._read = lambda pairs: (_int_row(pairs, p), 1)
            self._axpy = partial(axpy_mod, p)
            self._scale = partial(scale_mod, p)
            self._value = lambda n, d: n % p
        else:
            self._read, self._axpy, self._scale, self._value = _q_row, axpy_q, scale_q, Fraction
        self.rows: list[dict] = []
        self.dens: list[int] = []
        self.prov: list[dict] = []
        self.pdens: list[int] = []
        self.pivot_of: list[int] = []
        self.pivots: dict[int, int] = {}
        self.n_inserted = 0

    def _reduce(self, row: dict, den: int, track: bool = True) -> tuple[dict, int, dict, int]:
        axpy, pivots = self._axpy, self.pivots
        comb: dict = {}
        cden = 1
        while True:
            hit = [c for c in row if c in pivots]
            if not hit:
                return row, den, comb, cden
            c = min(hit)
            i = pivots[c]
            fn, fd = row[c], den
            den = axpy(row, den, self.rows[i], self.dens[i], -fn, fd)
            if track:
                cden = axpy(comb, cden, self.prov[i], self.pdens[i], fn, fd)

    def insert(self, pairs: Pairs) -> bool:
        axpy, scale = self._axpy, self._scale
        row, den, comb, cden = self._reduce(*self._read(pairs), track=self.provenance)
        idx = self.n_inserted
        self.n_inserted += 1
        if not row:
            return False
        pivot = min(row)
        pn, pd = row[pivot], den
        den = scale(row, den, pd, pn)
        pnums = {idx: 1} if self.provenance else {}
        pden = axpy(pnums, 1, comb, cden, -1, 1)
        pden = scale(pnums, pden, pd, pn)
        if self.reduced:
            # clear the new pivot column from every older basis row
            dens, pdens = self.dens, self.pdens
            for i, r in enumerate(self.rows):
                if pivot in r:
                    fn, fd = r[pivot], dens[i]
                    dens[i] = axpy(r, fd, row, den, -fn, fd)
                    pdens[i] = axpy(self.prov[i], pdens[i], pnums, pden, -fn, fd)
        self.pivots[pivot] = len(self.rows)
        self.rows.append(row)
        self.dens.append(den)
        self.prov.append(pnums)
        self.pdens.append(pden)
        self.pivot_of.append(pivot)
        return True

    def reduce_comb(self, pairs: Pairs):
        """Coefficients over the inserted vectors, or None if outside the span."""
        if not self.provenance:
            raise RuntimeError("reduce_comb needs an engine with provenance")
        row, _, comb, cden = self._reduce(*self._read(pairs))
        return None if row else {k: self._value(v, cden) for k, v in comb.items()}

    def residue(self, pairs: Pairs) -> tuple[tuple[int, Scalar], ...]:
        """The residual against the basis as sorted (column, value) pairs:
        its class modulo the span, canonical on any echelon basis."""
        row, den, _, _ = self._reduce(*self._read(pairs), track=False)
        value = self._value
        return tuple(sorted((c, value(v, den)) for c, v in row.items()))

    def functional(self, pairs: Pairs) -> dict[int, Scalar]:
        """A functional annihilating the span but not the given vector."""
        if not self.reduced:
            raise RuntimeError("functional needs the fully reduced basis")
        rho = self.residue(pairs)
        if not rho:
            raise RingError("vector lies in the span; no separating functional")
        j = rho[0][0]
        phi = {j: self._value(1, 1)}
        for i, row in enumerate(self.rows):
            if j in row:
                phi[self.pivot_of[i]] = self._value(-row[j], self.dens[i])
        return phi

    def basis_pairs(self) -> list[tuple[int, dict[int, Scalar]]]:
        value = self._value
        return [
            (self.pivot_of[i], {c: value(v, self.dens[i]) for c, v in row.items()})
            for i, row in enumerate(self.rows)
        ]


class IntegerSpan:
    """Row echelon lattice basis over Z with provenance (pivots positive,
    leading columns distinct).  With ``provenance=False`` provenance rows
    stay empty, `reduce_comb` raises, and each insert that changes the
    basis ends in `hnf_normalize`, which keeps entries below the pivots."""

    def __init__(self, provenance: bool = True) -> None:
        self.provenance = provenance
        self.rows: list[dict] = []
        self.prov: list[dict] = []
        self.pivot_of: list[int] = []
        self.pivots: dict[int, int] = {}
        self.n_inserted = 0

    def insert(self, pairs: Pairs) -> bool:
        row = _int_row(pairs)
        idx = self.n_inserted
        self.n_inserted += 1
        pr = {idx: 1} if self.provenance else {}
        # membership only: a member changes nothing, a non-member enters as its residue
        if not (self.provenance or (row := dict(self.residue(row.items())))):
            return False
        while row:
            lead = min(row)
            if lead not in self.pivots:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                    pr = {c: -v for c, v in pr.items()}
                self.pivots[lead] = len(self.rows)
                self.rows.append(row)
                self.prov.append(pr)
                self.pivot_of.append(lead)
                break
            i = self.pivots[lead]
            a = self.rows[i][lead]
            b = row[lead]
            if b % a == 0:
                q = b // a
                axpy_int(row, self.rows[i], -q)
                axpy_int(pr, self.prov[i], -q)
            else:
                x, y, g = xgcd(a, b)
                rowpair_int(self.rows[i], row, x, y, -(b // g), a // g)
                rowpair_int(self.prov[i], pr, x, y, -(b // g), a // g)
        if not self.provenance:
            self.hnf_normalize()
        return bool(row)  # a new basis row

    def reduce_comb(self, pairs: Pairs):
        if not self.provenance:
            raise RuntimeError("reduce_comb needs an engine with provenance")
        row = _int_row(pairs)
        comb: dict = {}
        while row:
            lead = min(row)
            if lead not in self.pivots:
                return None
            i = self.pivots[lead]
            a = self.rows[i][lead]
            b = row[lead]
            if b % a:
                return None
            q = b // a
            axpy_int(row, self.rows[i], -q)
            axpy_int(comb, self.prov[i], q)
        return comb

    def residue(self, pairs: Pairs) -> tuple[tuple[int, int], ...]:
        """The class modulo the lattice as sorted (column, value) pairs, each
        pivot column reduced into [0, pivot) in ascending order: canonical
        for any echelon basis with positive pivots, Hermite form or not."""
        return tuple(sorted(self._into_range(_int_row(pairs)).items()))

    def _into_range(self, row: dict, own: int | None = None) -> dict:
        # reduce the entries at pivot columns other than ``own`` into
        # [0, pivot) in place, lowest column first
        rows, pivots = self.rows, self.pivots
        while hit := [c for c in row if c != own and c in pivots
                      and not 0 <= row[c] < rows[pivots[c]][c]]:
            c = min(hit)
            pivot_row = rows[pivots[c]]
            axpy_int(row, pivot_row, -(row[c] // pivot_row[c]))
        return row

    def hnf_normalize(self) -> None:
        """The unique Hermite form: each row's entries past its pivot brought
        into range, in place; a row already in range costs one pass.
        Provenance does not follow, so only membership-only engines call this."""
        for row, own in zip(self.rows, self.pivot_of):
            self._into_range(row, own)

    def basis_pairs(self) -> list[tuple[int, dict[int, int]]]:
        return [(self.pivot_of[i], dict(row)) for i, row in enumerate(self.rows)]


def make_span(ring: RingSpec, reduced: bool = True, provenance: bool = True):
    return FieldSpan(ring.p or 0, reduced, provenance) if ring.is_field else IntegerSpan(provenance)


def smith_with_colops(rows: Sequence[dict], cols: Sequence):
    """Diagonalise sparse integer rows on the sorted ``cols`` by unimodular
    row and column operations.  Returns (divisors, ops, perm): positive
    divisors d1 | d2 | ... and the column transform Q = E1 ... Ek P, where
    (k, c, q) in ``ops`` takes q times column c from column k and P puts
    column perm[j] at position j; the input's row span is the row span of
    diag(divisors) * Q^-1.  The pivot is the smallest nonzero entry, first
    in row-major order."""
    A = [dict(row) for row in rows]
    perm = list(cols)
    pos = {c: j for j, c in enumerate(perm)}
    ops = []
    r = 0
    while best := min(((abs(v), i, pos[c]) for i in range(r, len(A)) for c, v in A[i].items()),
                      default=None):
        _, bi, bj = best
        A[r], A[bi] = A[bi], A[r]
        perm[r], perm[bj] = perm[bj], perm[r]
        pos[perm[r]], pos[perm[bj]] = r, bj
        c = perm[r]
        if A[r][c] < 0:
            A[r] = {k: -v for k, v in A[r].items()}
        d = A[r][c]
        for row in A[r + 1:]:
            if c in row:
                axpy_int(row, A[r], -(row[c] // d))
        qs = {k: v // d for k, v in A[r].items() if k != c}
        ops.extend((k, c, q) for k, q in qs.items())
        for row in A[r:]:
            if c in row:
                axpy_int(row, qs, -row[c])
        if len(A[r]) > 1 or any(c in row for row in A[r + 1:]):
            continue
        # divisibility sweep: a row with an entry d does not divide joins row r
        bad = next((row for row in A[r + 1:] if any(v % d for v in row.values())), None)
        if bad is None:
            r += 1
        else:
            axpy_int(A[r], bad, 1)
    return [A[i][perm[i]] for i in range(r)], ops, perm


def normalize_functional(row: dict, ring: RingSpec) -> dict:
    """Scale a sparse field row: over Q to coprime integers, over GF(p) to
    a unit, with the entry at the lowest column positive resp. 1."""
    cols = sorted(row)
    if ring.kind == RATIONALS:
        return {c: Fraction(v) for c, v in zip(cols, primitive_int_vector([row[c] for c in cols]))}
    inv = pow(row[cols[0]], -1, ring.p)
    return {c: row[c] * inv % ring.p for c in cols}


def character_from_span(engine: IntegerSpan, target: dict) -> dict:
    """Separating character for a sparse target outside an already-built
    lattice, as its nonzero values mod 1 by column.  The columns are the
    basis rows' and the target's, sorted like the pivots.

    The obstruction column of the Smith form is the smallest elementary
    divisor exceeding 1 that fails on the target, with ties broken by the
    lowest coordinate; a free direction yields the value 1/2 instead.
    target * Q replays the column operations, column j of Q them reversed."""
    basis = [engine.rows[i] for _, i in sorted(engine.pivots.items())]
    cols = sorted({c for row in basis for c in row}.union(target))
    divisors, ops, perm = smith_with_colops(basis, cols)
    s = dict.fromkeys(cols, 0) | target
    for k, c, q in ops:
        s[k] -= q * s[c]
    witnessed = min(((d, j) for j, d in enumerate(divisors) if s[perm[j]] % d), default=None)
    if witnessed:
        d, j = witnessed
    else:
        j = next((j for j in range(len(divisors), len(cols)) if s[perm[j]]), None)
        if j is None:
            raise RingError("target lies in the span; no separating character")
        d = 2 * s[perm[j]]
    x = dict.fromkeys(cols, 0) | {perm[j]: 1}
    for k, c, q in reversed(ops):
        x[c] -= q * x[k]
    return {c: v for c in cols if (v := Fraction(x[c], d) % 1)}
