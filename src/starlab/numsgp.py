"""Numerical semigroups, their ideals, and semigroup-level star operations.

A numerical semigroup S is a submonoid of N with finite complement. Ideals
are stored in a shifted normal form: every ideal E (a set with E + S within E,
bounded below) is shift + E0 where E0 has minimum 0, and a minimum-0 ideal
automatically contains every integer above the Frobenius number g. That makes
equality structural. Sets of integers are int bitmasks, bit x for x; with the
bits above g set too, a mask is a negative int whose shifts keep that tail.
"""

from __future__ import annotations

import math

from .errors import InputError, InvariantError, check_budget


def _bits(mask):
    """The set bits of a nonnegative mask, in increasing order."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _full(g):
    """The mask of [0, g]."""
    return (1 << g + 1) - 1


class NumericalSemigroup:
    """Numerical semigroup with member mask, gaps and basic invariants."""

    __slots__ = ("generators", "frobenius", "gaps", "multiplicity", "_members")

    def __init__(self, generators, frobenius, gaps, multiplicity, members):
        self.generators = generators
        self.frobenius = frobenius
        self.gaps = gaps
        self.multiplicity = multiplicity
        self._members = members  # mask of S within [0, frobenius]

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        gens = sorted(set(int(g) for g in gens))
        if not gens or gens[0] < 1:
            raise InputError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise InputError(f"generators {gens} have gcd {math.gcd(*gens)} != 1")
        if gens[0] == 1:
            # S = N, Frobenius number -1
            return cls((1,), -1, (), 1, 0)
        # S holds every integer from (a1 - 1)(an - 1) on (Schur); doubling
        # shifts add every multiple of each generator in turn
        bound = (gens[0] - 1) * (gens[-1] - 1) + 1
        window = _full(bound)
        members = 1
        for a in gens:
            step = a
            while step <= bound:
                members |= members << step & window
                step <<= 1
        return cls._from_mask(members, (window ^ members).bit_length() - 1)

    @classmethod
    def _from_mask(cls, members, frobenius):
        """S from its members in [0, frobenius], g = frobenius a gap."""
        full = _full(frobenius)
        members &= full
        gaps = tuple(_bits(full ^ members))
        tail = members | ~full
        m = (tail >> 1 & -(tail >> 1)).bit_length()
        # A minimal generator x != m has x - m outside S: it lies in the
        # Apery set of m. When such an x is a + b, a and b nonzero members,
        # both lie in that set too, as a - m in S would put x - m in S.
        apery = tail & ~(tail << m) & ~1
        sums = 0
        for a in _bits(apery):
            sums |= apery << a
        return cls((m, *_bits(apery & ~sums)), frobenius, gaps, m, members)

    @classmethod
    def from_gaps(cls, gapset) -> "NumericalSemigroup":
        gapset = set(gapset)
        if not gapset:
            return cls.from_generators([1])
        frobenius = max(gapset)
        if 0 in gapset or min(gapset) < 1:
            raise InputError("gaps must be positive integers")
        holes = sum(1 << a for a in gapset)
        members = _full(frobenius) ^ holes
        for a in _bits(members)[1:]:
            if members << a & holes:
                raise InputError(f"gap set {sorted(gapset)} is not co-semigroup")
        return cls._from_mask(members, frobenius)

    def contains(self, x: int) -> bool:
        return x >= 0 and (x > self.frobenius or self._members >> x & 1 == 1)

    @property
    def genus(self):
        return len(self.gaps)

    @property
    def tau(self):
        """Half the Frobenius number (defined when it is even)."""
        if self.frobenius < 0 or self.frobenius % 2:
            raise InputError(f"Frobenius number {self.frobenius} is odd; tau undefined")
        return self.frobenius // 2

    def small_members(self):
        """Members in [0, frobenius]."""
        return tuple(_bits(self._members))

    def adjoin_frobenius(self) -> "NumericalSemigroup":
        """The semigroup S with its Frobenius number adjoined."""
        if self.frobenius < 1:
            raise InputError("semigroup has no positive Frobenius number to adjoin")
        return NumericalSemigroup.from_gaps(set(self.gaps) - {self.frobenius})

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"


def semigroup(gens) -> NumericalSemigroup:
    return NumericalSemigroup.from_generators(gens)


def _reflected(S: NumericalSemigroup) -> int:
    """The mask of the x in [0, g] with g - x in S."""
    return int(format(S._members, f"0{S.frobenius + 1}b")[::-1], 2)


def is_pseudo_symmetric(S: NumericalSemigroup) -> bool:
    """g even and every gap a != g/2 has g - a in S."""
    g = S.frobenius
    return g >= 0 and g % 2 == 0 and S._members | _reflected(S) | 1 << g // 2 == _full(g)


def is_symmetric(S: NumericalSemigroup) -> bool:
    g = S.frobenius
    return g < 0 or S._members | _reflected(S) == _full(g)


class SemigroupIdeal:
    """Relative ideal of S in shifted normal form.

    Represents shift + (small | (g, infinity)) where small is the mask of a
    subset of [0, g] that holds 0 and is stable under adding S.
    """

    __slots__ = ("sgp", "shift", "small")

    def __init__(self, sgp: NumericalSemigroup, shift: int, small: int):
        self.sgp = sgp
        self.shift = shift
        self.small = small

    @classmethod
    def from_members(cls, sgp, members):
        """Build from an explicit member iterable; everything above
        min(members) + g is implied. Members must already be an ideal: the
        constructor validates stability under adding S."""
        members = sorted(set(members))
        if not members:
            raise InputError("an ideal must be nonempty")
        shift = members[0]
        small = sum(1 << x - shift for x in members if x - shift <= sgp.frobenius)
        ideal = cls(sgp, shift, small)
        ideal._validate()
        return ideal

    def _validate(self):
        holes = _full(self.sgp.frobenius) ^ self.small
        for s in self.sgp.generators:
            missing = self.small << s & holes
            if missing:
                raise InvariantError(f"not an ideal: {_bits(missing)[0] - s}+{s} missing")

    @classmethod
    def of_semigroup(cls, sgp):
        if sgp.frobenius < 1:
            raise InputError("ideal arithmetic needs a semigroup with gaps")
        return cls(sgp, 0, sgp._members)

    def contains(self, x: int) -> bool:
        y = x - self.shift
        return y >= 0 and (y > self.sgp.frobenius or self.small >> y & 1 == 1)

    def members_upto(self, bound: int):
        top = self.shift + self.sgp.frobenius
        low = tuple(self.shift + y for y in _bits(self.small) if self.shift + y <= bound)
        return low + tuple(range(top + 1, bound + 1))

    def normalize(self) -> "SemigroupIdeal":
        return self if self.shift == 0 else SemigroupIdeal(self.sgp, 0, self.small)

    def translate(self, k: int) -> "SemigroupIdeal":
        return SemigroupIdeal(self.sgp, self.shift + k, self.small)

    def _tail(self):
        """small with every bit above g set."""
        return self.small | ~_full(self.sgp.frobenius)

    def _anchored(self, base, tail):
        """The ideal base + tail, for a nonzero mask with an infinite tail."""
        m = (tail & -tail).bit_length() - 1
        return SemigroupIdeal(self.sgp, base + m, tail >> m & _full(self.sgp.frobenius))

    def intersect(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        if self.sgp != other.sgp:
            raise InputError("ideals over different semigroups")
        low = min(self.shift, other.shift)
        meet = (self._tail() << self.shift - low) & (other._tail() << other.shift - low)
        return self._anchored(low, meet)

    def colon(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """(self : other) = {z : z + other within self}. Relative to
        self.shift - other.shift, z must send each f in other.small into
        self; the members of other above g then land above g too."""
        if self.sgp != other.sgp:
            raise InputError("ideals over different semigroups")
        tail = self._tail()
        meet = -1
        for f in _bits(other.small):
            meet &= tail >> f
        return self._anchored(self.shift - other.shift, meet)

    def v_closure(self) -> "SemigroupIdeal":
        S = SemigroupIdeal.of_semigroup(self.sgp)
        return S.colon(S.colon(self))

    def is_divisorial(self) -> bool:
        return self.v_closure() == self

    def __eq__(self, other):
        return (
            isinstance(other, SemigroupIdeal)
            and self.sgp == other.sgp
            and self.shift == other.shift
            and self.small == other.small
        )

    def __hash__(self):
        return hash((self.sgp, self.shift, self.small))

    def __repr__(self):
        g = self.sgp.frobenius
        return f"SemigroupIdeal({[self.shift + x for x in _bits(self.small)]}+>{self.shift + g})"


def canonical_ideal(S: NumericalSemigroup) -> SemigroupIdeal:
    """S together with every x in N whose reflection g - x misses S."""
    return SemigroupIdeal(S, 0, S._members | (_full(S.frobenius) ^ _reflected(S)))


def maximal_ideal(S: NumericalSemigroup) -> SemigroupIdeal:
    g = S.frobenius
    members = _bits(S._members)[1:] + list(range(g + 1, g + S.multiplicity + 1))
    return SemigroupIdeal.from_members(S, members)


def pseudo_frobenius_pair(S: NumericalSemigroup):
    """The pair (g/2, g - multiplicity) for a pseudo-symmetric S with at
    least 4 gaps; both land in (S' - M_{S'}) outside S' = S with g adjoined,
    and their doubled sums fall back into S'. Each of those facts is checked,
    and a violation raises InvariantError since it would contradict the
    construction this pair supports."""
    if not is_pseudo_symmetric(S):
        raise InputError("semigroup is not pseudo-symmetric")
    if S.genus < 4:
        raise InputError(
            f"need at least 4 gaps, found {S.genus} (the two small pseudo-symmetric"
            " semigroups are excluded)"
        )
    a = S.tau
    b = S.frobenius - S.multiplicity
    S_prime = S.adjoin_frobenius()
    sp_ideal = SemigroupIdeal.of_semigroup(S_prime)
    m_prime = maximal_ideal(S_prime)
    dual = sp_ideal.colon(m_prime)
    for w in (a, b):
        if not dual.contains(w) or S_prime.contains(w):
            raise InvariantError(f"witness {w} not in (S'-M') \\ S'")
    if a == b:
        raise InvariantError("witnesses coincide")
    for value in (2 * a, 2 * b, a + b):
        if not S_prime.contains(value):
            raise InvariantError(f"{value} escaped S'")
    return (a, b)


def enumerate_ideals(S: NumericalSemigroup, max_count: int | None = 4096):
    """All normalized ideals E with S within E within N, in a deterministic
    order (by their sorted member lists)."""
    total = 2 ** len(S.gaps)
    check_budget(total, max_count, "{} candidate ideals exceed budget {}")
    full = _full(S.frobenius)
    gapmask = full ^ S._members
    out = []
    extra = gapmask
    while True:  # every subset of the gaps, as a submask
        members = S._members | extra
        holes = full ^ members
        if not any(members << s & holes for s in S.generators):
            out.append(SemigroupIdeal(S, 0, members))
        if not extra:
            break
        extra = extra - 1 & gapmask
    out.sort(key=lambda e: _bits(e.small))
    return out


def _pair_results(ideals, g):
    """pair (i, j) -> mask of the ideal indices reachable as
    normalize(E_i meet (E_j + k)) for shifts k in [0, g+1]."""
    index = {e.small: i for i, e in enumerate(ideals)}
    table = {}
    for i, ei in enumerate(ideals):
        for j, ej in enumerate(ideals):
            hits = 0
            for k in range(0, g + 2):
                idx = index.get(ei.intersect(ej.translate(k)).small)
                if idx is None:
                    raise InvariantError("normalized intersection escaped the ideal list")
                hits |= 1 << idx
            table[(i, j)] = hits
    return table


def enumerate_stars(S: NumericalSemigroup, max_count: int | None = 4096):
    """All star operations on S, as translate-intersection-closed families of
    normalized ideals containing the divisorial ones.

    Returns (count, families, ideals) where each family is a sorted tuple of
    indices into the ideals list.
    """
    ideals = enumerate_ideals(S, max_count)
    g = max(S.frobenius, 0)
    table = _pair_results(ideals, g)
    base = sum(1 << i for i, e in enumerate(ideals) if e.is_divisorial())

    # the pairs of x and y in either order, as masks, so that a member
    # joining fires each of its pairs once
    rules = [
        [table[(x, y)] | table[(y, x)] for y in range(len(ideals))]
        for x in range(len(ideals))
    ]

    def close(fam, todo):
        """The closed family fam with the indices in todo joined: each index
        joins once and fires its pairs with every member so far, itself
        included, so no pair inside fam is scanned again."""
        todo &= ~fam
        members = _bits(fam)
        while todo:
            x = todo.bit_length() - 1
            fam |= 1 << x
            members.append(x)
            row = rules[x]
            for y in members:
                todo |= row[y]
            todo &= ~fam
        return fam

    base = close(0, base)
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for fam in frontier:
            for i in range(len(ideals)):
                if not fam >> i & 1:
                    bigger = close(fam, 1 << i)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    families = sorted(tuple(_bits(f)) for f in seen)
    families.sort(key=lambda f: (len(f), f))
    return len(families), families, ideals
