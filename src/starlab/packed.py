"""Vectors over a finite field packed into Python ints, one per vector.

Column j of a vector sits in the j-th slot of a fixed number of bits, so
multiplying by t^k is a shift and the lowest nonzero slot is the pivot. Each
field has one layout, chosen by `packing_for`: F_2 is a bit mask added by
XOR, F_3 is bitsliced into a pair of masks (Boothby and Bradshaw,
"Bitslicing and the method of four Russians over larger finite fields"),
and every other field adds its base-p digits slot by slot with a guard bit.
These vectors are the one stored form of a subspace (fq_linear.Subspace)
and of a truncated power series: every elimination, from a span to the
closure table's meets, the colon, ideal containment and the unit-orbit
search, and every product of series work on them.
"""

from __future__ import annotations

from bisect import bisect_left


class Packing:
    """Vectors of K^n, column j in the j-th slot of `width` bits. A slot
    holds the e base-p digits of its code, each in `digit_bits` bits.
    Each layout fixes `add`, `scale` and `reduce`, which eliminates along
    the rows of a reduced echelon form given as `entry` tuples shaped for
    it; `echelon` is built on these. `zero` and `one` are the packed
    vectors 0 and e_0, the series 0 and 1.
    """

    def __init__(self, fld, digit_bits=1):
        self.field = fld
        self.digit_bits = digit_bits
        self.width = digit_bits * fld.e
        self.slot_mask = (1 << self.width) - 1
        self.code_slot = [self._digits_slot(c) for c in range(fld.q)]
        self.slot_code = {s: c for c, s in enumerate(self.code_slot)}
        self.zero = self.pack(())
        self.one = self.pack((1,))

    def _digits_slot(self, code):
        p, b = self.field.p, self.digit_bits
        return sum(code // p**d % p << d * b for d in range(self.field.e))

    def pack(self, row):
        w, slot = self.width, self.code_slot
        return sum(slot[c] << j * w for j, c in enumerate(row) if c)

    def unpack(self, v, n):
        w, mask, code = self.width, self.slot_mask, self.slot_code
        return tuple(code[v >> j * w & mask] for j in range(n))

    def coef(self, v, j):
        return self.slot_code[v >> j * self.width & self.slot_mask]

    def support(self, v):
        """An int that is nonzero exactly in the slots of nonzero columns."""
        return v

    def pivot(self, v):
        s = self.support(v)
        return ((s & -s).bit_length() - 1) // self.width

    def shift(self, v, k):
        return v << k * self.width

    def unshift(self, v, k):
        return v >> k * self.width

    def truncate(self, v, n):
        return v & (1 << n * self.width) - 1

    def echelon(self, vectors):
        """Gauss–Jordan on packed vectors: the rows of the reduced echelon
        form of their span and the rows' pivots, both as tuples."""
        rows, pivots, entries = [], [], []
        for v in vectors:
            v = self.reduce(v, entries)
            if not self.support(v):
                continue
            p = self.pivot(v)
            c = self.coef(v, p)
            if c != 1:
                v = self.scale(self.field.inv[c], v)
            new = (self.entry(p, v),)
            for i, r in enumerate(rows):
                cleared = self.reduce(r, new)
                if cleared != r:
                    rows[i] = cleared
                    entries[i] = self.entry(pivots[i], cleared)
            i = bisect_left(pivots, p)
            rows.insert(i, v)
            pivots.insert(i, p)
            entries.insert(i, new[0])
        return tuple(rows), tuple(pivots)


class Gf2Packing(Packing):
    """F_2: a vector is the mask of its nonzero columns, so addition is XOR
    and the only nonzero multiple of a row is the row."""

    def add(self, a, b):
        return a ^ b

    def scale(self, c, v):
        return v if c else 0

    def entry(self, p, row):
        return (1 << p, row)

    def reduce(self, v, entries):
        for bit, row in entries:
            if v & bit:
                v ^= row
        return v


class Gf3Packing(Packing):
    """F_3, bitsliced: a vector is the pair (pos, neg) of the masks of its
    columns equal to 1 and to 2 = -1, so negating swaps the masks."""

    def pack(self, row):
        pos = neg = 0
        for j, c in enumerate(row):
            if c == 1:
                pos |= 1 << j
            elif c:
                neg |= 1 << j
        return (pos, neg)

    def unpack(self, v, n):
        pos, neg = v
        return tuple((pos >> j & 1) | (neg >> j & 1) << 1 for j in range(n))

    def coef(self, v, j):
        return 1 if v[0] >> j & 1 else (v[1] >> j & 1) * 2

    def support(self, v):
        return v[0] | v[1]

    def shift(self, v, k):
        return (v[0] << k, v[1] << k)

    def unshift(self, v, k):
        return (v[0] >> k, v[1] >> k)

    def truncate(self, v, n):
        mask = (1 << n) - 1
        return (v[0] & mask, v[1] & mask)

    def add(self, a, b):
        ap, an = a
        bp, bn = b
        return (((ap ^ bp) & ~(an | bn)) | (an & bn), ((an ^ bn) & ~(ap | bp)) | (ap & bp))

    def scale(self, c, v):
        return v if c == 1 else (v[1], v[0]) if c else (0, 0)

    def entry(self, p, row):
        return (1 << p, row[0], row[1])

    def reduce(self, v, entries):
        vp, vn = v
        for bit, rp, rn in entries:
            if vp & bit:  # coefficient 1: add -row
                bp, bn = rn, rp
            elif vn & bit:  # coefficient -1: add row
                bp, bn = rp, rn
            else:
                continue
            vp, vn = ((vp ^ bp) & ~(vn | bn)) | (vn & bn), ((vn ^ bn) & ~(vp | bp)) | (vp & bp)
        return (vp, vn)


class SwarPacking(Packing):
    """Any field but F_2 and F_3: each base-p digit in a slot of b bits, where
    2^(b-1) > 2(p-1), so a digitwise sum fits below the slot's top (guard)
    bit. Adding (2^(b-1) - p) to every digit sets the guard bit exactly
    where the sum reached p, and p is taken off there.

    Multiplying by c is F_p-linear on the e digits of a slot: digit d of
    c * x is the sum over k of m_dk * x_k, where m_dk is digit d of
    c * p^k. So c * v is a sum of the k-th digits of all slots moved to
    digit d, each added m_dk times by doubling, and nothing is unpacked.
    Terms with the same move d - k and the same m_dk share one mask."""

    def __init__(self, fld):
        b = (2 * (fld.p - 1)).bit_length() + 1
        super().__init__(fld, b)
        p, e = fld.p, fld.e
        # per c, the digits k by (move in bits, bits of m_dk after its leading 1)
        self._groups = []
        for c in range(fld.q):
            groups = {}
            for k in range(e):
                for d in range(e):
                    m = fld.mul[c][p**k] // p**d % p
                    if m:
                        groups.setdefault(((d - k) * b, bin(m)[3:]), []).append(k)
            self._groups.append(groups)
        self._bits = 0
        self._grow(64 * self.width)

    def _grow(self, bits):
        b, p, w, e = self.digit_bits, self.field.p, self.width, self.field.e
        digits = -(-bits // w) * e
        ones = sum(1 << d * b for d in range(digits))
        self._bits = digits * b
        self._offset = ((1 << b - 1) - p) * ones
        self._guard = (1 << b - 1) * ones
        slots = sum(1 << j * w for j in range(digits // e))
        digit = [((1 << b) - 1 << k * b) * slots for k in range(e)]
        self._terms = [
            [(sum(digit[k] for k in ks), move, chain) for (move, chain), ks in groups.items()]
            for groups in self._groups
        ]

    def add(self, a, b):
        s = a + b
        if s >> self._bits:
            self._grow(s.bit_length())
        over = (s + self._offset) & self._guard
        return s - (over >> self.digit_bits - 1) * self.field.p

    def entry(self, p, row):
        # the pivot's bit offset, the row and its negated multiples
        # -(c * row), scaled on first use
        return (p * self.width, row, [None] * self.field.q)

    def reduce(self, v, entries):
        """v minus its coefficient at each pivot times that pivot's row;
        `add`, inlined."""
        mask, code, neg, p = self.slot_mask, self.slot_code, self.field.neg, self.field.p
        top = self.digit_bits - 1
        for s, row, multiples in entries:
            c = code[v >> s & mask]
            if c:
                m = multiples[c]
                if m is None:
                    m = multiples[c] = self.scale(neg[c], row)
                v += m
                if v >> self._bits:
                    self._grow(v.bit_length())
                v -= (((v + self._offset) & self._guard) >> top) * p
        return v

    def scale(self, c, v):
        if v >> self._bits:
            self._grow(v.bit_length())
        out = 0
        for mask, move, chain in self._terms[c]:
            part = v & mask
            if move:
                part = part << move if move > 0 else part >> -move
            term = part
            for bit in chain:  # the bits of m_dk after the leading 1
                term = self.add(term, term)
                if bit == "1":
                    term = self.add(term, part)
            out = self.add(out, term) if out else term
        return out


def packing_for(fld) -> Packing:
    """The one packed layout of vectors over fld."""
    if fld.q == 2:
        return Gf2Packing(fld)
    if fld.q == 3:
        return Gf3Packing(fld)
    return SwarPacking(fld)
