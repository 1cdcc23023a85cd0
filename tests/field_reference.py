"""Reference field tables straight from the definitions: a code's base-p
digits, least significant first, are the coefficients of a polynomial over
F_p; sums are taken digit by digit, and products are polynomial products
reduced modulo the field's modulus. On a prime field that is arithmetic
mod p. fq_linear builds its tables by digit recurrences instead; the tests
compare the two table by table."""

from starlab.fq_linear import _poly_mod, _poly_trim


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def reference_tables(fld):
    """(add, sub, mul, neg, inv) of fld: integer arithmetic mod p on a prime
    field, otherwise one polynomial operation per pair (per unordered pair
    for the commutative product)."""
    p, e, q = fld.p, fld.e, fld.q
    if e == 1:
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        sub = [[(a - b) % p for b in range(p)] for a in range(p)]
        mul = [[a * b % p for b in range(p)] for a in range(p)]
        neg = [-a % p for a in range(p)]
        return add, sub, mul, neg, [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def digits(code):
        out = []
        for _ in range(e):
            out.append(code % p)
            code //= p
        return out

    def code(poly):
        out = 0
        for c in reversed(poly):
            out = out * p + c
        return out

    polys = [digits(c) for c in range(q)]
    add = [[code([(x + y) % p for x, y in zip(pa, pb)]) for pb in polys] for pa in polys]
    sub = [[code([(x - y) % p for x, y in zip(pa, pb)]) for pb in polys] for pa in polys]
    trimmed = [_poly_trim(list(pa)) for pa in polys]
    modulus = list(fld.modulus)
    mul = [[0] * q for _ in range(q)]
    for a, pa in enumerate(trimmed):
        for b in range(a, q):
            mul[a][b] = mul[b][a] = code(_poly_mod(poly_mul(pa, trimmed[b], p), modulus, p))
    neg = sub[0]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return add, sub, mul, neg, inv
