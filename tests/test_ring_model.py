import itertools

import pytest

from starlab.errors import InputError, InvariantError
from starlab.fq_linear import (
    Subspace,
    field,
    field_from_order,
    partition_subspaces,
    subspace_unit_image,
    unit_representatives,
)
from starlab.kunz_lab import ring_model_for
from starlab.numsgp import semigroup
from starlab.packed import Gf2Packing, Gf3Packing, SwarPacking
from starlab.ring_model import (
    RingIdeal,
    _normalize,
    convert_to_overring,
    enumerate_ideals,
    frobenius_overring_ideal,
    frobenius_overring_model,
    is_overring_stable,
    module_length,
    normalized_translate_intersection,
    semigroup_ring_model,
    subalgebra_model,
    unit_orbits,
)
from starlab.star_engine import workspace

import subspaces
from ring_helpers import canonical_ideals, full_ideal
from subspaces import enumerate_subspaces

F2 = field(2)
F3 = field(3)


def series_shift_down(coeffs, m):
    """Divide by t^m: drop the first m coefficients, pad with zeros."""
    return coeffs[m:] + (0,) * m


def ideal_from_full(model, sub):
    """The ideal whose N-wide subspace is sub, which must contain the
    conductor: its head is the span of its rows cut to g+1 columns."""
    assert all(subspaces.contains(sub, r) for r in model.conductor.rows)
    h = model.head_dim
    ideal = RingIdeal(model, subspaces.span(model.field, h, [r[:h] for r in sub.rows]))
    assert ideal.sub == sub
    return ideal


def image_ideal(rep, rows):
    """The ideal whose head has these packed rows, a key of the image map
    of rep's orbit; unit images keep the pivots of rep's head."""
    model = rep.model
    return RingIdeal(model, Subspace(model.field, model.head_dim, rows, rep.head.pivots))


def normalize(model, sub):
    """sub, a subspace of A_N, divided by its least-pivot row: the engine's
    normalization, called on the packed rows of sub."""
    return _normalize(model, sub.packed, sub.pivots)


def pivot_scan(rows):
    return tuple(next(j for j, x in enumerate(r) if x) for r in rows)


@pytest.fixture(scope="module")
def model457():
    return semigroup_ring_model(semigroup([4, 5, 7]), F2)


@pytest.fixture(scope="module")
def ideals457(model457):
    return enumerate_ideals(model457)


def test_model_457_shape(model457):
    assert model457.trunc == 14
    values = model457.basis.pivots
    assert values == (0, 4, 5, 7, 8, 9, 10, 11, 12, 13)


def test_model_23_shape():
    m = semigroup_ring_model(semigroup([2, 3]), F2)
    assert m.trunc == 4
    assert m.basis.pivots == (0, 2, 3)


def test_value_set_matches_semigroup_many():
    gens_list = [
        [2, 3], [3, 4, 5], [3, 5, 7], [4, 5, 7], [4, 5, 6, 7], [5, 6, 7, 9],
        [2, 5], [3, 4], [4, 6, 7, 9], [5, 7, 9, 11, 13], [6, 7, 8, 9, 10, 11],
        [3, 7, 8], [4, 7, 9, 10], [5, 6, 9], [7, 8, 9, 10, 11, 12, 13],
        [2, 7], [3, 8, 10], [4, 9, 11, 14], [5, 8, 11, 12, 14], [6, 10, 11, 14, 15],
    ]
    for gens in gens_list:
        S = semigroup(gens)
        m = semigroup_ring_model(S, F2)
        expected = tuple(s for s in range(m.trunc) if S.contains(s))
        assert m.basis.pivots == expected, gens


def test_generic_subalgebra_roundtrip(model457):
    rebuilt = subalgebra_model(Subspace.span(F2, model457.trunc, model457.basis.rows))
    assert rebuilt.sgp == model457.sgp
    assert rebuilt.basis == model457.basis
    assert rebuilt is model457


def test_one_model_per_ring():
    # redundant or reordered generators, and a modulus equal to the default
    # one, reach the same model
    assert ring_model_for((7, 5, 4, 8), 2) is ring_model_for((4, 5, 7), 2)
    assert ring_model_for((3, 5, 7), 4, (1, 1, 1)) is ring_model_for((3, 5, 7), 4)


def test_generic_subalgebra_rejects_non_closed():
    # span{1, t} inside A_4 is not multiplicatively closed without t^2, t^3
    with pytest.raises(InputError):
        subalgebra_model(Subspace.span(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]))


def test_overring_values(model457):
    T = frobenius_overring_ideal(model457)
    low = [p for p in T.value_set if p <= 6]
    assert low == [0, 4, 5, 6]
    assert module_length(T, model457.ring_ideal()) == 1


def test_overring_model_equals_full_semigroup_ring(model457):
    t_model = frobenius_overring_model(model457)
    direct = semigroup_ring_model(semigroup([4, 5, 6, 7]), F2)
    assert t_model.sgp == direct.sgp
    assert t_model.basis == direct.basis
    assert t_model.trunc == 8
    assert t_model is direct


def test_enumerate_ideals_23():
    m = semigroup_ring_model(semigroup([2, 3]), F2)
    ideals = enumerate_ideals(m)
    assert len(ideals) == 2
    assert ideals[0] == m.ring_ideal()
    assert ideals[-1] == full_ideal(m)


def test_enumerate_ideals_457_census(model457, ideals457):
    # 16 overring-stable ideals (subspaces of a 3-dim space), the ring, and
    # the canonical ideals
    assert len(ideals457) == 19
    stable = [I for I in ideals457 if is_overring_stable(I)]
    assert len(stable) == 16
    canon = canonical_ideals(model457, ideals457)
    assert len(canon) == 2
    assert len(stable) + 1 + len(canon) == len(ideals457)


def test_enumerate_ideals_postconditions(model457, ideals457):
    R = model457.ring_ideal()
    V = full_ideal(model457)
    assert len(set(ideals457)) == len(ideals457)
    for I in ideals457:
        assert I.in_f0()
        assert V.contains(I) and I.contains(R)


def _reference_ideals(model):
    """F_0 by brute force: every subspace of the gap coordinates lifted,
    spanned together with the ring by a full rref, and kept when stable
    under every basis row of the ring."""
    fld, n, gaps = model.field, model.trunc, model.sgp.gaps
    base = model.basis.rows
    out = []
    for u_sub in enumerate_subspaces(len(gaps), fld):
        lifted = []
        for urow in u_sub.rows:
            vec = [0] * n
            for coord, val in zip(gaps, urow):
                vec[coord] = val
            lifted.append(tuple(vec))
        sub = subspaces.span(fld, n, list(base) + lifted)
        if all(
            subspaces.contains(sub, subspaces.series_mul(b, r, fld)) for b in base for r in sub.rows
        ):
            out.append(ideal_from_full(model, sub))
    return tuple(sorted(out, key=lambda ideal: (ideal.dim, ideal.sub.rows)))


@pytest.mark.parametrize(
    "model",
    [
        semigroup_ring_model(semigroup([4, 5, 7]), F2),
        semigroup_ring_model(semigroup([4, 5, 7]), F3),
        # t^2 + t^3 has an entry in gap column 3, which back-substitution
        # must clear whenever a candidate has a row with pivot 3
        subalgebra_model(
            Subspace.span(
                F3,
                8,
                [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)]
                + [tuple(int(j == k) for j in range(8)) for k in range(4, 8)],
            )
        ),
    ],
    ids=["457-q2", "457-q3", "t2+t3-q3"],
)
def test_enumerate_ideals_matches_span_reference(model):
    ideals = enumerate_ideals(model)
    assert ideals == _reference_ideals(model)
    for I in ideals:
        assert I.head.pivots == pivot_scan(I.head.rows)
        assert I.sub.pivots == pivot_scan(I.sub.rows)


def _filtered_ideals(model):
    """F_0 as enumerate_ideals found it before the search: every subspace of
    the gap coordinates lifted, merged with the ring's head rows by pivot,
    back-substituted, and kept when t^a times each lifted row lies in it for
    every generator a <= g."""
    fld, h, gaps = model.field, model.head_dim, model.sgp.gaps
    ring = model.ring_ideal().head
    base = list(zip(ring.pivots, ring.rows))
    gens = [a for a in model.sgp.generators if a < h]
    out = []
    for u_sub in enumerate_subspaces(len(gaps), fld):
        lifted = []
        for urow in u_sub.rows:
            vec = [0] * h
            for coord, val in zip(gaps, urow):
                vec[coord] = val
            lifted.append(tuple(vec))
        merged = sorted(base + [(gaps[p], w) for p, w in zip(u_sub.pivots, lifted)])
        pivots = tuple(p for p, _ in merged)
        rows = subspaces._back_substitute([list(w) for _, w in merged], pivots, fld)
        sub = Subspace(fld, h, tuple(map(fld.packing.pack, rows)), pivots)
        if all(
            subspaces.contains(sub, subspaces.series_shift(w, a)) for a in gens for w in lifted
        ):
            out.append(RingIdeal(model, sub))
    return tuple(sorted(out, key=lambda ideal: (ideal.dim, ideal.head.rows)))


T2_T3 = ((1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)) + tuple(
    tuple(int(j == k) for j in range(8)) for k in range(4, 8)
)


@pytest.mark.parametrize("gens", [(4, 5, 7), (5, 6, 7, 9), (3, 7, 11), (4, 7, 9), (3, 8, 13)])
def test_enumerate_ideals_matches_filter_census(gens):
    # each ring R of the q = 2 counterexample census and its overring T
    model = semigroup_ring_model(semigroup(gens), F2)
    for m in (model, frobenius_overring_model(model)):
        assert enumerate_ideals(m) == _filtered_ideals(m)


@pytest.mark.parametrize(
    "gens, q",
    [
        ((5, 6, 7, 9), 3),
        # fields with two and three digits per slot
        ((3, 5, 7), 4),
        ((3, 5, 7), 9),
        ((4, 5, 7), 5),
        ("t2+t3", 3),
    ],
)
def test_enumerate_ideals_matches_filter(gens, q):
    fld = field_from_order(q)
    if gens == "t2+t3":
        model = subalgebra_model(Subspace.span(fld, 8, T2_T3))
    else:
        model = semigroup_ring_model(semigroup(gens), fld)
    assert enumerate_ideals(model) == _filtered_ideals(model)


def test_enumerate_ideals_5679_q5():
    model = semigroup_ring_model(semigroup([5, 6, 7, 9]), field_from_order(5))
    ideals = enumerate_ideals(model)
    assert len(ideals) == 1126
    assert len(set(ideals)) == 1126
    assert all(I.in_f0() for I in ideals)


def test_ideal_census_other_fields():
    for q, expected in [(3, 32), (4, 49)]:
        from starlab.fq_linear import field_from_order

        m = semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(q))
        assert len(enumerate_ideals(m)) == expected


def test_colon_examples(model457):
    R = model457.ring_ideal()
    V = full_ideal(model457)
    conductor = R.colon(V)
    assert conductor.value_set == tuple(range(7, 14))
    assert R.colon(R) == R
    M = model457.maximal_ideal()
    L = R.colon(M)
    assert [p for p in L.value_set if p <= 6] == [0, 3, 4, 5, 6]


def test_v_closure_examples(model457, ideals457):
    R = model457.ring_ideal()
    V = full_ideal(model457)
    assert V.v_closure() == V
    M = model457.maximal_ideal()
    L = R.colon(M)
    for I in canonical_ideals(model457, ideals457):
        assert I.v_closure() == L
    for J in ideals457:
        Jv = J.v_closure()
        assert Jv.v_closure() == Jv
        assert Jv.contains(J)


def test_length_examples(model457):
    R = model457.ring_ideal()
    V = full_ideal(model457)
    T = frobenius_overring_ideal(model457)
    assert module_length(T, R) == 1
    assert module_length(V, R) == 4
    assert module_length(R, R) == 0
    with pytest.raises(InputError):
        module_length(R, V)


@pytest.mark.parametrize("q", [2, 3])
def test_length_identity_exhaustive(q):
    from starlab.fq_linear import field_from_order

    m = semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(q))
    ideals = enumerate_ideals(m)
    pairs = 0
    for I, J in itertools.product(ideals, repeat=2):
        if J.contains(I):
            module_length(J, I)  # raises InvariantError on any mismatch
            pairs += 1
    assert pairs > len(ideals)


def test_colon_laws(model457, ideals457):
    R = model457.ring_ideal()
    for I in ideals457:
        assert I.colon(R) == I
        assert I.colon(I.colon(I)).contains(I)
    # (I : x) iterated equals (I : xy) for principal multipliers
    x = model457.span_ideal([model457.monomial(4)])
    y = model457.span_ideal([model457.monomial(5)])
    xy = model457.span_ideal([model457.monomial(9)])
    for I in ideals457[:6]:
        assert I.colon(x).colon(y) == I.colon(xy)


def test_four_way_overring_detection(model457, ideals457):
    # value set S+{tau} <=> no valuation-g element <=> moved by T <=> biduality
    S = model457.sgp
    tau, g = S.tau, S.frobenius
    expected_low = tuple(sorted(set(S.small_members()) | {tau}))
    R = model457.ring_ideal()
    for I in ideals457:
        if I == R:
            continue
        p1 = tuple(p for p in I.value_set if p <= g) == expected_low
        p2 = g not in I.value_set
        p3 = not is_overring_stable(I)
        p4 = all(I.colon(I.colon(J)) == J for J in ideals457)
        assert p1 == p2 == p3 == p4, I


def test_normalize_translate_lands_in_f0(model457, ideals457):
    index = {I.sub: I for I in ideals457}
    unit = F2.packing.pack((1, 1) + (0,) * 12)
    for I in ideals457[:5]:
        for k in (0, 1, 3, 7):
            shifted = I.unit_image(unit).translate(k)
            res = normalized_translate_intersection(
                full_ideal(model457), shifted, k, I.unit_image(unit).sub
            )
            assert res.sub in index


def test_normalize_is_orbit_well_defined(model457, ideals457):
    # divide by the canonical minimal-valuation row versus a perturbed one:
    # the two results must be unit equivalent
    ws = workspace(model457)
    I = ideals457[5]
    shifted = I.translate(1)
    meet = subspaces.intersect(model457.ring_ideal().sub, shifted)
    res1 = normalize(model457, meet)
    # perturb: divide by (row0 + row1) instead
    from subspaces import series_inv, series_mul

    rows = meet.rows
    alt = tuple(F2.add[a][b] for a, b in zip(rows[0], rows[1]))
    m = meet.pivots[0]
    inv = series_inv(series_shift_down(alt, m), F2)
    alt_rows = [series_shift_down(series_mul(inv, r, F2), m) for r in rows]
    alt_rows += list(model457.conductor.rows)
    res2 = ideal_from_full(model457, subspaces.span(F2, 14, alt_rows))
    assert ws.orbit_id(res1) == ws.orbit_id(res2)


def test_unit_orbit_examples(model457, ideals457):
    ws = workspace(model457)
    R = model457.ring_ideal()
    r_orbit = ws.orbit_id(R)
    assert ws.partition.members[r_orbit] == (ideals457.index(R),)
    # overring-stable ideals of head type 2 (dimension 2 over T) split into
    # 2q = 4 classes; the head-3 ones form a single class
    t_ideal = frobenius_overring_ideal(model457)
    tau = model457.sgp.tau
    dim_t = t_ideal.dim

    def head_type(I):
        # dimension of the image of I in the n-dim quotient algebra V/L,
        # equivalently 1 + its dimension over T
        return I.dim - dim_t + 1

    two_dim = [
        I
        for I in ideals457
        if is_overring_stable(I) and head_type(I) == 2 and tau not in I.value_set
    ]
    assert len(two_dim) == 6
    orbits2 = {ws.orbit_id(I) for I in two_dim}
    assert len(orbits2) == 4
    three_dim = [
        I
        for I in ideals457
        if is_overring_stable(I) and head_type(I) == 3 and tau not in I.value_set
    ]
    assert len(three_dim) == 4
    assert len({ws.orbit_id(I) for I in three_dim}) == 1


def test_canonical_ideals_form_one_orbit(model457, ideals457):
    ws = workspace(model457)
    canon = canonical_ideals(model457, ideals457)
    assert len({ws.orbit_id(I) for I in canon}) == 1


def test_orbit_partition_is_deterministic(model457, ideals457):
    p1 = unit_orbits(ideals457)
    p2 = unit_orbits(list(reversed(ideals457)))
    assert p1.orbit_count == p2.orbit_count
    assert [r.head.rows for r in p1.reps] == [r.head.rows for r in p2.reps]


def test_convert_to_overring(model457, ideals457):
    t_model = frobenius_overring_model(model457)
    stable = [I for I in ideals457 if is_overring_stable(I)]
    converted = {convert_to_overring(I, t_model).sub for I in stable}
    assert len(converted) == len(stable)
    t_f0 = {I.sub for I in enumerate_ideals(t_model)}
    assert converted <= t_f0
    assert len(t_f0) == 16


@pytest.mark.parametrize(
    "gens,q",
    [([4, 5, 7], 2), ([4, 5, 7], 3), ([4, 5, 6, 7], 3), ([3, 5, 7], 3), ([4, 5, 7], 4)],
    ids=["457-q2", "457-q3", "4567-q3", "357-q3", "457-q4"],
)
def test_unit_orbits_match_full_width_partition(gens, q):
    # unit_orbits works on heads; the reference partitions the full N-width
    # subspaces under all units of A_N, where the units in 1 + t^(g+1)K[t]
    # fix every subspace that contains the conductor. Head keys are lifted,
    # and witnesses padded, to compare.
    model = semigroup_ring_model(semigroup(gens), field_from_order(q))
    ideals = enumerate_ideals(model)
    part = unit_orbits(ideals)
    ref = partition_subspaces([I.sub for I in ideals])
    assert part.orbit_ids == ref.orbit_ids
    assert part.members == ref.members
    assert [rep.sub for rep in part.reps] == list(ref.reps)
    kern, h, n = model.field.packing, model.head_dim, model.trunc
    unpack = kern.unpack
    for rep, images, ref_images in zip(part.reps, part.image_maps, ref.image_maps):
        lifted = {image_ideal(rep, rows).sub: w for rows, w in images.items()}
        assert len(lifted) == len(images)
        assert {tuple(unpack(r, n) for r in rows) for rows in ref_images} == {
            image.rows for image in lifted
        }
        for image, w in lifted.items():
            assert kern.truncate(w, h) == w
            assert rep.unit_image(w).sub == image
            assert subspace_unit_image(rep.sub, w) == image
            assert image.pivots == pivot_scan(image.rows)


@pytest.mark.parametrize(
    "gens,q,layout",
    [
        ((4, 5, 7), 2, Gf2Packing),
        ((4, 5, 7), 3, Gf3Packing),
        ((3, 5, 7), 4, SwarPacking),
        ((3, 5, 7), 9, SwarPacking),
    ],
    ids=["q2", "q3", "q4", "q9"],
)
def test_packed_image_maps_per_layout(gens, q, layout):
    # for each packed layout: the image maps of the ring-level orbits hold
    # packed heads and packed witnesses. Every key unpacks to the image of
    # rep's head under its unpacked witness, the keys are the images under
    # all units with constant term 1, and witness() gives g+1 coefficients.
    # Every head the closure table interns, the unit images made from those
    # keys included, holds its rows packed and their entries, and every
    # translate t^k * I holds its rows packed
    model = semigroup_ring_model(semigroup(list(gens)), field_from_order(q))
    kern = model.field.packing
    assert type(kern) is layout
    h = model.head_dim
    units = unit_representatives(model.field, h)
    part = unit_orbits(enumerate_ideals(model))
    workspace(model).table

    def bare(entries):
        # an entry's negated multiples, a list scaled on first use, left out
        return [tuple(x for x in e if not isinstance(x, list)) for e in entries]

    for ideal in tuple(model._ideals.values()):
        head = ideal.head
        assert head.packed == tuple(map(kern.pack, head.rows))
        assert bare(head.entries) == bare(map(kern.entry, head.pivots, head.packed))
        for k in range(h + 1):
            shifted = ideal.translate(k)
            assert shifted.packed == tuple(map(kern.pack, shifted.rows))
    for oid, (rep, images) in enumerate(zip(part.reps, part.image_maps)):
        for rows, w in images.items():
            image = subspace_unit_image(rep.head, w)
            assert tuple(kern.unpack(r, h) for r in rows) == image.rows
        brute = {subspaces.unit_image(rep.head, kern.unpack(u, h)).rows for u in units}
        assert {tuple(kern.unpack(r, h) for r in rows) for rows in images} == brute
        for m in part.members[oid]:
            member = part.items[m]
            w = part.witness(oid, member.head)
            assert kern.truncate(w, h) == w
            assert rep.unit_image(w) is member


def test_translate_matches_span(model457, ideals457):
    # t^k * u * I against a full rref of the shifted product rows, for every
    # k in 0..g+1 and units with constant term 1 and 2
    model3 = semigroup_ring_model(semigroup([4, 5, 7]), F3)
    cases = [
        (ideals457[::9], [None, (1, 1) + (0,) * 12, (1, 0, 1, 1, 0, 0, 1) + (0,) * 7]),
        (enumerate_ideals(model3)[::11], [None, (2, 1, 0, 2) + (0,) * 10]),
    ]
    for ideals, units in cases:
        model = ideals[0].model
        fld, n = model.field, model.trunc
        pack = fld.packing.pack
        for I in ideals:
            for u in units:
                rows = (
                    I.sub.rows
                    if u is None
                    else [subspaces.series_mul(u, r, fld) for r in I.sub.rows]
                )
                if u is not None:
                    assert subspace_unit_image(I.sub, pack(u)) == subspaces.span(fld, n, rows)
                for k in range(model.sgp.frobenius + 2):
                    shifted = (I if u is None else I.unit_image(pack(u))).translate(k)
                    ref = subspaces.span(fld, n, [subspaces.series_shift(r, k) for r in rows])
                    assert shifted == ref
                    assert shifted.pivots == ref.pivots


def test_overring_sweep_rejects_a_bad_valuation_g_element(monkeypatch):
    # Two bad valuation-g elements, each past the length check: with T
    # built right, y = t^g read as 0, which lies in R; and T built as
    # R + R*t^3, which also has length 1 over R on <4,5,7> but misses t^6.
    for bad in ("inside R", "outside T"):
        model = semigroup_ring_model(semigroup([4, 5, 7]), F2)
        g = model.sgp.frobenius
        monomial, span_ideal = model.monomial, model.span_ideal
        adjoined = monomial(g) if bad == "inside R" else monomial(3)
        with monkeypatch.context() as patch:
            # the model is shared, so its overring memo may already hold T
            patch.setattr(model, "_cache", {})
            patch.setattr(model, "span_ideal", lambda vs: span_ideal(vs[:-1] + [adjoined]))
            if bad == "inside R":
                zero = model.field.packing.zero
                patch.setattr(model, "monomial", lambda k: zero if k == g else monomial(k))
            with pytest.raises(InvariantError):
                frobenius_overring_ideal(model)


def _reference_colon(I, J):
    """The full-width colon: every shift of every divisor row reduced against
    all N columns of I, and the kernel read off a transposed rref."""
    model = I.model
    fld, n, h = model.field, model.trunc, model.head_dim
    I_sub, J_sub = I.sub, J.sub
    constraints = []
    for b, p in zip(J_sub.rows, J_sub.pivots):
        if p >= h:
            continue
        residuals = [
            subspaces.reduce(I_sub.rows, I_sub.pivots, subspaces.series_shift(b, i), fld)
            for i in range(h)
        ]
        for coord in range(n):
            row = tuple(residuals[i][coord] for i in range(h))
            if any(row):
                constraints.append(row)
    # a lies in the kernel when sum_i a_i * column_i = 0
    m = len(constraints)
    block = [
        tuple(c[i] for c in constraints) + tuple(int(j == i) for j in range(h))
        for i in range(h)
    ]
    kernel = [r[m:] for r in subspaces.rref(block, fld)[0] if not any(r[:m])]
    rows = [a + (0,) * (n - h) for a in kernel] + list(model.conductor.rows)
    return ideal_from_full(model, subspaces.span(fld, n, rows))


def _reference_intersect(I, J):
    return ideal_from_full(I.model, subspaces.intersect(I.sub, J.sub))


def _reference_overring_stable(I):
    return I.product(frobenius_overring_ideal(I.model)) == I


def _colon_test_ideals(model):
    """F_0 plus conductor-containing ideals outside it: the maximal ideal,
    the conductor and the principal ideals t^a * R for the generators a."""
    ideals = list(enumerate_ideals(model))
    R = model.ring_ideal()
    M = model.maximal_ideal()
    extra = [M, R.colon(full_ideal(model)), R.colon(M)]
    extra += [model.span_ideal([model.monomial(a)]) for a in model.sgp.generators]
    return ideals, extra


HEAD_MODELS = [((4, 5, 7), 2), ((4, 5, 7), 3), ((4, 5, 7), 4), ((4, 5, 6, 7), 3), ((3, 5, 7), 3)]
HEAD_MODEL_IDS = ["457-q2", "457-q3", "457-q4", "4567-q3", "357-q3"]
T2T3_ROWS = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)] + [
    tuple(int(j == k) for j in range(8)) for k in range(4, 8)
]


def t_of_457_q3():
    """T of <4,5,7> over F_3: the process's one model of <4,5,6,7>."""
    t_model = frobenius_overring_model(semigroup_ring_model(semigroup([4, 5, 7]), F3))
    assert t_model is semigroup_ring_model(semigroup([4, 5, 6, 7]), F3)
    return t_model


# the head models, <4,5,6,7> reached as the overring T of <4,5,7>, and a
# subalgebra whose ring head has a row t^2 + t^3 that is not a monomial
COLON_MODELS = [
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), F2),
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), F3),
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(4)),
    t_of_457_q3,
    lambda: semigroup_ring_model(semigroup([3, 5, 7]), F3),
    lambda: subalgebra_model(Subspace.span(F3, 8, T2T3_ROWS)),
]
COLON_MODEL_IDS = HEAD_MODEL_IDS + ["t2+t3-q3"]


@pytest.mark.parametrize("make_model", COLON_MODELS, ids=COLON_MODEL_IDS)
def test_colon_and_intersect_match_full_width(make_model):
    # every ordered pair of F_0, and pairs with ideals outside F_0; (I:J)
    # with J not inside I leaves F_0 too. Each pair is asked twice, the
    # second time from the memo. The colon reads only the divisor's
    # generator rows; the reference reads all of its rows.
    model = make_model()
    ideals, extra = _colon_test_ideals(model)
    pairs = list(itertools.product(ideals, repeat=2))
    pairs += [(I, X) for I in ideals + extra for X in extra]
    pairs += [(X, I) for X in extra for I in ideals]
    left_f0 = 0
    for I, J in pairs:
        colon = I.colon(J)
        assert colon == _reference_colon(I, J), (I, J)
        assert I.colon(J) is colon
        left_f0 += not colon.in_f0()
        meet = I.intersect(J)
        assert meet == _reference_intersect(I, J), (I, J)
        assert I.intersect(J) is meet
    assert left_f0 > 0


@pytest.mark.parametrize("make_model", COLON_MODELS, ids=COLON_MODEL_IDS)
def test_generators_make_the_ideal(make_model):
    # the generator rows are head rows, at most the multiplicity of them,
    # and with the conductor they span the ideal as an R-module, which
    # none of them can be left out of
    model = make_model()
    ideals, extra = _colon_test_ideals(model)
    for I in ideals + extra:
        gens = I.generators
        assert set(zip(gens.pivots, gens.packed)) <= set(zip(I.head.pivots, I.head.packed))
        assert gens.dim <= model.sgp.multiplicity
        assert model.span_ideal(gens.packed) is I
        for k in range(gens.dim):
            assert model.span_ideal(gens.packed[:k] + gens.packed[k + 1 :]) is not I


def test_colon_memo_is_per_model():
    # the same generators over F_8 with two moduli: many ideals have the same
    # rows in both models, and neither model may see the other's results
    gens = [3, 5, 7]
    models = [
        semigroup_ring_model(semigroup(gens), field(2, 3, poly))
        for poly in ((1, 1, 0, 1), (1, 0, 1, 1))
    ]
    rows = [{I.head.rows for I in enumerate_ideals(m)} for m in models]
    assert len(rows[0] & rows[1]) > 2
    for model in models:
        ideals, extra = _colon_test_ideals(model)
        for I, J in itertools.product(ideals + extra, repeat=2):
            colon = I.colon(J)
            assert colon.model is model
            assert colon == _reference_colon(I, J), (I, J)
            meet = I.intersect(J)
            assert meet.model is model
            assert meet == _reference_intersect(I, J), (I, J)
        R = model.ring_ideal()
        for I in ideals:
            assert I.v_closure() == _reference_colon(R, _reference_colon(R, I))


@pytest.mark.parametrize("gens,q", HEAD_MODELS, ids=HEAD_MODEL_IDS)
def test_overring_stable_matches_product(gens, q):
    # t^g * I inside I against I * T = I, on F_0 and on (R:M_R)
    model = semigroup_ring_model(semigroup(list(gens)), field_from_order(q))
    ideals, extra = _colon_test_ideals(model)
    verdicts = [is_overring_stable(I) for I in ideals + extra]
    assert verdicts == [_reference_overring_stable(I) for I in ideals + extra]
    assert any(verdicts) and not all(verdicts)


def test_overring_stable_matches_product_on_counterexample_dual():
    # the (R:M_R) of the residue star family, which must be overring stable
    model = semigroup_ring_model(semigroup([5, 6, 7, 9]), F2)
    R = model.ring_ideal()
    L_R = R.colon(model.maximal_ideal())
    assert is_overring_stable(L_R)
    assert _reference_overring_stable(L_R)


HEAD_FORM_MODELS = [
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), F2),
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), F3),
    lambda: semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(4)),
    lambda: semigroup_ring_model(semigroup([4, 5, 6, 7]), F3),
    lambda: semigroup_ring_model(semigroup([3, 5, 7]), field(2, 3, (1, 1, 0, 1))),
    lambda: subalgebra_model(Subspace.span(F3, 8, T2T3_ROWS)),
]
HEAD_FORM_IDS = ["457-q2", "457-q3", "457-q4", "4567-q3", "357-F8", "t2+t3-q3"]


@pytest.mark.parametrize("make_model", HEAD_FORM_MODELS, ids=HEAD_FORM_IDS)
def test_sub_view_is_the_lifted_head(make_model):
    # the N-wide view, its dimension and its value set against a span of
    # the zero-padded head rows and the conductor rows
    model = make_model()
    n, h = model.trunc, model.head_dim
    pad = (0,) * (n - h)
    for I in enumerate_ideals(model):
        rows = [r + pad for r in I.head.rows] + list(model.conductor.rows)
        ref = subspaces.span(model.field, n, rows)
        assert I.sub == ref
        assert I.sub.pivots == ref.pivots
        assert I.dim == ref.dim
        assert I.value_set == ref.pivots
    positive = tuple(r for r, p in zip(model.basis.rows, model.basis.pivots) if p)
    maximal = ideal_from_full(model, subspaces.span(model.field, n, positive))
    assert model.maximal_ideal() == maximal
    assert model.ring_ideal().sub == model.basis


@pytest.mark.parametrize("make_model", HEAD_FORM_MODELS, ids=HEAD_FORM_IDS)
def test_contains_subspace_matches_full_width(make_model):
    # every ideal of F_0 against every unit image of every orbit
    # representative, as an ideal and as its packed image-map key
    model = make_model()
    ideals = enumerate_ideals(model)
    part = unit_orbits(ideals)
    images = [
        (rows, image_ideal(rep, rows))
        for rep, heads in zip(part.reps, part.image_maps)
        for rows in heads
    ]
    images = [(rows, image, image.sub.rows) for rows, image in images]
    answers = set()
    for J in ideals:
        J_sub = J.sub
        for rows, image, image_rows in images:
            full = all(subspaces.contains(J_sub, r) for r in image_rows)
            assert J.contains(image) == full
            assert J.contains_packed(rows) == full
            answers.add(full)
    assert answers == {True, False}


def test_product_needs_a_valuation_0_factor(model457):
    # M * M has no element of valuation 0 and need not contain the
    # conductor (on <4,5,7> it misses t^7), so heads cannot represent it
    M = model457.maximal_ideal()
    with pytest.raises(InputError):
        M.product(M)
    R = model457.ring_ideal()
    assert M.product(R) == M and R.product(M) == M


def test_ring_ideal_rejects_a_full_width_subspace(model457):
    with pytest.raises(InputError):
        RingIdeal(model457, model457.basis)
    with pytest.raises(InputError):
        RingIdeal(model457, model457.ring_ideal().sub)


@pytest.mark.parametrize("q", [2, 3])
def test_one_ideal_per_head(q, monkeypatch):
    # equal heads are one object whichever path made them, and stay so when
    # the model's memos are dropped: the first object made for each head is
    # recorded, and every later result with that head must be it
    model = semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(q))
    fld, h = model.field, model.head_dim
    first = {}

    def same(*ideals):
        for ideal in ideals:
            assert ideal.model is model
            assert first.setdefault(ideal.head.rows, ideal) is ideal
            assert RingIdeal(model, subspaces.span(fld, h, ideal.head.rows)) is ideal

    def every_path():
        ideals, extra = _colon_test_ideals(model)
        same(*ideals, *extra)
        same(*enumerate_ideals(model), model.maximal_ideal(), model.ring_ideal())
        for I, J in itertools.product(ideals[::3] + extra, ideals + extra):
            same(I.colon(J), I.intersect(J))
            if 0 in I.value_set:
                same(I.product(J))
        for I in ideals + extra:
            same(model.span_ideal(I.head.packed))
            for u in unit_representatives(fld, h)[::5]:
                same(I.unit_image(u))
            for k in (0, 1, model.sgp.frobenius + 1):
                shifted = I.translate(k)
                if not shifted.rows:
                    continue
                if shifted.pivots[0] <= h:
                    same(normalize(model, shifted))
                same(normalized_translate_intersection(full_ideal(model), shifted, k, I.sub))
        return ideals

    ideals = every_path()
    assert len(first) > len(ideals)
    t_model = frobenius_overring_model(model)
    t_f0 = {I.head.rows: I for I in enumerate_ideals(t_model)}
    for I in ideals:
        if is_overring_stable(I):
            converted = convert_to_overring(I, t_model)
            assert t_f0[converted.head.rows] is converted
    monkeypatch.setattr(model, "_cache", {})
    every_path()
