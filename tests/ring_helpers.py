"""Ring-level constructions that only the tests use: the full ideal V, the
conductor and the translate t^k * I mod t^N, N = 2(g+1), the canonical
ideals, the identity star, the stars generated and induced by ideals, the
small-case star count report, and the certificate that reads the orbit
partition of all of F_0, and the lemma suite on every ideal of F_0."""

import itertools

from starlab import kunz_lab
from starlab.errors import InputError, InvariantError
from starlab.fq_linear import Subspace, count_subspaces
from starlab.kunz_lab import (
    KunzReport,
    family_index,
    family_semigroup,
    require_gate,
    ring_model_for,
    star_count,
    subspace_lab,
    unit_translate_criterion,
)
from starlab.numsgp import is_pseudo_symmetric, semigroup
from starlab.ring_model import RingIdeal, enumerate_ideals, is_overring_stable
from starlab.star_engine import DEFAULT_MAX_ORBITS, StarOperation, workspace

import subspaces


def full_ideal(model) -> RingIdeal:
    """V, the integral closure: every head coefficient is free."""
    return RingIdeal(model, subspaces.full(model.field, model.head_dim))


def conductor(model) -> Subspace:
    """The conductor t^(g+1)*V mod t^N, N = 2(g+1), as a subspace of K^N:
    the monomials t^(g+1), ..., t^(N-1). The N-wide references (Zassenhaus
    meets, translates, full normalization) span with it; the engine stores
    heads only. N is its `ambient`."""
    h = model.head_dim
    kern = model.field.packing
    values = tuple(range(h, 2 * h))
    return Subspace(model.field, 2 * h, tuple(kern.shift(kern.one, v) for v in values), values)


def translate(ideal: RingIdeal, k: int) -> Subspace:
    """t^k * I mod t^N, N = 2(g+1), as a subspace of K^N, exact for
    0 <= k <= g+1: the head rows moved k columns right, then the conductor
    rows from t^(k+g+1) on. That is already reduced echelon form. The engine
    meets at head width and builds no translate."""
    model = ideal.model
    assert 0 <= k <= model.head_dim
    head, block = ideal.head, conductor(model)
    shift = model.field.packing.shift
    packed = tuple(shift(r, k) for r in head.packed)
    pivots = tuple(p + k for p in head.pivots)
    return Subspace(
        model.field, block.ambient, packed + block.packed[k:], pivots + block.pivots[k:]
    )


def canonical_ideals(model, ideals=None):
    """All I in F_0 other than R that T does not stabilize.

    Each returned ideal is checked to carry the canonical-ideal signature:
    value set S with g/2 adjoined, no element of valuation g, and biduality
    (I:(I:J)) = J across all of F_0.
    """
    if not is_pseudo_symmetric(model.sgp):
        raise InputError("canonical-ideal detection requires a pseudo-symmetric value semigroup")
    if ideals is None:
        ideals = enumerate_ideals(model)
    R = model.ring_ideal()
    found = tuple(I for I in ideals if I != R and not is_overring_stable(I))
    g = model.sgp.frobenius
    expected_low = tuple(sorted(set(model.sgp.small_members()) | {model.sgp.tau}))
    for I in found:
        low = tuple(p for p in I.value_set if p <= g)
        if low != expected_low:
            raise InvariantError(f"canonical candidate has value set {low}")
        if g in I.value_set:
            raise InvariantError("canonical candidate contains a valuation-g element")
        for J in ideals:
            if I.colon(I.colon(J)) != J:
                raise InvariantError("biduality failed for a canonical candidate")
    return found


def identity_star(model) -> StarOperation:
    """d: every ideal is closed."""
    ws = workspace(model)
    return StarOperation(ws, (1 << ws.partition.orbit_count) - 1)


def generated_star(ideal: RingIdeal) -> StarOperation:
    """The star operation generated by one ideal: J maps to
    (I:(I:J)) meet J^v. Its closed family is computed pointwise and then
    validated against the closure system; a failure indicates an engine bug
    rather than bad input."""
    ws = workspace(ideal.model)
    closed = [J for J in ws.ideals if ideal.colon(ideal.colon(J)).intersect(J.v_closure()) == J]
    star = StarOperation(ws, ws.family(closed))
    # saturation: every orbit member of a closed ideal must be closed
    if star.closed_ideals() != closed:
        raise InvariantError("generated star has an unsaturated closed family")
    if ws.close(star.closed) != star.closed:
        raise InvariantError("generated star family is not closure stable")
    return star


def induced_star(model, ideals) -> StarOperation:
    """The star operation induced by a set of ideals (the meet of their
    generated stars): its closed family is the closure of theirs together
    with the base. An empty set yields the divisorial closure."""
    ws = workspace(model)
    return StarOperation(ws, ws.close(ws.family(ideals)))


def small_case_report(q, gens=(3, 4, 5), max_orbits=DEFAULT_MAX_ORBITS) -> KunzReport:
    """Star count for a small ring, reported rather than asserted: the engine
    computes the value for the requested q and records it."""
    count = star_count(tuple(gens), q, max_orbits=max_orbits)
    report = KunzReport(
        input={"generators": list(gens), "q": q, "command": "small-case"}
    )
    report.results["star_count"] = count
    return report


def full_partition_certificate(n, q) -> KunzReport:
    """`lower_bound_certificate` as it reads the unit orbits of all of F_0:
    each lift gets its ring orbit id from the workspace's partition, the
    lab partition must match the ring partition id for id, and the
    non-absorption scan reads the image map of each representative's ring
    orbit. It lifts by `kunz_lab._lift_lab_subspace`, as looked up when
    called."""
    S = family_semigroup(n)
    lab = subspace_lab(n, q)[1]
    model = ring_model_for(tuple(S.generators), q)
    report = KunzReport(
        input={"n": n, "q": q, "generators": list(S.generators), "command": "kunz lower-bound"}
    )
    report.results["class_count"] = lab.orbit_count
    ws = workspace(model)
    stable = [I for I in ws.ideals if is_overring_stable(I)]
    expected_stable = count_subspaces(n - 1, q)
    report.results["overring_stable_ideals"] = len(stable)
    report.results["subspace_count_formula"] = expected_stable
    report.verdict("overring_stable_count", len(stable) == expected_stable)

    lifts = [kunz_lab._lift_lab_subspace(model, sub) for sub in lab.items]
    lab_ids = lab.orbit_ids
    ring_ids = [ws.orbit_id(L) for L in lifts]
    pairs = set(zip(lab_ids, ring_ids))
    agree = len(pairs) == len(set(lab_ids)) == len(set(ring_ids))
    report.verdict("lab_partition_matches_ring_partition", agree)

    reps = [(lifts[m[0]], ring_ids[m[0]]) for m in lab.members]
    report.verdict("representatives_nondivisorial", all(not L.is_divisorial() for L, _ in reps))
    distinct = len({oid for _, oid in reps}) == len(reps)
    report.verdict("representatives_pairwise_inequivalent", distinct)
    absorbed = False
    pair_checks = 0
    for (a, oid), (b, _) in itertools.permutations(reps, 2):
        images = ws.partition.image_maps[oid]
        pair_checks += len(images)
        if not set(a.head.pivots) <= set(b.head.pivots):
            continue
        if a.dim == b.dim:
            absorbed |= b.head.packed in images
        else:
            absorbed |= any(b.contains_packed(rows) for rows in images)
    report.results["non_absorption_pairs_checked"] = pair_checks
    report.verdict("mutual_non_absorption", not absorbed)

    bound = 2**lab.orbit_count
    floor = 2 ** ((q ** (n - 2) - 1) // (q - 1))
    report.results["certified_lower_bound"] = bound
    report.results["formula_floor"] = floor
    report.verdict("bound_at_least_formula_floor", bound >= floor)
    report.results["witnesses"] = [[list(row) for row in rep.rows] for rep in lab.reps]
    return report


def full_structure_report(gens, q) -> KunzReport:
    """`structure_report` as it decides every lemma on each ideal of F_0
    and each pair of pool ideals: the length identity over all |F_0|^2
    products, biduality over every J, the pairwise closures on every pair
    of pool ideals, and the induced-operation check on singletons, a
    deterministic batch of two-element sets and the full pool."""
    require_gate(gens, q)
    S = semigroup(gens)
    model = ring_model_for(tuple(S.generators), q)
    report = KunzReport(
        input={"generators": list(S.generators), "q": q, "command": "kunz lemmas"}
    )
    ws = workspace(model)
    ideals = ws.ideals
    R = model.ring_ideal()
    g, tau = S.frobenius, S.tau

    ok = True
    pairs = 0
    above = ws.above
    for (a, I), (b, J) in itertools.product(enumerate(ideals), repeat=2):
        if above[a] >> b & 1:
            pairs += 1
            if J.dim - I.dim != len(set(J.value_set) - set(I.value_set)):
                ok = False
    report.results["comparable_pairs"] = pairs
    report.verdict("length_identity", ok)

    expected_low = tuple(sorted(set(S.small_members()) | {tau}))
    ok = True
    for I in ideals:
        if I == R:
            continue
        p1 = tuple(p for p in I.value_set if p <= g) == expected_low
        p2 = g not in I.value_set
        p3 = not is_overring_stable(I)
        # biduality: (I:I) = R is necessary (take J = R), and it already
        # fails for every overring-stable ideal; the full quantifier runs
        # only on the survivors
        p4 = I.colon(I.colon(R)) == R and all(
            I.colon(I.colon(J)) == J for J in ideals
        )
        if not (p1 == p2 == p3 == p4):
            ok = False
    report.verdict("overring_detection_four_way", ok)

    ok = all(I.colon(R) == I and I.colon(I.colon(I)).contains(I) for I in ideals)
    report.verdict("colon_laws", ok)

    is_family = family_index(S) is not None
    report.results["family_member"] = is_family
    if is_family:
        stable = [I for I in ideals if is_overring_stable(I)]
        ok = all((tau in I.value_set) == I.is_divisorial() for I in stable)
        report.verdict("divisorial_iff_tau_value", ok)
        ok = True
        for I in stable:
            padded = model.span_ideal(
                list(I.head.packed) + [model.monomial(k) for k in range(tau, model.head_dim)]
            )
            if I.v_closure() != padded:
                ok = False
        report.verdict("v_closure_is_tau_padding", ok)

        # pairwise closure criterion: I^{star_J} = (J:(J:I)) meet I^v equals
        # I exactly when some valuation-0 unit sends I inside J
        pool = [I for I in stable if not I.is_divisorial()]
        unit_criterion = unit_translate_criterion(ws, pool)
        images = {}
        ok_pair = True
        ok_step = True
        for jx, J in enumerate(pool):
            for ix, I in enumerate(pool):
                image = J.colon(J.colon(I)).intersect(I.v_closure())
                images[(jx, ix)] = image
                if image != I and image != I.v_closure():
                    ok_step = False
                if (image == I) != unit_criterion[(jx, ix)]:
                    ok_pair = False
        report.verdict("closure_by_unit_translate", ok_pair)
        report.verdict("closure_one_step_below_v", ok_step)

        # induced operations: the meet of the pairwise closures fixes I iff
        # a single member does (checked on singletons, a deterministic batch
        # of two-element sets, and the full pool)
        ok = True
        deltas = [(j,) for j in range(len(pool))]
        if len(pool) <= 40:
            deltas += list(itertools.combinations(range(len(pool)), 2))
        else:
            deltas += [(j, (j + 1) % len(pool)) for j in range(len(pool))]
            deltas += [(0, j) for j in range(2, len(pool), 3)]
        if pool:
            deltas.append(tuple(range(len(pool))))
        for delta in deltas:
            for ix, I in enumerate(pool):
                meet = None
                for jx in delta:
                    meet = (
                        images[(jx, ix)]
                        if meet is None
                        else meet.intersect(images[(jx, ix)])
                    )
                set_closed = meet == I
                member_criterion = any(unit_criterion[(jx, ix)] for jx in delta)
                if set_closed != member_criterion:
                    ok = False
        report.verdict("set_closure_by_unit_translate", ok)
    return report
