"""Ring-level constructions that only the tests use: the full ideal V, the
canonical ideals, the identity star, the stars generated and induced by
ideals, the small-case star count report, and the certificate that reads
the orbit partition of all of F_0."""

import itertools

from starlab import kunz_lab
from starlab.errors import InputError, InvariantError
from starlab.fq_linear import count_subspaces
from starlab.kunz_lab import (
    KunzReport,
    family_semigroup,
    ring_model_for,
    star_count,
    subspace_lab,
)
from starlab.numsgp import is_pseudo_symmetric
from starlab.ring_model import RingIdeal, enumerate_ideals, is_overring_stable
from starlab.star_engine import DEFAULT_MAX_ORBITS, StarOperation, workspace

import subspaces


def full_ideal(model) -> RingIdeal:
    """V, the integral closure: every head coefficient is free."""
    return RingIdeal(model, subspaces.full(model.field, model.head_dim))


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
