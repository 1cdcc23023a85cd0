"""Ring-level constructions that only the tests use: the full ideal V, the
canonical ideals, the identity star, the stars generated and induced by
ideals, and the small-case star count report."""

from starlab.errors import InputError, InvariantError
from starlab.kunz_lab import KunzReport, star_count
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
