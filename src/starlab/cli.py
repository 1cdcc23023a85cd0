"""Command-line interface: batch commands, structured output, caching.

Output is a single JSON document (or a flattened CSV / markdown table) with
the fixed envelope {"schema_version": 1, "input": ..., "results": ...,
"verdicts": ..., "timings_ms": ...}. Runs are deterministic: identical
configurations produce byte-identical JSON regardless of --jobs; timings are
only populated under --timings since wall-clock numbers are not reproducible.

Exit codes: 0 all verdicts verified, 1 some verdict failed, 2 bad input,
3 budget exceeded, 4 hypothesis gate failed, 5 engine error (an internal
consistency check failed or an unexpected exception was raised, which is a
bug rather than a failed verdict).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
import time

from . import __version__
from .errors import BudgetError, DeadlineError, GateError, InputError, InvariantError
from .fq_linear import field_from_order
from .kunz_lab import (
    formula_check,
    lab_report,
    lower_bound_certificate,
    structure_report,
    verify_counterexample,
)
from .numsgp import (
    canonical_ideal,
    is_pseudo_symmetric,
    is_symmetric,
    pseudo_frobenius_pair,
    semigroup,
)
from .ring_model import (
    check_ideal_budget,
    enumerate_ideals,
    is_overring_stable,
    semigroup_ring_model,
)
from .star_engine import (
    DEFAULT_MAX_IDEALS,
    DEFAULT_MAX_ORBITS,
    classify_family,
    enumerate_stars,
    workspace,
)

SCHEMA_VERSION = 1


def _parse_gens(text):
    try:
        gens = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"cannot parse generators from {text!r}")
    if not gens:
        raise InputError("no generators given")
    return gens


# ---------------------------------------------------------------------------
# commands


def cmd_sgp_info(args):
    S = semigroup(_parse_gens(args.gens))
    results = {
        "generators": list(S.generators),
        "gaps": list(S.gaps),
        "frobenius": S.frobenius,
        "multiplicity": S.multiplicity,
        "genus": S.genus,
        "symmetric": is_symmetric(S),
        "pseudo_symmetric": is_pseudo_symmetric(S),
    }
    if S.frobenius >= 1 and S.frobenius % 2 == 0:
        results["tau"] = S.tau
    if S.frobenius >= 1:
        results["canonical_ideal_members"] = list(
            canonical_ideal(S).members_upto(S.frobenius + 1)
        )
    if is_pseudo_symmetric(S) and S.genus >= 4:
        a, b = pseudo_frobenius_pair(S)
        results["witness_pair"] = [a, b]
    return {"command": "sgp info", "generators": results["generators"]}, results, {}


def _ring_model(args):
    """The model a ring command acts on, built once the ideal budget is met:
    the budget needs only S and q, the model's basis is 2(g+1) wide."""
    S = semigroup(_parse_gens(args.gens))
    fld = field_from_order(args.q, args.field_poly)
    if S.frobenius >= 1:  # else semigroup_ring_model refuses S as bad input
        check_ideal_budget(S, fld.q, args.max_ideals)
    return semigroup_ring_model(S, fld)


def cmd_ring_enum_ideals(args):
    model = _ring_model(args)
    ideals = enumerate_ideals(model, args.max_ideals)
    listing = []
    for I in ideals:
        entry = {
            "dim": I.dim,
            "values_upto_g": [p for p in I.value_set if p <= model.sgp.frobenius],
            "divisorial": I.is_divisorial(),
            "overring_stable": is_overring_stable(I),
        }
        listing.append(entry)
    results = {
        "generators": list(model.sgp.generators),
        "q": model.field.q,
        "ideal_count": len(ideals),
        "ideals": listing,
    }
    inp = {"command": "ring enum-ideals", "generators": results["generators"], "q": model.field.q}
    return inp, results, {}


def cmd_ring_enum_stars(args):
    model = _ring_model(args)
    ws = workspace(model, args.max_ideals)
    stars = enumerate_stars(model, args.max_orbits, args.max_ideals)
    orbit_summary = [
        {
            "id": oid,
            "size": len(ws.partition.members[oid]),
            "dim": rep.dim,
            "values_upto_g": [p for p in rep.value_set if p <= model.sgp.frobenius],
        }
        for oid, rep in enumerate(ws.partition.reps)
    ]
    families = [
        {"closed_orbits": list(star.key()), "classification": classify_family(ws, star.closed)}
        for star in stars
    ]
    results = {
        "generators": list(model.sgp.generators),
        "q": model.field.q,
        "ideal_count": len(ws.ideals),
        "orbit_count": ws.partition.orbit_count,
        "star_count": len(stars),
        "orbits": orbit_summary,
        "families": families,
    }
    inp = {"command": "ring enum-stars", "generators": results["generators"], "q": model.field.q}
    return inp, results, {}


def cmd_kunz(args):
    sub = args.kunz_command
    modulus = args.field_poly
    if sub == "counterexample":
        gens = _parse_gens(args.gens)
        report = verify_counterexample(
            gens,
            args.q,
            max_ideals=args.max_ideals,
            max_orbits=args.max_orbits,
            jobs=args.jobs,
            modulus=modulus,
        )
    elif sub == "formula-check":
        report = formula_check(
            args.q,
            n=4 if args.n is None else args.n,
            max_ideals=args.max_ideals,
            max_orbits=args.max_orbits,
            modulus=modulus,
            jobs=args.jobs,
        )
    elif sub == "lower-bound":
        if args.n is None:
            raise InputError("lower-bound needs --n")
        report = lower_bound_certificate(
            args.n, args.q, max_ideals=args.max_ideals, modulus=modulus
        )
    elif sub == "subspace-orbits":
        if args.n is None:
            raise InputError("subspace-orbits needs --n")
        report = lab_report(args.n, args.q, max_ideals=args.max_ideals, modulus=modulus)
    elif sub == "lemmas":
        gens = _parse_gens(args.gens)
        report = structure_report(
            gens, args.q, max_ideals=args.max_ideals, modulus=modulus
        )
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown kunz subcommand {sub!r}")
    inp = dict(report.input)
    inp["command"] = f"kunz {sub}"
    return inp, report.results, report.verdicts


# ---------------------------------------------------------------------------
# output, cache, driver


def _envelope(inp, results, verdicts, timings):
    return {
        "schema_version": SCHEMA_VERSION,
        "input": inp,
        "results": results,
        "verdicts": verdicts,
        "timings_ms": timings,
    }


def render_json(envelope) -> str:
    return json.dumps(envelope, indent=2, ensure_ascii=True) + "\n"


def _flat_scalars(prefix, obj):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flat_scalars(f"{prefix}.{k}" if prefix else k, obj[k]))
    elif isinstance(obj, (int, float, str, bool)) or obj is None:
        rows.append((prefix, obj))
    return rows


def render_csv(envelope) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["key", "value"])
    for key, value in _flat_scalars("results", envelope["results"]):
        writer.writerow([key, value])
    for key, value in _flat_scalars("verdicts", envelope["verdicts"]):
        writer.writerow([key, value])
    return buf.getvalue()


def render_md(envelope) -> str:
    lines = ["| key | value |", "| --- | --- |"]
    for key, value in _flat_scalars("results", envelope["results"]):
        lines.append(f"| {key} | {value} |")
    for key, value in _flat_scalars("verdicts", envelope["verdicts"]):
        lines.append(f"| {key} | {value} |")
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_md}


def _cache_key(inp):
    import hashlib  # only --cache-dir needs it

    blob = json.dumps({"engine": __version__, "input": inp}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cache_dir, key):
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None
    if stored.get("engine") != __version__:
        return None
    return stored


def _cache_store(cache_dir, key, inp, results, verdicts):
    """Write the entry to a temporary file beside it, then rename it into
    place, so an interrupted store never leaves a truncated entry."""
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=key + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(
                {"engine": __version__, "input": inp, "results": results, "verdicts": verdicts},
                fh,
            )
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


COMMANDS = {
    ("sgp", "info"): cmd_sgp_info,
    ("ring", "enum-ideals"): cmd_ring_enum_ideals,
    ("ring", "enum-stars"): cmd_ring_enum_stars,
}


def _whole(low, high=None):
    """An argparse type: a whole number, at least low and at most high."""
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"

    def whole(text):
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return whole


# --timeout-s: 0 means no deadline, and signal.alarm takes at most 2^31 - 1
_seconds = _whole(0, 2**31 - 1)


def _field_poly(text):
    """A --field-poly value: integer coefficients, constant term first."""
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"coefficients must be integers, got {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="starlab",
        description="Star-operation computations on finite models of semigroup rings.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p, gens=False, q=False, n=False, ideals=True, orbits=False):
        if gens:
            p.add_argument("--gens", required=True, help="comma-separated generators")
        if q:
            p.add_argument("--q", type=int, required=True, help="residue field order")
            p.add_argument(
                "--field-poly",
                type=_field_poly,
                help="explicit modulus for q = p^e with e >= 2, comma-separated"
                " integer coefficients, constant term first",
            )
        if n:
            p.add_argument("--n", type=int, help="family parameter n")
        p.add_argument("--out", choices=("json", "csv", "md"), default="json")
        p.add_argument("--cache-dir", default=os.environ.get("STARLAB_CACHE_DIR"))
        # each command takes only the caps it honours
        if ideals:
            p.add_argument("--max-ideals", type=_whole(0), default=DEFAULT_MAX_IDEALS)
        if orbits:
            p.add_argument("--max-orbits", type=_whole(0), default=DEFAULT_MAX_ORBITS)
        p.add_argument("--timeout-s", type=_seconds, default=0)
        p.add_argument("--jobs", type=_whole(1), default=os.cpu_count() or 1)
        p.add_argument(
            "--timings",
            action="store_true",
            help="populate timings_ms (breaks byte-for-byte reproducibility)",
        )

    sgp = sub.add_parser("sgp").add_subparsers(dest="sgp_command", required=True)
    p = sgp.add_parser("info")
    add_common(p, gens=True, ideals=False)

    ring = sub.add_parser("ring").add_subparsers(dest="ring_command", required=True)
    p = ring.add_parser("enum-ideals")
    add_common(p, gens=True, q=True)
    p = ring.add_parser("enum-stars")
    add_common(p, gens=True, q=True, orbits=True)

    kunz = sub.add_parser("kunz").add_subparsers(dest="kunz_command", required=True)
    for name, needs_gens, needs_n, caps_orbits in (
        ("counterexample", True, False, True),
        ("formula-check", False, True, True),
        ("lower-bound", False, True, False),
        ("subspace-orbits", False, True, False),
        ("lemmas", True, False, False),
    ):
        p = kunz.add_parser(name)
        add_common(p, gens=needs_gens, q=True, n=needs_n, orbits=caps_orbits)
    return parser


def run_command(args):
    if args.group == "sgp":
        fn = COMMANDS[("sgp", args.sgp_command)]
    elif args.group == "ring":
        fn = COMMANDS[("ring", args.ring_command)]
    else:
        fn = cmd_kunz
    return fn(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    started = time.monotonic()
    old_handler = None
    if args.timeout_s:
        def _on_alarm(signum, frame):
            raise DeadlineError(f"wall clock budget of {args.timeout_s}s exceeded")

        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(args.timeout_s)
    try:
        cache_hit = None
        inp = None
        if args.cache_dir:
            # probe with a provisional input key built from raw arguments
            probe = {
                "group": args.group,
                "argv": sorted(
                    (k, v)
                    for k, v in vars(args).items()
                    if k not in ("out", "cache_dir", "jobs", "timings", "timeout_s")
                ),
            }
            key = _cache_key(probe)
            cache_hit = _cache_load(args.cache_dir, key)
        if cache_hit is not None:
            inp, results, verdicts = (
                cache_hit["input"],
                cache_hit["results"],
                cache_hit["verdicts"],
            )
        else:
            inp, results, verdicts = run_command(args)
            if args.cache_dir:
                _cache_store(args.cache_dir, key, inp, results, verdicts)
        timings = {}
        if args.timings:
            timings["total"] = int((time.monotonic() - started) * 1000)
        envelope = _envelope(inp, results, verdicts, timings)
        out.write(RENDERERS[args.out](envelope))
        if verdicts and any(v != "verified" for v in verdicts.values()):
            if any(v.startswith("skipped") for v in verdicts.values()):
                return 3
            return 1
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    finally:
        if args.timeout_s:
            signal.alarm(0)
            if old_handler is not None:
                signal.signal(signal.SIGALRM, old_handler)


if __name__ == "__main__":
    sys.exit(main())
