"""Command-line interface: batch commands, structured output, caching.

Output is a single JSON document (or a flattened CSV / markdown table) with
the fixed envelope {"schema_version": 1, "input": ..., "results": ...,
"verdicts": ..., "timings_ms": ...}. Runs are deterministic: identical
configurations produce byte-identical JSON regardless of --jobs; timings are
only populated under --timings since wall-clock numbers are not reproducible.
Every command, the kunz ones included, is one entry of `COMMANDS`, keyed by
(group, subcommand). It returns a `KunzReport`, whose input (the full command
name among it), results and verdicts fill the envelope as they are.

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

from .errors import BudgetError, DeadlineError, GateError, InputError, InvariantError
from .fq_linear import field_from_order
from .kunz_lab import (
    KunzReport,
    formula_check,
    lower_bound_certificate,
    structure_report,
    subspace_lab,
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
    report = KunzReport({"command": "sgp info", "generators": results["generators"]})
    report.results = results
    return report


def _ring_model(args):
    """The model a ring command acts on, built once the ideal budget is met:
    the budget needs only S and q, the model's head is g+1 wide."""
    S = semigroup(_parse_gens(args.gens))
    fld = field_from_order(args.q, args.field_poly)
    if S.frobenius >= 1:  # else semigroup_ring_model refuses S as bad input
        check_ideal_budget(S, fld.q, args.max_ideals)
    return semigroup_ring_model(S, fld)


def cmd_ring_enum_ideals(args):
    model = _ring_model(args)
    ideals = enumerate_ideals(model)
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
    report = KunzReport(
        {"command": "ring enum-ideals", "generators": results["generators"], "q": model.field.q}
    )
    report.results = results
    return report


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
    report = KunzReport(
        {"command": "ring enum-stars", "generators": results["generators"], "q": model.field.q}
    )
    report.results = results
    return report


def _required_n(args):
    if args.n is None:
        raise InputError(f"{args.kunz_command} needs --n")
    return args.n


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


def _engine_digest():
    """sha256 of the package's own .py sources, in name order: entries are
    keyed on it, so a cache replays only results of the same engine code."""
    import hashlib  # only --cache-dir needs it

    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source = fh.read()
            digest.update(b"%s %d\n" % (name.encode(), len(source)) + source)
    return digest.hexdigest()


def _cache_key(engine, inp):
    import hashlib

    blob = json.dumps({"engine": engine, "input": inp}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cache_dir, key, engine):
    """The stored entry, or None for a miss: a missing or unreadable file,
    an entry of another engine, or one not shaped as _cache_store writes it
    (input, results and verdicts dicts, verdicts strings). A miss is
    recomputed and its entry overwritten."""
    try:
        with open(os.path.join(cache_dir, key + ".json"), "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (
        isinstance(stored, dict)
        and stored.get("engine") == engine
        and all(isinstance(stored.get(part), dict) for part in ("input", "results", "verdicts"))
        and all(isinstance(v, str) for v in stored["verdicts"].values())
    ):
        return None
    return stored


def _cache_store(cache_dir, key, entry):
    """Write the entry to a temporary file beside it, then rename it into
    place, so an interrupted store never leaves a truncated entry."""
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=key + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


# (group, subcommand) -> (its flags beyond the common ones, among them only
# the caps it honours, "q" being --q and --field-poly; the command, which
# returns a KunzReport). The parser is built from it. The kunz entries look
# their function up when called, so a wrapper installed on this module's
# global (the perfbench tracer's) is the one that runs.
COMMANDS = {
    ("sgp", "info"): (("gens",), cmd_sgp_info),
    ("ring", "enum-ideals"): (("gens", "q", "max-ideals"), cmd_ring_enum_ideals),
    ("ring", "enum-stars"): (("gens", "q", "max-ideals", "max-orbits"), cmd_ring_enum_stars),
    ("kunz", "counterexample"): (
        ("gens", "q", "max-ideals", "max-orbits"),
        lambda a: verify_counterexample(
            _parse_gens(a.gens), a.q, a.max_ideals, a.max_orbits, a.jobs, a.field_poly
        ),
    ),
    ("kunz", "formula-check"): (
        ("q", "n", "max-ideals", "max-orbits"),
        lambda a: formula_check(
            a.q, 4 if a.n is None else a.n, a.max_ideals, a.max_orbits, a.field_poly, a.jobs
        ),
    ),
    ("kunz", "lower-bound"): (
        ("q", "n", "max-ideals"),
        lambda a: lower_bound_certificate(_required_n(a), a.q, a.max_ideals, a.field_poly),
    ),
    ("kunz", "subspace-orbits"): (
        ("q", "n", "max-ideals"),
        lambda a: subspace_lab(_required_n(a), a.q, a.max_ideals, a.field_poly)[0],
    ),
    ("kunz", "lemmas"): (
        ("gens", "q", "max-ideals"),
        lambda a: structure_report(_parse_gens(a.gens), a.q, a.max_ideals, a.field_poly),
    ),
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
    groups = {}
    for (group, name), (flags, _) in COMMANDS.items():
        if group not in groups:
            parser_of_group = sub.add_parser(group)
            groups[group] = parser_of_group.add_subparsers(dest=group + "_command", required=True)
        p = groups[group].add_parser(name)
        if "gens" in flags:
            p.add_argument("--gens", required=True, help="comma-separated generators")
        if "q" in flags:
            p.add_argument("--q", type=int, required=True, help="residue field order")
            p.add_argument(
                "--field-poly",
                type=_field_poly,
                help="explicit modulus for q = p^e with e >= 2, comma-separated"
                " integer coefficients, constant term first",
            )
        if "n" in flags:
            p.add_argument("--n", type=int, help="family parameter n")
        p.add_argument("--out", choices=("json", "csv", "md"), default="json")
        p.add_argument("--cache-dir", default=os.environ.get("STARLAB_CACHE_DIR"))
        if "max-ideals" in flags:
            p.add_argument("--max-ideals", type=_whole(0), default=DEFAULT_MAX_IDEALS)
        if "max-orbits" in flags:
            p.add_argument("--max-orbits", type=_whole(0), default=DEFAULT_MAX_ORBITS)
        p.add_argument("--timeout-s", type=_seconds, default=0)
        p.add_argument("--jobs", type=_whole(1), default=os.cpu_count() or 1)
        p.add_argument(
            "--timings",
            action="store_true",
            help="populate timings_ms (breaks byte-for-byte reproducibility)",
        )
    return parser


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
            engine = _engine_digest()
            # probe with a provisional input key built from raw arguments
            probe = {
                "group": args.group,
                "argv": sorted(
                    (k, v)
                    for k, v in vars(args).items()
                    if k not in ("out", "cache_dir", "jobs", "timings", "timeout_s")
                ),
            }
            key = _cache_key(engine, probe)
            cache_hit = _cache_load(args.cache_dir, key, engine)
        if cache_hit is not None:
            inp, results, verdicts = (
                cache_hit["input"],
                cache_hit["results"],
                cache_hit["verdicts"],
            )
        else:
            report = COMMANDS[args.group, getattr(args, args.group + "_command")][1](args)
            inp, results, verdicts = report.input, report.results, report.verdicts
            if args.cache_dir:
                entry = {"engine": engine, "input": inp, "results": results, "verdicts": verdicts}
                _cache_store(args.cache_dir, key, entry)
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
