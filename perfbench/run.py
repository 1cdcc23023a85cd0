"""starlab benchmark: exact-answer workloads timed end to end, plus a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload stars --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lemmas --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke --workload certify --seed 1 --seconds 1 --trace 0

Run it from the root of a checkout; it needs only Python and src/starlab.
Each workload is a closed loop with one sequential client. A pass runs every
invocation of the workload once, in an order shuffled by the seed, each in a
fresh process (`python -m starlab.cli ... --jobs 1`, or the library script
library_workload.py), so no per-process memo turns a repeat into a cache hit.
STARLAB_CACHE_DIR is stripped and --cache-dir and --timings are never given.

Every invocation passes the answer gate: exit code 0, the sha256 of stdout
pinned in answers.json, and the values themselves (counts, verdicts,
bounds). Passes repeat until --seconds is used up. The benchmark pins
itself and its children to one CPU, and a calibration probe (calibrate.py)
times a fixed pure-Python loop in short bursts on that CPU throughout each
pass; wall_rel, wall time divided by the mean burst time, cancels the
host's speed swings. setup_s is the median time for a fresh interpreter to
import starlab.cli, scaled the same way to a reference host.

--trace 0 prints every end-to-end metric with its unit and sample count:
wall_s, wall_rel, cpu_s, setup_s (and its raw form), peak_rss_mb and
error_rate. Raw times swing with the host by far more than any bound could
allow, so the JSON line carries the ones BENCHMARK.json bounds. --trace 1
runs one untraced pass and two traced passes (layers.py) with two seeds,
fails if any count differs between the traced passes, and prints the
per-layer metrics and the tracing overhead. --smoke swaps in tiny inputs.

Every sample, calibration burst and load average goes to a report under
.perfbench/. The last line of stdout is one JSON object: correct,
attempted, failed, metrics. The exit code is 0 when every answer passed
the gate and every traced count repeated, 1 when one did not, and 2 when
the program or benchmark files are missing.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REPORT_DIR = ROOT / ".perfbench"
TRACE_DIR = REPORT_DIR / "trace"
SETUP_SAMPLES = 21
# setup_s, trace.overhead_s and per-layer times are given in reference
# seconds: times scaled to a host on which one calibration burst takes this
# long.
REFERENCE_BURST_S = 0.001


# ---------------------------------------------------------------------------
# workloads and the answer gate


def fields(section=None, **want):
    """Value check: each named field of the output (inside `section` when
    given) equals its expected value."""

    def check(out):
        doc = json.loads(out)
        got = doc[section] if section else doc
        return [f"{k} {got[k]} != {v}" for k, v in want.items() if got[k] != v]

    return check


def all_verified(out):
    verdicts = json.loads(out)["verdicts"]
    if not verdicts:
        return ["no verdicts"]
    return [f"verdict {k} is {v}" for k, v in sorted(verdicts.items()) if v != "verified"]


class Invocation:
    """One program run: `kind` is "cli" or "axioms", `args` its arguments
    (without --jobs or --seed), `check` the value check on its stdout."""

    def __init__(self, kind, args, check):
        self.kind = kind
        self.args = args.split()
        self.check = check
        self.key = f"{kind} {args}"

    def argv(self, seed, trace_base=None):
        if self.kind == "cli":
            tail = [*self.args, "--jobs", "1"]
            head = ["-m", "starlab.cli"]
        else:
            tail = [*self.args, "--seed", str(seed)]
            head = [str(BENCH / "library_workload.py")]
        if trace_base is not None:
            head = [str(BENCH / "layers.py"), str(trace_base), self.kind]
        return [sys.executable, *head, *tail]


# workload -> (full invocations, smoke invocations). Why each workload was
# chosen is recorded next to its name in BENCHMARK.json. The pinned bound
# and floor also check that the certified bound is at least the floor.
WORKLOADS = {
    "stars": (
        [
            Invocation("cli", "ring enum-stars --gens 4,5,7 --q 3", fields("results", star_count=67)),
            Invocation("cli", "ring enum-stars --gens 4,5,6,7 --q 3", fields("results", star_count=146)),
        ],
        [
            Invocation("cli", "ring enum-stars --gens 4,5,7 --q 2", fields("results", star_count=19)),
            Invocation("cli", "ring enum-stars --gens 4,5,6,7 --q 2", fields("results", star_count=42)),
        ],
    ),
    "lemmas": (
        [Invocation("cli", "kunz lemmas --gens 5,6,7,9 --q 2", all_verified)],
        [Invocation("cli", "kunz lemmas --gens 4,5,7 --q 2", all_verified)],
    ),
    "certify": (
        [
            Invocation(
                "cli",
                "kunz lower-bound --n 5 --q 3",
                fields("results", certified_lower_bound=32768, formula_floor=8192),
            ),
            Invocation(
                "cli",
                "kunz subspace-orbits --n 6 --q 3",
                fields("results", x_size=120, class_count=48),
            ),
        ],
        [
            Invocation(
                "cli",
                "kunz lower-bound --n 4 --q 2",
                fields("results", certified_lower_bound=16, formula_floor=8),
            ),
            Invocation(
                "cli",
                "kunz subspace-orbits --n 4 --q 2",
                fields("results", x_size=6, class_count=4),
            ),
        ],
    ),
    "axioms": (
        [
            Invocation(
                "axioms",
                "--gens 4,5,6,7 --residue-gens 4,5,7 --q 3",
                fields(star_count=146, stars_verified=146, residue_operations=4),
            )
        ],
        [
            Invocation(
                "axioms",
                "--gens 4,5,6,7 --residue-gens 4,5,7 --q 2",
                fields(star_count=42, stars_verified=42, residue_operations=3),
            )
        ],
    ),
}


def gate(inv, code, out, pinned):
    """Problems with one invocation's answer; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    digest = hashlib.sha256(out).hexdigest()
    if digest != pinned.get(inv.key):
        return [f"stdout sha256 {digest} differs from the pinned {pinned.get(inv.key)}"]
    try:
        return inv.check(out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable answer: {exc!r}"]


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "STARLAB_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv):
    """Runs argv to completion in a fresh process. Returns (exit code,
    stdout, stderr, wall seconds, rusage)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err[0] if err else b"", wall, usage


class Probe:
    """Runs the calibration probe (calibrate.py) in a fresh process beside
    the code in the with-block; `samples` then holds its burst times. The
    probe shares the workload's CPU (main pins the benchmark to one)."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline() != b"ready\n":
            self._stop()
            raise RuntimeError("the calibration probe did not start")
        return self

    def __exit__(self, *exc):
        self.samples = [float(x) for x in self._stop().split()]

    def _stop(self):
        self.proc.stdin.close()
        try:
            out = self.proc.stdout.read()
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return out


def burst_time(samples):
    """Mean calibration burst time, leaving out bursts over 2.5x the median:
    those lost the CPU to the workload's time slice midway."""
    cut = 2.5 * statistics.median(samples)
    return statistics.mean(s for s in samples if s <= cut)


def time_setup():
    """Wall time for a fresh interpreter to import starlab.cli, which every
    CLI invocation pays; also checks the package comes from this checkout."""
    code, out, err, wall, _ = spawn(
        [sys.executable, "-c", "import starlab.cli as c; print(c.__file__)"]
    )
    if code != 0 or not Path(out.decode().strip()).is_relative_to(SRC):
        raise RuntimeError(f"starlab.cli does not import from {SRC}: {err.decode(errors='replace')}")
    return wall


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, seed):
        self.seed = seed
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.problems = []
        self.summaries = []
        self.load = (os.getloadavg()[0], None)
        self.calibration = []
        self.burst_s = None
        self.wall_rel = None

    def describe(self, label):
        return (
            f"pass {label}: seed {self.seed}, wall {self.wall_s:.4f} s, cpu {self.cpu_s:.4f} s, "
            f"wall_rel {self.wall_rel:.2f}, peak rss {self.peak_rss_mb:.1f} MB, "
            f"load {self.load[0]:.2f} -> {self.load[1]:.2f}, {len(self.calibration)} calibration "
            f"bursts: mean {self.burst_s * 1e3:.4f} ms, min {min(self.calibration) * 1e3:.4f}, "
            f"max {max(self.calibration) * 1e3:.4f}"
        )

    def record(self):
        return {
            "seed": self.seed,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "wall_rel": self.wall_rel,
            "peak_rss_mb": self.peak_rss_mb,
            "load": self.load,
            "burst_s": self.burst_s,
            "calibration_s": self.calibration,
            "problems": self.problems,
        }


def run_pass(invocations, seed, pinned, traced=False):
    """One pass over the workload in the seed's order; gate checks run after
    the clock stops."""
    result = Pass(seed)
    order = list(invocations)
    random.Random(seed).shuffle(order)
    outputs = []
    with Probe() as probe:
        started = time.perf_counter()
        for i, inv in enumerate(order):
            trace_base = TRACE_DIR / f"{seed}-{i}" if traced else None
            code, out, err, _, usage = spawn(inv.argv(seed, trace_base))
            outputs.append((inv, code, out, err, trace_base))
            result.cpu_s += usage.ru_utime + usage.ru_stime
            result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024)
        result.wall_s = time.perf_counter() - started
    result.load = (result.load[0], os.getloadavg()[0])
    result.calibration = probe.samples
    result.burst_s = burst_time(probe.samples)
    result.wall_rel = result.wall_s / result.burst_s
    for inv, code, out, err, trace_base in outputs:
        result.attempted += 1
        problems = gate(inv, code, out, pinned)
        if problems:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            result.problems.append((inv.key, problems + tail))
        if traced:
            try:
                with open(f"{trace_base}.json", encoding="utf-8") as fh:
                    result.summaries.append(json.load(fh))
            except FileNotFoundError:
                raise RuntimeError(f"{inv.key} wrote no trace: {err.decode(errors='replace')}")
    return result


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond
    it, as (percentile, value), or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def summarise(name, values, unit):
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
    return f"{name:<14} median {statistics.median(values):.6g} {unit}  ({tail_text}; n={len(values)})"


def end_to_end(passes, setups, setups_ref):
    """name -> (value, unit, samples) for every end-to-end metric."""
    walls = [p.wall_s for p in passes]
    rels = [p.wall_rel for p in passes]
    cpus = [p.cpu_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    return {
        "wall_s": (statistics.median(walls), "s", walls),
        "wall_rel": (statistics.median(rels), "x", rels),
        "cpu_s": (statistics.median(cpus), "s", cpus),
        "setup_s": (statistics.median(setups_ref), "s", setups_ref),
        "setup_raw_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (statistics.median(rss), "MB", rss),
        "error_rate": (failed / attempted, "1", [failed / attempted]),
    }


def merge(summaries):
    layers, counters = {}, {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            total = layers.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return layers, counters


def deterministic_counts(summaries):
    layers, counters = merge(summaries)
    counts = {f"{name}.calls": entry["calls"] for name, entry in layers.items()}
    counts.update(counters)
    counts["spans"] = sum(s["spans"] for s in summaries)
    return counts


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced):
    """name -> value for every per-layer metric of a traced pass; times are
    scaled to reference seconds like setup_s."""
    layers, counters = merge(traced.summaries)
    scale = REFERENCE_BURST_S / traced.burst_s
    metrics = {}
    for name, entry in layers.items():
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = value if key == "calls" else value * scale
    metrics.update(counters)
    metrics["star_engine.table.useful_ratio"] = ratio(
        counters["star_engine.table.useful"], counters["star_engine.table.translates"]
    )
    metrics["star_engine.close.useful_ratio"] = ratio(
        counters["star_engine.families"], layers["star_engine.RingWorkspace.close"]["calls"]
    )
    return metrics


# ---------------------------------------------------------------------------
# runs


def timed_run(invocations, seed, seconds, pinned, log, report):
    """Set-up samples, then passes until the next one would overrun."""
    with Probe() as probe:
        setups = [time_setup() for _ in range(SETUP_SAMPLES)]
    scale = REFERENCE_BURST_S / burst_time(probe.samples)
    setups_ref = [s * scale for s in setups]
    log(
        f"setup: {SETUP_SAMPLES} imports, raw median {statistics.median(setups):.6f} s, "
        f"{len(probe.samples)} calibration bursts: mean {burst_time(probe.samples) * 1e3:.4f} ms"
    )
    report["setup"] = {"raw_s": setups, "reference_s": setups_ref, "calibration_s": probe.samples}
    passes = []
    started = time.perf_counter()
    while True:
        p = run_pass(invocations, seed * 1000 + len(passes), pinned)
        passes.append(p)
        log(p.describe(len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, end_to_end(passes, setups, setups_ref)


def traced_run(invocations, seed, pinned, log):
    """One untraced pass, then two traced passes with two seeds; the spans
    of this run replace those of the previous one."""
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    TRACE_DIR.mkdir(parents=True)
    untraced = run_pass(invocations, seed, pinned)
    first = run_pass(invocations, seed, pinned, traced=True)
    second = run_pass(invocations, seed + 1, pinned, traced=True)
    passes = [untraced, first, second]
    for label, p in zip(("untraced", "traced", "traced, next seed"), passes):
        log(p.describe(label) + f", spans {sum(s['spans'] for s in p.summaries)}")
    a, b = deterministic_counts(first.summaries), deterministic_counts(second.summaries)
    drift = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in drift:
        log(f"SELF-CHECK FAILED: {key} is {a.get(key)} with seed {seed}, {b.get(key)} with seed {seed + 1}")
    metrics = per_layer(first)
    metrics["trace.overhead_s"] = (first.wall_rel - untraced.wall_rel) * REFERENCE_BURST_S
    return passes, metrics, drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    args = parser.parse_args(argv)

    # Each vCPU of a shared host slows down on its own schedule, so the
    # calibration only tracks the workload when both run on the same CPU.
    # Children inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "starlab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'starlab'} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    pinned = json.loads((BENCH / "answers.json").read_text())
    REPORT_DIR.mkdir(exist_ok=True)
    invocations = WORKLOADS[args.workload][1 if args.smoke else 0]

    def log(line):
        print(line, flush=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, "")
    report = {
        "workload": args.workload,
        "why": why,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "invocations": [inv.key for inv in invocations],
    }
    log(f"workload {args.workload}{' (smoke)' if args.smoke else ''}: {why}")
    log(
        f"python {report['python']}, nproc {report['nproc']}, pinned to cpu {report['cpu']}, "
        f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}, invocations "
        + "; ".join(report["invocations"])
    )
    try:
        if args.trace:
            passes, values, drift = traced_run(invocations, args.seed, pinned, log)
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
            for name, m in metrics.items():
                log(f"{name:<52} {m['value']:.6g} {m['unit']}")
        else:
            drift = []
            passes, values = timed_run(invocations, args.seed, args.seconds, pinned, log, report)
            for name, (value, unit, samples) in values.items():
                log(summarise(name, samples, unit))
            metrics = {
                m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
                for m in spec["end_to_end"]
            }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    for p in passes:
        for key, problems in p.problems:
            log(f"ANSWER GATE FAILED: {key} (seed {p.seed}): " + "; ".join(problems))
    correct = failed == 0 and not drift
    report.update(passes=[p.record() for p in passes], metrics=metrics, self_check_drift=drift)
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    (REPORT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    log(f"report: {REPORT_DIR / name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
