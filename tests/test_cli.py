import json
import os
import subprocess
import sys
import time

import pytest

import starlab
from starlab import cli
from starlab.cli import main
from starlab.errors import InvariantError
from starlab.kunz_lab import ring_model_for
from starlab.star_engine import workspace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sgp_info_457(capsys):
    code, out, _ = run_cli(capsys, "sgp", "info", "--gens", "4,5,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    results = payload["results"]
    assert results["frobenius"] == 6
    assert results["tau"] == 3
    assert results["pseudo_symmetric"] is True
    assert results["canonical_ideal_members"] == [0, 3, 4, 5, 7]
    assert results["witness_pair"] == [3, 2]


def test_sgp_info_symmetric(capsys):
    code, out, _ = run_cli(capsys, "sgp", "info", "--gens", "2,3")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["symmetric"] is True and results["pseudo_symmetric"] is False


def test_sgp_info_bad_gcd_exit_2(capsys):
    code, _, err = run_cli(capsys, "sgp", "info", "--gens", "4,6")
    assert code == 2
    assert "gcd" in err


def test_enum_stars_345(capsys):
    code, out, _ = run_cli(capsys, "ring", "enum-stars", "--gens", "3,4,5", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["star_count"] == 3


def test_enum_stars_457(capsys):
    code, out, _ = run_cli(capsys, "ring", "enum-stars", "--gens", "4,5,7", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["star_count"] == 19
    tags = sorted(f["classification"] for f in results["families"])
    assert tags.count("unit_class_union_with_overring") == 16
    assert tags.count("identity") == 1
    assert tags.count("divisorial") == 1
    assert tags.count("all_but_canonical_class") == 1


def test_enum_stars_overring(capsys):
    code, out, _ = run_cli(capsys, "ring", "enum-stars", "--gens", "4,5,6,7", "--q", "2")
    assert code == 0
    assert json.loads(out)["results"]["star_count"] == 42


def test_enum_ideals(capsys):
    code, out, _ = run_cli(capsys, "ring", "enum-ideals", "--gens", "4,5,7", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["ideal_count"] == 19


def test_kunz_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "kunz", "counterexample", "--gens", "4,5,7", "--q", "2", "--jobs", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["star_count"] == 19
    assert payload["results"]["overring_star_count"] == 42
    assert set(payload["verdicts"].values()) == {"verified"}


def test_kunz_gate_exit_4(capsys):
    code, _, err = run_cli(capsys, "kunz", "counterexample", "--gens", "3,4,5", "--q", "2")
    assert code == 4


def test_kunz_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "kunz", "lower-bound", "--n", "5", "--q", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["certified_lower_bound"] == 256
    assert results["formula_floor"] == 128


def test_kunz_subspace_orbits(capsys):
    code, out, _ = run_cli(capsys, "kunz", "subspace-orbits", "--n", "4", "--q", "3")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["x_size"] == 12 and results["class_count"] == 6


def test_kunz_lemmas(capsys):
    code, out, _ = run_cli(capsys, "kunz", "lemmas", "--gens", "4,5,7", "--q", "2")
    assert code == 0
    assert set(json.loads(out)["verdicts"].values()) == {"verified"}


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "enum-ideals", "--gens", "4,5,7"),
        ("ring", "enum-stars", "--gens", "4,5,7"),
        ("kunz", "counterexample", "--gens", "4,5,7", "--jobs", "1"),
        ("kunz", "formula-check"),
        ("kunz", "lower-bound", "--n", "5"),
        ("kunz", "subspace-orbits", "--n", "5"),
        ("kunz", "lemmas", "--gens", "4,5,7"),
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_budget_exit_3(capsys, argv):
    # every command that enumerates ideals honours --max-ideals, also when
    # the process already holds the model's workspace
    workspace(ring_model_for((4, 5, 7), 2))
    code, out, err = run_cli(capsys, *argv, "--q", "2", "--max-ideals", "1")
    assert code == 3
    assert "budget" in err + out


def run_subprocess(*argv):
    """The CLI in a fresh process, so no model it builds stays in this one;
    its result and its wall time in seconds."""
    src = os.path.dirname(os.path.dirname(starlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "starlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc, time.monotonic() - started


def test_cli_import_loads_no_heavy_modules():
    # the CLI starts in every benchmarked invocation: importing it loads
    # neither the packed kernel, which the first packing loads, nor the
    # standard modules that only some commands use or none needs
    src = os.path.dirname(os.path.dirname(starlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    unwanted = (
        "starlab.packed", "dataclasses", "inspect", "hashlib", "decimal", "multiprocessing", "csv"
    )
    probe = f"import sys, starlab.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("ring", "enum-ideals", "--gens", "30,31"), "2.936e+14241 candidate ideals"),
        (("kunz", "subspace-orbits", "--n", "20000"), "q^(n-1) = 1.990e+6020 exceeds"),
    ],
    ids=["enum-ideals", "subspace-orbits"],
)
def test_budget_past_the_int_str_limit_exit_3(argv, message):
    # counts of more than 4300 decimal digits, Python's int-to-str limit,
    # are shown in scientific notation, not raised as an engine error
    proc, _ = run_subprocess(*argv, "--q", "2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("budget exceeded: ") and message in proc.stderr


@pytest.mark.parametrize("digits", [1, 2, 3, 4, 5, 6, 7, 20, 4300, 4301, 14242])
def test_scientific_count_matches_decimal(digits):
    # a count past the int-to-str limit is shown as Decimal's .3e shows it,
    # ties to even: counts just below and above 10^k, and exact halves at
    # the 4th significant digit, rounding down to an even digit and up from
    # an odd one
    from decimal import Decimal

    from starlab.errors import _scientific

    p = 10**digits
    counts = [p - 2, p - 1, p, p + 1, p + 2]
    if digits > 4:
        unit = 10 ** (digits - 4)
        counts += [m * unit + unit // 2 + d for m in (1234, 1235, 9999) for d in (-1, 0, 1)]
    for count in counts:
        if count > 0:
            assert _scientific(count) == f"{Decimal(count):.3e}", count


def test_lower_bound_budget_exits_before_the_model():
    # the lab's q^(n-1) check runs before the family member's ring, whose
    # model alone takes tens of seconds to build at n = 600
    proc, seconds = run_subprocess("kunz", "lower-bound", "--n", "600", "--q", "2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("budget exceeded: q^(n-1) = 2074757784")
    assert seconds < 5


def test_large_prime_order_exits_2():
    # a q with no prime factor up to 512 is refused without trial division
    # by every p up to q
    proc, _ = run_subprocess(
        "kunz", "subspace-orbits", "--n", "3", "--q", "1000000007", "--timeout-s", "5"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "field order 1000000007 exceeds supported maximum 512" in proc.stderr


@pytest.mark.parametrize("command", ["enum-ideals", "enum-stars"])
@pytest.mark.parametrize(
    "argv,message",
    [
        (("--gens", "4,5,7", "--max-ideals", "1"), "67 candidate ideals exceed budget 1"),
        (("--gens", "30,31"), "2.936e+14241 candidate ideals exceed budget 100000"),
    ],
    ids=["457", "30-31"],
)
def test_ring_budget_exits_before_the_model(capsys, monkeypatch, command, argv, message):
    # the ideal budget needs only S and q, so the model, 2(g+1) columns
    # wide, is never built when it is exceeded
    def refuse(*args):
        raise AssertionError("the model was built before the ideal budget was checked")

    monkeypatch.setattr(cli, "semigroup_ring_model", refuse)
    code, out, err = run_cli(capsys, "ring", command, *argv, "--q", "2")
    assert (code, out, err) == (3, "", f"budget exceeded: {message}\n")


@pytest.mark.parametrize("value", ["-5", "-1", "2147483648"])
def test_bad_timeout_exit_2(capsys, value):
    # a deadline outside [0, 2^31 - 1] must not reach signal.alarm, where -1
    # arms an alarm of 2^32 - 1 seconds and 2^31 raises OverflowError
    with pytest.raises(SystemExit) as exc:
        main(["kunz", "counterexample", "--gens", "4,5,7", "--q", "2",
              "--timeout-s", value])
    assert exc.value.code == 2
    assert "--timeout-s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "enum-stars", "--max-ideals", "-1"),
        ("ring", "enum-stars", "--max-orbits", "-1"),
        ("ring", "enum-stars", "--jobs", "0"),
        ("kunz", "counterexample", "--jobs", "-3"),
    ],
)
def test_bad_cap_or_jobs_exit_2(capsys, argv):
    # a negative cap is bad input, not a budget every run exceeds, and a run
    # needs at least one process
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--gens", "4,5,7", "--q", "2"])
    assert exc.value.code == 2
    assert argv[2] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("kunz", "formula-check", "--q", "2", "--max-ideals", "1"),
        ("kunz", "counterexample", "--gens", "4,5,7", "--q", "2", "--max-ideals", "1"),
    ],
    ids=["formula-check", "counterexample"],
)
def test_budget_exit_is_the_same_on_jobs_2(capsys, monkeypatch, argv):
    # the caps are checked before the worker pool opens: over budget, two
    # jobs exit as one does, and no pool is made
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool opened over budget")

    monkeypatch.setattr("multiprocessing.Pool", refuse)
    one = run_cli(capsys, *argv, "--jobs", "1")
    assert one[0] == 3
    assert run_cli(capsys, *argv, "--jobs", "2") == one


def test_timeout_holds_under_jobs_2():
    # leaving the worker pool terminates its workers, so the deadline is not
    # held up by the two enumerations; untimed, the closure table of R alone
    # takes about a minute at q = 3
    proc, seconds = run_subprocess(
        "kunz", "counterexample", "--gens", "5,6,7,9", "--q", "3", "--timeout-s", "3",
        "--jobs", "2",
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["verdicts"] == {"counterexample": "skipped(budget)"}
    assert seconds < 15


def test_formula_check_n0_exit_2(capsys):
    # --n 0 is a bad n like --n 5, not the default n = 4
    for n in ("0", "5"):
        code, out, err = run_cli(capsys, "kunz", "formula-check", "--q", "2", "--n", n)
        assert code == 2
        assert out == ""
        assert "only available for n = 4" in err


@pytest.mark.parametrize("command", ["lower-bound", "subspace-orbits"])
def test_missing_n_exit_2(capsys, command):
    code, out, err = run_cli(capsys, "kunz", command, "--q", "2")
    assert code == 2
    assert out == ""
    assert "needs --n" in err


def test_zero_timeout_means_no_deadline(capsys, monkeypatch):
    alarms = []
    monkeypatch.setattr(cli.signal, "alarm", alarms.append)
    code, out, _ = run_cli(capsys, "sgp", "info", "--gens", "4,5,7", "--timeout-s", "0")
    assert code == 0 and json.loads(out)["results"]["frobenius"] == 6
    assert alarms == []


def test_budget_skip_certifies_under_the_same_budget(capsys):
    code, out, _ = run_cli(
        capsys, "kunz", "counterexample", "--gens", "4,5,7", "--q", "2",
        "--jobs", "1", "--max-ideals", "1",
    )
    assert code == 3
    results = json.loads(out)["results"]
    assert results["budget_error"] == "67 candidate ideals exceed budget 1"
    assert results["certified_lower_bound"] is None


def test_engine_error_exit_5(capsys, monkeypatch):
    def broken(args):
        raise InvariantError("closure map left the closed family")

    monkeypatch.setitem(cli.COMMANDS, ("sgp", "info"), broken)
    code, out, err = run_cli(capsys, "sgp", "info", "--gens", "4,5,7")
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["engine error: closure map left the closed family"]

    # any other exception is an engine error too, not the exit 1 of a
    # failed verdict
    def lookup(args):
        return {}["stars"]

    monkeypatch.setitem(cli.COMMANDS, ("sgp", "info"), lookup)
    code, out, err = run_cli(capsys, "sgp", "info", "--gens", "4,5,7")
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["engine error: KeyError: 'stars'"]

    # the kunz commands run from the same table
    monkeypatch.setitem(cli.COMMANDS, ("kunz", "lemmas"), broken)
    code, out, err = run_cli(capsys, "kunz", "lemmas", "--gens", "4,5,7", "--q", "2")
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["engine error: closure map left the closed family"]


def test_deadline_skips_the_certificate():
    # a deadline ends the run: the family member's certificate is not
    # computed after it, unlike under a --max-ideals cap
    proc, seconds = run_subprocess(
        "kunz", "counterexample", "--gens", "6,7,8,9,11", "--q", "3", "--timeout-s", "2",
        "--jobs", "1",
    )
    assert proc.returncode == 3, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdicts"] == {"counterexample": "skipped(budget)"}
    assert payload["results"]["certified_lower_bound"] is None
    assert seconds < 6


@pytest.mark.parametrize(
    "argv",
    [
        ("kunz", "lemmas", "--gens", "4,5,7", "--q", "2", "--max-orbits", "1"),
        ("kunz", "lower-bound", "--n", "4", "--q", "2", "--max-orbits", "1"),
        ("ring", "enum-ideals", "--gens", "4,5,7", "--q", "2", "--max-orbits", "1"),
        ("sgp", "info", "--gens", "4,5,7", "--max-ideals", "1"),
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_unhonoured_cap_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_honoured_cap_is_accepted(capsys):
    code, out, err = run_cli(
        capsys, "ring", "enum-stars", "--gens", "4,5,7", "--q", "2", "--max-orbits", "1"
    )
    assert code == 3
    assert "orbits exceed the cap 1" in err


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "enum-stars", "--gens", "3,4,5", "--q", "2", "--out", "csv"
    )
    assert code == 0
    assert "results.star_count,3" in out
    assert out.startswith("key,value")
    assert "\r\n" in out


def test_md_output(capsys):
    code, out, _ = run_cli(
        capsys, "kunz", "subspace-orbits", "--n", "4", "--q", "2", "--out", "md"
    )
    assert code == 0
    assert out.startswith("| key | value |")
    assert "| results.class_count | 4 |" in out


def test_jobs_do_not_change_bytes(capsys):
    for argv in (
        ("kunz", "counterexample", "--gens", "4,5,7", "--q", "2"),
        ("kunz", "formula-check", "--q", "2"),
    ):
        outputs = set()
        for jobs in ("1", "2", "4"):
            code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


def test_cache_roundtrip(tmp_path, capsys):
    args = ["ring", "enum-stars", "--gens", "3,5,7", "--q", "2",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert list(tmp_path.iterdir())
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out1 == out2
    # and identical to the uncached run
    code3, out3, _ = run_cli(capsys, "ring", "enum-stars", "--gens", "3,5,7", "--q", "2")
    assert out3 == out1


def test_field_poly_flag(capsys):
    # two different irreducible moduli for F_9 give isomorphic fields, so
    # the star count must agree with the default choice
    code, out, _ = run_cli(
        capsys,
        "ring", "enum-stars", "--gens", "3,4,5", "--q", "9",
        "--field-poly", "2,1,1",
    )
    assert code == 0
    count_custom = json.loads(out)["results"]["star_count"]
    code, out, _ = run_cli(capsys, "ring", "enum-stars", "--gens", "3,4,5", "--q", "9")
    assert code == 0
    assert count_custom == json.loads(out)["results"]["star_count"] == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (("ring", "enum-stars", "--gens", "4,5,7", "--q", "3", "--field-poly", "1,1,1"),
         "modulus"),
        (("kunz", "subspace-orbits", "--n", "4", "--q", "2", "--field-poly", "1,1"), "modulus"),
        (("kunz", "lemmas", "--gens", "3,4,5", "--q", "2", "--field-poly", "1,1"),
         "a modulus needs"),
        (("kunz", "counterexample", "--gens", "3,4,5", "--q", "2", "--field-poly", "1,1"),
         "a modulus needs"),
        (("ring", "enum-stars", "--gens", "4,5,7", "--q", "9", "--field-poly", "x,1,1"),
         "--field-poly"),
    ],
    ids=["prime-q-stars", "prime-q-lab", "prime-q-lemmas-gate", "prime-q-counterexample-gate",
         "non-integer"],
)
def test_bad_field_poly_exit_2(capsys, argv, message):
    # a modulus given with a prime q is bad input, not silently dropped, even
    # where the ring fails the hypothesis gate, and a non-integer coefficient
    # is refused when the flag is parsed
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_timings_flag_populates(capsys):
    code, out, _ = run_cli(
        capsys, "sgp", "info", "--gens", "4,5,7", "--timings"
    )
    assert code == 0
    assert "total" in json.loads(out)["timings_ms"]


def test_cache_store_is_atomic(tmp_path, monkeypatch):
    def dump_then_crash(obj, fh):
        fh.write('{"engine": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.json, "dump", dump_then_crash)
    with pytest.raises(KeyboardInterrupt):
        cli._cache_store(str(tmp_path), "k", {}, {}, {})
    assert not (tmp_path / "k.json").exists()
    assert list(tmp_path.iterdir()) == []
