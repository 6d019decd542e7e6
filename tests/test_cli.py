"""CLI runs: artifacts, manifests, round-trips, exit codes, determinism."""

import argparse
import ast
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fibstat import cli, stats
from fibstat.arith import SizeRefused
from fibstat.cli import RunConfig, main, read_report
from fibstat.families import SigmaTable, conic_sigma_formula
from fibstat.projective import count_points
from fibstat.stats import RecordSet, TauHistogram


def run_cli(tmp_path, *args):
    out = tmp_path / "run"
    return main([*args, "--output", str(out)]), out


# ---------------------------------------------------------------------------
# ad-hoc commands


def test_hilbert_conic_example(tmp_path, capsys):
    code, out = run_cli(tmp_path, "hilbert", "--conic", "1", "1", "21", "--place", "3")
    assert code == 0
    assert "insoluble" in capsys.readouterr().out
    rows = read_report(str(out) + ".hilbert.csv")
    assert rows == [{"query": "conic", "args": "1 1 21 @ 3", "result": "insoluble"}]


def test_hilbert_symbol_at_infinity(tmp_path, capsys):
    code, out = run_cli(tmp_path, "hilbert", "--symbol", "-1", "-1", "--place", "inf")
    assert code == 0
    assert "-1" in capsys.readouterr().out
    rows = read_report(str(out) + ".hilbert.csv")
    assert rows[0]["result"] == "-1"


def test_hilbert_rejects_a_place_past_the_primality_bound(tmp_path, capsys):
    # 1287836182261 * 2575672364521 passes Miller-Rabin on every base up to 37
    place = "3317044064679887385961981"
    code, _ = run_cli(tmp_path, "hilbert", "--symbol", "1", "1", "--place", place)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config"


def test_hilbert_needs_exactly_one_query(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "hilbert", "--place", "3")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2 and err["error"]["kind"] == "config"


def test_delta_bundled_examples(tmp_path):
    code, out = run_cli(tmp_path, "delta")
    assert code == 0
    report = read_report(str(out) + ".delta.csv")
    assert sorted(report["deltas"].values()) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
    ]
    assert report["Delta"] == Fraction(3, 2)


def test_delta_conic_action_total(tmp_path):
    from fibstat.grouptheory import bundled_document

    doc = tmp_path / "conic_action.txt"
    doc.write_text(bundled_document("conic_action.txt"))
    code, out = run_cli(tmp_path, "delta", "--input", str(doc))
    assert code == 0
    report = read_report(str(out) + ".delta.csv")
    assert report["Delta"] == Fraction(3, 2)
    assert all(d == Fraction(1, 2) for d in report["deltas"].values())


def test_delta_missing_file_is_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "delta", "--input", str(tmp_path / "nope.txt"))
    assert code == 2


# ---------------------------------------------------------------------------
# enumerate and sigma


def test_enumerate_verified_count(tmp_path):
    code, out = run_cli(tmp_path, "enumerate", "--B", "20")
    assert code == 0
    report = read_report(str(out) + ".enumerate.csv")
    assert report == {"n": 2, "B": 20, "count": count_points(2, 20), "verified": True}


def test_sigma_round_trip(tmp_path):
    code, out = run_cli(tmp_path, "sigma", "--B", "300")
    assert code == 0
    table = read_report(str(out) + ".sigma.csv")
    assert isinstance(table, SigmaTable)
    assert 2 not in table.entries
    for p in (3, 5, 293):
        assert table.entries[p] == conic_sigma_formula(p)
    assert len(table.partial_sums) == 24
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert abs(manifest["results"]["beta"] - table.beta_fit) < 1e-12


def test_sigma_needs_enough_primes(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sigma", "--B", "20")
    assert code == 2


# ---------------------------------------------------------------------------
# ekac


def test_ekac_artifact_shape(tmp_path):
    code, out = run_cli(
        tmp_path, "ekac", "--B", "1000", "--sample-size", "1500",
        "--seed", "5", "--r-max", "3",
    )
    assert code == 0
    report = read_report(str(out) + ".ekac.csv")
    assert [m.r for m in report["moments"]] == [0, 1, 2, 3]
    assert report["moments"][0].value == 1.0
    assert 0 < report["ks"] < 1
    hist = report["histogram"]
    assert len(hist["counts"]) == 41
    assert hist["left"][0] == -5.0 and hist["right"][-1] == 5.0
    # every usable standardized value lands in some bin at these sizes
    assert sum(hist["counts"]) == 1500


def test_ekac_thread_count_invariance(tmp_path, monkeypatch):
    outs, hashes = [], []
    for threads, name in ((1, "a"), (4, "b")):
        # same relative --output in two directories: only --threads differs
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main([
            "ekac", "--B", "500", "--sample-size", "800", "--seed", "11",
            "--threads", str(threads), "--output", "run",
        ])
        assert code == 0
        outs.append((tmp_path / name / "run.ekac.csv").read_bytes())
        manifest = json.loads((tmp_path / name / "run.manifest.json").read_text())
        hashes.append(manifest["config_sha256"])
    assert outs[0] == outs[1]
    # the thread count changes no output, so it is not part of the config hash
    assert hashes[0] == hashes[1]


def test_ekac_repeat_runs_byte_identical(tmp_path):
    bodies = []
    for name in ("r1", "r2"):
        main(["ekac", "--B", "500", "--sample-size", "600", "--seed", "7",
              "--output", str(tmp_path / name)])
        bodies.append((tmp_path / f"{name}.ekac.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_ekac_rejects_degenerate_family(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "ekac", "--family", "diagonal_cubics", "--B", "40")
    assert code == 2
    assert "tau" in json.loads(capsys.readouterr().err)["error"]["detail"]


def test_ekac_json_format(tmp_path):
    code, out = run_cli(
        tmp_path, "ekac", "--B", "500", "--sample-size", "400", "--format", "json"
    )
    assert code == 0
    doc = json.loads((tmp_path / "run.ekac.json").read_text())
    assert doc["version"] == "fibstat v1"
    assert doc["command"] == "ekac"
    assert doc["columns"][0] == "row"
    # fixed key order: the document re-serializes identically under sort_keys
    raw = (tmp_path / "run.ekac.json").read_text()
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# tau


def test_tau_conics_no_prediction(tmp_path):
    code, out = run_cli(tmp_path, "tau", "--B", "10")
    assert code == 0
    report = read_report(str(out) + ".tau.csv")
    assert report["predictions"] == []
    hist = report["histogram"]
    assert hist.point_count == count_points(2, 10)
    # reconstruction re-validates the partition identity in the constructor
    assert sum(hist.counts.values()) + hist.tainted_count + hist.singular_count == hist.point_count


def test_tau_cubics_with_prediction(tmp_path):
    code, out = run_cli(
        tmp_path, "tau", "--family", "diagonal-cubics", "--B", "6",
        "--prime-cutoff", "13", "--sample-size", "400", "--seed", "2",
    )
    assert code == 0
    report = read_report(str(out) + ".tau.csv")
    assert [p.j for p in report["predictions"]] == [0, 1, 2, 3]
    total = sum(p.value for p in report["predictions"])
    assert 0.9 < total <= 1.0 + 1e-9
    assert report["histogram"].tainted_count == 0


def test_tau_taint_ceiling_exit(tmp_path, monkeypatch, capsys):
    def fake_scan_tally(family, B, S=(), threads=1):
        n = 1000
        tainted = 5  # 0.5% tainted, above the 0.1% ceiling
        return TauHistogram(B, {0: n - tainted}, tainted, 0, n)

    monkeypatch.setattr(cli, "scan_tally", fake_scan_tally)
    code, _ = run_cli(tmp_path, "tau", "--B", "10")
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "taint"


@pytest.mark.parametrize("argv", [
    ("--family", "diagonal-cubics", "--B", "20", "--prime-cutoff", "13", "--sample-size", "400"),
    ("--B", "30", "--S", ""),
])
def test_tau_thread_count_invariance(tmp_path, monkeypatch, argv):
    reports = []
    for threads in (1, 2, 4):
        # same relative --output in each directory: only --threads differs
        (tmp_path / str(threads)).mkdir()
        monkeypatch.chdir(tmp_path / str(threads))
        assert main(["tau", *argv, "--threads", str(threads), "--output", "run"]) == 0
        reports.append((tmp_path / str(threads) / "run.tau.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_tau_refuses_a_scan_above_physical_memory(tmp_path, capsys):
    # one tail grid at B = 2000 has 4001^3 = 6.4e10 cells, each a byte or
    # more in every grid the walk holds
    code, _ = run_cli(tmp_path, "tau", "--family", "diagonal-cubics", "--B", "2000")
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "physical memory" in err["detail"]


@pytest.mark.parametrize("argv", [
    ("ekac", "--sample-size", "10000000000000"),
    ("tau", "--family", "diagonal-cubics", "--B", "4", "--sample-size", "10000000000000"),
])
def test_samples_above_physical_memory_are_config_errors(tmp_path, capsys, argv):
    # 10^13 rows or disks: refused before anything is drawn
    code, _ = run_cli(tmp_path, *argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "physical memory" in err["detail"]


@pytest.mark.parametrize("argv", [
    ("tau", "--family", "diagonal-cubics", "--B", "4", "--prime-cutoff", "1"),
    ("tau", "--B", "4", "--prime-cutoff", "0"),
    ("baseline", "--B", "101"),
])
def test_statistical_config_errors_exit_2(tmp_path, capsys, argv):
    code, _ = run_cli(tmp_path, *argv)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_enumerate_invariant_violation_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "count_points", lambda n, B: 1)
    code, _ = run_cli(tmp_path, "enumerate", "--B", "5")
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invariant"


# ---------------------------------------------------------------------------
# baseline


def test_baseline_small_run(tmp_path):
    code, out = run_cli(tmp_path, "baseline", "--B", "20000", "--r-max", "2")
    assert code == 0
    report = read_report(str(out) + ".baseline.csv")
    assert len(report["moments"]) == 3
    assert set(report["ks"]) == {1000, 2000, 20000}
    for v in report["ks"].values():
        assert 0 < v < 1


def test_baseline_smallest_bound(tmp_path):
    # 100 integers 3..102: the fewest the KS distance accepts
    code, out = run_cli(tmp_path, "baseline", "--B", "102")
    assert code == 0
    assert set(read_report(str(out) + ".baseline.csv")["ks"]) == {102}


def test_baseline_report_bytes_are_pinned(tmp_path):
    # every moment and KS row keeps its float bits when the reductions share
    # the usable rows, centre and scale of one record set
    code, out = run_cli(tmp_path, "baseline", "--B", "100000")
    assert code == 0
    blob = (tmp_path / "run.baseline.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "f81715e8dc6025daa7fb74a998b1289294010573ab3477f457bc6dbd0164f62e"
    )


_TAU_CUBICS_12 = (
    "--family", "diagonal-cubics", "--B", "12", "--prime-cutoff", "13", "--sample-size", "400",
    "--seed", "2",
)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, digest", [
    (("--B", "30", "--S", ""), "766e28685259b73aa275ddca77a43997bc2be3a5cbddb666b2f8f01dbde29943"),
    (_TAU_CUBICS_12, "f47eacf6b1baad56a6c90cf7ff89eca83381227369e62cc0774ee5555c9d3edf"),
])
def test_tau_report_bytes_are_pinned(tmp_path, argv, digest, threads):
    # the count and mass rows, the meta line and the prediction floats keep
    # their bytes at every thread count
    code, out = run_cli(tmp_path, "tau", *argv, "--threads", threads)
    assert code == 0
    assert hashlib.sha256((tmp_path / "run.tau.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("row, edited, match", [
    ("tau,1,4992,312,11107", "tau,1,4992,313,11107", "masses must be counts over the point count"),
    ("tau,1,4992,312,11107", "tau,1,4991,312,11107", "partition identity violated"),
])
def test_tau_reader_refuses_edited_rows(tmp_path, row, edited, match):
    code, out = run_cli(tmp_path, "tau", *_TAU_CUBICS_12)
    assert code == 0
    text = (tmp_path / "run.tau.csv").read_text()
    assert text.count(row) == 1
    copy = tmp_path / "edited.tau.csv"
    copy.write_text(text.replace(row, edited))
    with pytest.raises(ValueError, match=match):
        read_report(str(copy))


def test_baseline_refuses_columns_above_physical_memory(tmp_path, capsys):
    # 10^13 integers: refused before any column is allocated
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "baseline", "--B", "10000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**7
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "physical memory" in err["detail"]


def test_baseline_traced_peak_stays_under_budget(tmp_path, monkeypatch):
    # 10^6 integers: int8 omegas, int64 heights and one float column at a
    # time, with the sieve and the sigma prefix table built inside the run
    monkeypatch.setattr(stats, "_SIGMA_PREFIX", {})
    stats.primes_up_to.cache_clear()
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "baseline", "--B", str(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 26 * 10**6


def test_moebius_sieve_above_physical_memory_is_refused(tmp_path, capsys):
    # the closed-form count sieves mu up to 10^13: refused before it is allocated
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, "enumerate", "--B", "10000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**7
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "physical memory" in err["detail"]


@pytest.mark.parametrize("args", [("ekac", "--sample-size", "200"), ("sigma",)])
def test_prime_sieve_above_physical_memory_is_refused(tmp_path, capsys, args):
    # the empirical centre and the sigma entries sieve the primes up to
    # 10^13: refused before the sieve is allocated
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, *args, "--B", "10000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**7
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "physical memory" in err["detail"]


@pytest.mark.parametrize("args", [
    ("--B", "4", "--sample-size", "100"),  # rows of height below 3 are dropped
    ("--B", "100", "--sample-size", "50"),
    ("--B", "3", "--sample-size", "1", "--seed", "7"),  # its one row has height 2
])
def test_ekac_refuses_fewer_than_100_usable_rows(tmp_path, capsys, args):
    code, _ = run_cli(tmp_path, "ekac", *args)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


# ---------------------------------------------------------------------------
# size refusals: exit 2 for a refused size, exit 4 for any other fault


def test_size_refused_is_a_value_error():
    assert issubclass(SizeRefused, ValueError)


_RUNNER_CALLS = [
    ("sample_records", ("ekac", "--B", "300", "--sample-size", "200")),
    ("scan_tally", ("tau", "--B", "10")),
]


@pytest.mark.parametrize("name, argv", _RUNNER_CALLS, ids=[n for n, _ in _RUNNER_CALLS])
def test_a_runners_plain_value_error_is_internal(tmp_path, monkeypatch, capsys, name, argv):
    def broken(*args, **kwargs):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(cli, name, broken)
    code, _ = run_cli(tmp_path, *argv)
    assert code == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "internal" and "a fault inside the library" in err["detail"]


@pytest.mark.parametrize("name, argv", _RUNNER_CALLS, ids=[n for n, _ in _RUNNER_CALLS])
def test_a_runners_size_refusal_is_a_config_error(tmp_path, monkeypatch, capsys, name, argv):
    def refused(*args, **kwargs):
        raise SizeRefused("the test arrays need 1000000.0 GB, above physical memory")

    monkeypatch.setattr(cli, name, refused)
    code, _ = run_cli(tmp_path, *argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert err["detail"] == "the test arrays need 1000000.0 GB, above physical memory"
    assert list(tmp_path.iterdir()) == []


def test_ekac_refuses_a_height_bound_past_int64(tmp_path, capsys):
    # coordinates are drawn as int64, so B = 2^63 is refused before any draw
    code, _ = run_cli(tmp_path, "ekac", "--B", str(2**63), "--centering", "paper")
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "int64" in err["detail"]


@pytest.mark.parametrize(
    "query", [("--conic", "0", "1", "1", "--place", "3"), ("--symbol", "0", "2", "--place", "inf")]
)
def test_hilbert_with_a_zero_entry_is_a_config_error(tmp_path, capsys, query):
    code, _ = run_cli(tmp_path, "hilbert", *query)
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"
    assert list(tmp_path.iterdir()) == []


def _count_sigma_empirical(monkeypatch):
    calls = []
    real = stats.sigma_empirical

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(stats, "sigma_empirical", spy)
    return calls


def test_density_table_refuses_an_oversized_modulus_before_any_draw(monkeypatch):
    # 46349 is the least prime with p^4 >= 2^62; every smaller prime's
    # disks would be sampled first if the check waited for it
    calls = _count_sigma_empirical(monkeypatch)
    with pytest.raises(SizeRefused, match="46349"):
        stats.cubic_density_table(46349, 10)
    assert calls == []


def test_tau_refuses_an_oversized_density_table_before_any_draw(tmp_path, monkeypatch, capsys):
    calls = _count_sigma_empirical(monkeypatch)
    code, _ = run_cli(
        tmp_path, "tau", "--family", "diagonal-cubics", "--B", "4", "--prime-cutoff", "46349"
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config" and "46349^4" in err["detail"]
    assert calls == []


# ---------------------------------------------------------------------------
# config validation and manifests


def test_unknown_family_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "ekac", "--family", "nonagonal_quintics")
    assert code == 2


def test_r_max_cap(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "ekac", "--r-max", "13")
    assert code == 2
    assert "r_max" in json.loads(capsys.readouterr().err)["error"]["detail"]


def test_bad_place_list(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "ekac", "--S", "2,potato")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("ekac", "--S", "4"),
    ("ekac", "--S", "-3"),
    ("tau", "--S", "4"),
    ("hilbert", "--conic", "1", "1", "21", "--place", "4"),
], ids=lambda a: "_".join(a))
def test_non_prime_place_is_config_error(tmp_path, capsys, argv):
    code, _ = run_cli(tmp_path, *argv)
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert list(tmp_path.iterdir()) == []


def test_run_config_rejects_a_non_prime_place(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.run(RunConfig("ekac", S=(4,), output=str(tmp_path / "x")))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, places", [("inf,3", ["inf", "3"]), ("", [])])
def test_prime_and_infinite_places_run(tmp_path, spec, places):
    code, _ = run_cli(tmp_path, "ekac", "--S", spec, "--B", "300", "--sample-size", "200")
    assert code == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["config"]["S"] == places


def test_manifest_contents(tmp_path):
    code, out = run_cli(tmp_path, "ekac", "--B", "300", "--sample-size", "200", "--seed", "9")
    assert code == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["version"] == "fibstat v1"
    assert manifest["seed"] == 9
    assert manifest["rng"] == "numpy PCG64 (default_rng)"
    assert len(manifest["config_sha256"]) == 64
    cfg = RunConfig(**{**manifest["config"],
                       "S": tuple(cli._parse_place(t) for t in manifest["config"]["S"])})
    assert cfg.content_hash() == manifest["config_sha256"]
    raw = (tmp_path / "run.manifest.json").read_text()
    assert raw == json.dumps(manifest, sort_keys=True, indent=2) + "\n"


# the flags each command reads; every command also takes --output and --format
COMMAND_FLAGS = {
    "enumerate": {"--family", "--B"},
    "sigma": {"--family", "--B"},
    "ekac": {"--family", "--B", "--S", "--r-max", "--threads", "--seed", "--sample-size",
             "--centering"},
    "tau": {"--family", "--B", "--S", "--threads", "--seed", "--sample-size", "--prime-cutoff"},
    "delta": {"--input"},
    "hilbert": {"--conic", "--symbol", "--place"},
    "baseline": {"--B", "--r-max", "--centering"},
}


def test_each_command_takes_only_the_flags_it_reads():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMAND_FLAGS) == set(cli.COMMANDS)
    for name, flags in COMMAND_FLAGS.items():
        got = {opt for a in sub.choices[name]._actions for opt in a.option_strings}
        assert got == flags | {"--output", "--format", "-h", "--help"}, name


@pytest.mark.parametrize("argv", [
    ("baseline", "--family", "diagonal_cubics"),
    ("tau", "--centering", "paper"),
    ("sigma", "--seed", "9"),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_no_partial_outputs_on_failure(tmp_path):
    code, _ = run_cli(tmp_path, "sigma", "--B", "20")  # rejected: too few primes
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_no_temp_files_left_behind(tmp_path):
    code, _ = run_cli(tmp_path, "delta")
    assert code == 0
    assert not [p for p in tmp_path.iterdir() if ".tmp-" in p.name]


def test_environment_thread_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FIBSTAT_THREADS", "4")
    parser = cli._build_parser()
    ns = parser.parse_args(["ekac"])
    assert ns.threads == 4
    assert parser.parse_args(["tau"]).threads == 4


def test_malformed_thread_environment_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIBSTAT_THREADS", "abc")
    code = main(["ekac", "--B", "50", "--sample-size", "10", "--output", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert "FIBSTAT_THREADS" in err["detail"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("delta",), ("baseline", "--B", "200")])
def test_thread_environment_is_read_only_by_ekac(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("FIBSTAT_THREADS", "abc")
    code, _ = run_cli(tmp_path, *argv)
    assert code == 0


def _run_child(*argv):
    # a child interpreter importing the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(tmp_path):
    proc = _run_child(
        "-m", "fibstat", "hilbert", "--conic", "1", "1", "21",
        "--place", "3", "--output", str(tmp_path / "m"),
    )
    assert proc.returncode == 0
    assert "insoluble" in proc.stdout


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone takes most of an interpreter's set-up time
    proc = _run_child("-c", "import sys, fibstat.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_leave_scipy_out(tmp_path):
    # ks_distance takes Phi from its own port of cephes ndtr, so no command
    # on the run path imports any of scipy
    runs = [
        ["baseline", "--B", "20000"],
        ["ekac", "--B", "1000", "--sample-size", "500", "--seed", "1"],
        ["tau", "--family", "diagonal-cubics", "--B", "6", "--prime-cutoff", "13",
         "--sample-size", "400", "--seed", "2"],
    ]
    out = str(tmp_path / "r")
    script = (
        "import sys\n"
        "from fibstat.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main([*argv, '--output', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_projective_import_leaves_scipy_out():
    # only cn reads scipy (for zeta), and imports it when called
    proc = _run_child("-c", "import sys, fibstat.projective; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_stats_leaves_family_lookup_to_cli():
    # record sets carry their family, so only the command line resolves names
    tree = ast.parse(inspect.getsource(stats))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "family_by_name" not in names
    assert "family_name" not in {f.name for f in dataclasses.fields(RecordSet)}
