"""fibstat benchmark: real CLI runs, each in a fresh process, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fibstat checkout; the package is imported from src/.
A workload is a closed loop: one `fibstat` CLI process at a time, started
from this process, while one more of typical length still fits in
--seconds.  Every report is checked (see the workload table) and an invocation that exits
non-zero or fails a check counts in ops_failed.

--trace 0 measures the end-to-end metrics with tracing off and reports the
median over the invocations of the set.  --trace 1 makes one untraced run,
one run traced by layertrace (plus a 1-thread traced run of ekac-conics, for
thread scaling and byte-identity), and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json at the checkout root; the
why of each workload is in perfbench/WORKLOADS.md.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_PROBES = 2  # import-only children at the start of a set: set-up samples and cache warm-up
OP_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]  # seed -> fibstat arguments, without --output
    report_suffix: str
    records: Callable[[dict], int]  # report header -> records in the report
    check: Callable[[str], list]  # report path -> failed checks
    threads: Optional[int] = None
    seeded: bool = True  # False: the report is the same for every seed
    reference_sha256: str = ""  # the report's digest at DEFAULT_SEED


def _tau_checks(path: str, n: int) -> tuple[list, dict]:
    from fibstat.cli import read_report
    from fibstat.projective import count_points

    rep = read_report(path)
    h = rep["histogram"]
    failures = []
    expected = count_points(n, h.B)
    if h.point_count != expected:
        failures.append(f"point_count {h.point_count} != count_points({n}, {h.B}) = {expected}")
    if sum(h.counts.values()) + h.tainted_count + h.singular_count != h.point_count:
        failures.append("counts + tainted + singular != point_count")
    return failures, rep


def _check_parity(path):
    failures, rep = _tau_checks(path, n=2)
    odd = sorted(j for j, c in rep["histogram"].counts.items() if c and j % 2)
    if odd:
        failures.append(f"mass at odd j {odd} with S empty")
    return failures


def _check_cubics(path):
    failures, rep = _tau_checks(path, n=3)
    js = [p.j for p in rep["predictions"]]
    if js != [0, 1, 2, 3]:
        failures.append(f"prediction rows for j = {js}, expected 0..3")
    return failures


def _check_moments(rep) -> list:
    m = rep["moments"]
    if not m or m[0].r != 0 or m[0].value != 1.0:
        return ["moment r = 0 is not 1.0"]
    return []


def _check_ekac(path):
    from fibstat.cli import read_report

    rep = read_report(path)
    failures = _check_moments(rep)
    if [m.r for m in rep["moments"]] != [0, 1, 2, 3, 4]:
        failures.append("moment rows are not r = 0..4")
    if not 0 < rep["ks"] < 1:
        failures.append(f"KS distance {rep['ks']} outside (0, 1)")
    return failures


def _check_baseline(path):
    from fibstat.cli import read_report

    rep = read_report(path)
    failures = _check_moments(rep)
    if len(rep["ks"]) != 3:
        failures.append(f"KS rows at {sorted(rep['ks'])}, expected 3 stages")
    return failures


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "ekac-conics",
            lambda seed: ["ekac", "--B", "100000", "--sample-size", "20000", "--seed", str(seed)],
            "ekac.csv",
            lambda meta: int(meta["sample_size"]),
            _check_ekac,
            threads=2,
            reference_sha256="42b5a767c8a893f07887e0877879ea7a59cb971c070cd4ec3b3693ddb93332a1",
        ),
        Workload(
            "parity-conics",
            lambda seed: ["tau", "--family", "diagonal-conics", "--B", "100", "--S", ""],
            "tau.csv",
            lambda meta: int(meta["point_count"]),
            _check_parity,
            seeded=False,
            reference_sha256="78415df27b5cd151b522cc809404beca102b78976c9b3463f1ff938c620e4760",
        ),
        Workload(
            "tau-cubics",
            lambda seed: [
                "tau", "--family", "diagonal-cubics", "--B", "20", "--prime-cutoff", "30",
                "--sample-size", "20000", "--seed", str(seed),
            ],
            "tau.csv",
            lambda meta: int(meta["point_count"]),
            _check_cubics,
            reference_sha256="b133c8cc9acca12889e37037381538f44e39f492cfd881f301823d66451a8b97",
        ),
        Workload(
            "baseline-omega",
            lambda seed: ["baseline", "--B", "4000000"],
            "baseline.csv",
            lambda meta: int(meta["B"]) - 2,  # omega(m) for 3 <= m <= B
            _check_baseline,
            seeded=False,
            reference_sha256="2ab6783798241ea0c12be2e2b0080d39d73a5c00f4798d30cb4cf6c44ea3e2a7",
        ),
    ]
}


# ---------------------------------------------------------------------------
# one CLI process


@dataclass
class Op:
    setup_s: float = 0.0
    wall_s: float = 0.0
    elapsed_s: float = 0.0  # spawn to reap, as seen from this process
    peak_rss_mb: float = 0.0
    records: int = 0
    undecided_fraction: float = 0.0
    tau_pred_se: Optional[float] = None
    report_bytes: int = 0
    digest: str = ""
    trace: Optional[dict] = None
    failures: list = field(default_factory=list)
    timed: bool = False  # the child got as far as writing its timing


def _report_header(path: str) -> dict:
    """The `# key=value` lines at the top of a fibstat CSV report."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    return meta


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FIBSTAT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(work: Path, tag: str, argv: list, trace: bool = False) -> Op:
    """Run one child; with empty argv it only imports fibstat.cli."""
    timing_path, trace_path = work / f"{tag}.timing.json", work / f"{tag}.trace.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing_path),
           str(trace_path) if trace else "-", *argv]
    op = Op()
    spawned = time.monotonic()
    try:
        with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
                                  cwd=work, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        op.failures.append(f"{tag}: no exit within {OP_TIMEOUT_S} s")
        return op
    op.elapsed_s = time.monotonic() - spawned
    if proc.returncode != 0:
        op.failures.append(f"{tag}: exit code {proc.returncode}, see {work / (tag + '.log')}")
    if not timing_path.exists():
        return op
    timing = json.loads(timing_path.read_text())
    op.timed = True
    op.setup_s = timing["imported"] - spawned
    op.wall_s = timing["ended"] - timing["started"]
    op.peak_rss_mb = timing["maxrss_kb"] * 1024 / 1e6
    if trace:
        op.trace = json.loads(trace_path.read_text())
    return op


def run_cli(work: Path, tag: str, wl: Workload, seed: int, threads: Optional[int] = None,
            trace: bool = False) -> Op:
    out = work / tag
    threads = threads or wl.threads
    argv = wl.argv(seed) + (["--threads", str(threads)] if threads else []) + ["--output", str(out)]
    op = invoke(work, tag, argv, trace)
    if op.failures:
        return op
    report = f"{out}.{wl.report_suffix}"
    try:
        meta = _report_header(report)
        op.failures += [f"{tag}: {f}" for f in wl.check(report)]
        op.records = wl.records(meta)
        points = int(meta.get("point_count", op.records))
        op.undecided_fraction = int(meta.get("tainted_count", 0)) / points
        if wl.name == "tau-cubics":
            from fibstat.cli import read_report

            (pred,) = [p for p in read_report(report)["predictions"] if p.j == 1]
            op.tau_pred_se = pred.std_error
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        op.failures.append(f"{tag}: report unreadable: {type(exc).__name__}: {exc}")
        return op
    blob = Path(report).read_bytes()
    op.report_bytes = len(blob)
    op.digest = hashlib.sha256(blob).hexdigest()
    if (seed == DEFAULT_SEED or not wl.seeded) and op.digest != wl.reference_sha256:
        op.failures.append(f"{tag}: report sha256 {op.digest} != reference {wl.reference_sha256}")
    return op


# ---------------------------------------------------------------------------
# sets of runs


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(work: Path, wl: Workload, seed: int, seconds: float) -> tuple[list, dict]:
    """Closed loop of untraced runs while a typical one still fits the budget."""
    deadline = time.monotonic() + seconds
    probes = [invoke(work, f"probe{i}", []) for i in range(SETUP_PROBES)]
    ops = []  # probes only give set-up samples; ops are the counted CLI runs
    while True:
        ops.append(run_cli(work, f"op{len(ops)}", wl, seed))
        typical = statistics.median(op.elapsed_s for op in ops)
        if not ops[-1].timed or time.monotonic() + typical > deadline:
            break
    good = [op for op in ops if op.timed]  # a failed check still has its timings
    samples = {
        "setup_s": [op.setup_s for op in probes + ops if op.timed],
        "wall_s": [op.wall_s for op in good],
        "records_per_s": [op.records / op.wall_s for op in good],
        "peak_rss_mb": [op.peak_rss_mb for op in good],
        "decided_fraction": [1.0 - op.undecided_fraction for op in good],
        # printed for the record, not bounded (see WORKLOADS.md)
        "undecided_fraction": [op.undecided_fraction for op in good],
        "tau_pred_se": [op.tau_pred_se for op in good if op.tau_pred_se is not None],
    }
    for i, op in enumerate(good):
        print(f"op {i}: wall_s={op.wall_s:.4f} setup_s={op.setup_s:.4f} "
              f"peak_rss_mb={op.peak_rss_mb:.1f} records={op.records}")
    return ops, samples


def trace_set(work: Path, wl: Workload, seed: int) -> tuple[list, dict]:
    """One untraced and one traced run (two traced for ekac's thread scaling)."""
    import layertrace

    plain = run_cli(work, "plain", wl, seed)
    traced = run_cli(work, "traced", wl, seed, trace=True)
    ops = [plain, traced]
    if not traced.timed:
        return ops, {}
    values = layertrace.summarize(traced.trace)
    grid_calls = values.get("families.conic_insoluble_grid.calls", 0)
    samples = values.get("families.sigma_empirical.samples", 0)
    values.update({
        "families.conic_insoluble_grid.rows_per_call":
            values.get("families.conic_insoluble_grid.rows", 0) / grid_calls if grid_calls else 0.0,
        "families.sigma_empirical.unknown_fraction":
            values.get("families.sigma_empirical.unknown", 0) / samples if samples else 0.0,
        "cli.report_bytes": traced.report_bytes,
        "tracing_overhead_s": traced.wall_s - plain.wall_s,
        "tau_pred_se": traced.tau_pred_se or 0.0,
        "undecided_fraction": traced.undecided_fraction,
        "stats.sample_records.speedup_2t": 0.0,
    })
    if wl.threads == 2:
        single = run_cli(work, "traced1t", wl, seed, threads=1, trace=True)
        ops.append(single)
        if single.timed:
            one = layertrace.summarize(single.trace)["stats.sample_records.s"]
            values["stats.sample_records.speedup_2t"] = one / values["stats.sample_records.s"]
            if single.digest != traced.digest:
                single.failures.append("1-thread and 2-thread reports differ")
    print(f"traced wall_s={traced.wall_s:.4f} untraced wall_s={plain.wall_s:.4f}")
    return ops, values


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fibstat" / "cli.py").is_file():
        print(f"perfbench: no fibstat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    load_start = os.getloadavg()
    env = environment()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps({**env, "loadavg_start": load_start}, sort_keys=True))
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=RUNS_DIR))
    if args.trace:
        import layertrace

        ops, values = trace_set(work, wl, args.seed)
        wanted = spec["per_layer"]
        if values:  # a traced function the workload never calls reads 0
            for m in wanted:
                if m["name"].rsplit(".", 1)[0] in layertrace.TRACED:
                    values.setdefault(m["name"], 0)
    else:
        ops, samples = measure(work, wl, args.seed, args.seconds)
        values = {k: _quartiles(v)[1] for k, v in samples.items() if v}
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, v in samples.items():
            if v:
                q1, q2, q3 = _quartiles(v)
                print(f"{name:<20} {units[name]:<6} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"n={len(v)}")
    failed = [op for op in ops if op.failures]
    for op in failed:
        for f in op.failures:
            print(f"FAILED {f}")
    print("env " + json.dumps({"loadavg_end": os.getloadavg()}))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}; work files kept in {work}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']!r:>24} {m['unit']}")
    print(f"ops_total={len(ops)} ops_failed={len(failed)}")
    if not failed:
        shutil.rmtree(work)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
