"""Command-line front end producing reproducible runs with CSV/JSON artifacts.

Every run writes a report file plus a JSON manifest carrying the full
configuration, its content hash, and the RNG identity, so any artifact can be
regenerated from its manifest alone.  Reports go to `<output>.<command>.csv`
(or .json), the manifest to `<output>.manifest.json`; both are written to a
temporary file first and renamed into place, so partial outputs never land.

Exit codes: 0 success, 2 configuration error or refused size (SizeRefused),
3 tainted fraction above the ceiling, 4 internal invariant violation or other fault.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arith import SizeRefused, is_prime
from .families import FamilyDescriptor, family_by_name
from .grouptheory import bundled_document, delta, delta_total, parse_action_document
from .localsolve import INF, Place, conic_soluble, hilbert
from .projective import count_points, enumerate_points
from .stats import (
    CENTERINGS,
    MomentReport,
    TauHistogram,
    TauPrediction,
    classic_omega_set,
    cubic_density_table,
    ks_distance,
    moment_series,
    sample_records,
    scan_tally,
    sigma_entries,
    sigma_partial_sums,
    standardized_values,
    tau_histogram,
    tau_limit_prediction,
)
from .families import SigmaTable

__all__ = ["RunConfig", "main", "run", "read_report", "ConfigError"]

VERSION_TAG = "fibstat v1"
RNG_IDENTITY = "numpy PCG64 (default_rng)"
STATISTICAL = ("sigma", "ekac", "tau", "baseline")
TAINT_CEILING = 0.001
HIST_BINS = 41
HIST_RANGE = (-5.0, 5.0)


class ConfigError(Exception):
    """Rejected configuration; maps to exit code 2."""


class TaintCeilingExceeded(Exception):
    """Too many undecided records; maps to exit code 3."""


class InvariantViolation(Exception):
    """A structural identity failed at runtime; maps to exit code 4."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """One run's settings.  Each command takes as flags the fields _COMMANDS
    lists for it, plus output and format; a flag's default is its field's."""

    command: str
    family: str = "diagonal_conics"
    B: int = 1000
    S: tuple[Place, ...] = (INF,)
    r_max: int = 4
    threads: int = 1
    seed: int = 0
    output: str = "fibstat_run"
    format: str = "csv"
    sample_size: int = 60_000
    centering: str = "empirical"
    prime_cutoff: int = 100
    input: Optional[str] = None
    conic: Optional[tuple[int, int, int]] = None
    symbol: Optional[tuple[int, int]] = None
    place: Optional[Place] = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.command in STATISTICAL and self.B < 3:
            raise ConfigError(f"{self.command} needs B >= 3, got {self.B}")
        if not 0 <= self.r_max <= 12:
            raise ConfigError(f"r_max must be in 0..12, got {self.r_max}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be {' or '.join(FORMATS)}, got {self.format!r}")
        if self.sample_size < 1:
            raise ConfigError("sample size must be positive")
        if self.centering not in CENTERINGS:
            raise ConfigError(f"unknown centering {self.centering!r}")
        if self.command == "tau" and self.prime_cutoff < 2:
            raise ConfigError(f"prime cutoff must be at least 2, got {self.prime_cutoff}")
        # the KS distance needs 100 usable integers, and baseline starts at m = 3
        if self.command == "baseline" and self.B < 102:
            raise ConfigError(f"baseline needs B >= 102, got {self.B}")
        if "family" in _COMMANDS[self.command][1]:
            try:
                family_by_name(self.family)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"unknown family {self.family!r}") from exc
        for v in (*self.S, *([] if self.place is None else [self.place])):
            try:
                if v == INF or is_prime(v):
                    continue
            except ValueError:  # past is_prime's proven bound
                pass
            raise ConfigError(f"place {_render_place(v)} is not a prime or 'inf'")
        if self.command == "hilbert":
            if (self.conic is None) == (self.symbol is None):
                raise ConfigError("hilbert needs exactly one of --conic or --symbol")
            if self.place is None:
                raise ConfigError("hilbert needs --place")
            if 0 in (self.conic or self.symbol):
                raise ConfigError("hilbert needs nonzero entries")

    def as_dict(self) -> dict:
        """JSON-able canonical form: every field, places rendered as strings,
        and hilbert's query (conic, symbol, place) only where set."""
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name in _COMMANDS["hilbert"][1]:
                continue
            if f.name == "S":
                v = [_render_place(p) for p in v]
            elif f.name == "place":
                v = _render_place(v)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d

    def content_hash(self) -> str:
        # output does not depend on the thread count, so neither does the hash
        d = self.as_dict()
        del d["threads"]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _render_place(v: Place) -> str:
    return "inf" if v == INF else str(int(v))


def _parse_place(token: str) -> Place:
    t = token.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        return int(t)
    except ValueError:
        raise ConfigError(f"bad place {token!r} (a prime or 'inf')")


def _parse_places(spec: str) -> tuple[Place, ...]:
    if not spec.strip():
        return ()
    return tuple(_parse_place(t) for t in spec.split(","))


def _parse_threads(token: str) -> int:
    # parses --threads and its default, FIBSTAT_THREADS
    try:
        return int(token)
    except ValueError:
        raise ConfigError(
            f"threads (--threads or FIBSTAT_THREADS) must be an integer, got {token!r}"
        ) from None


# ---------------------------------------------------------------------------
# artifact writing

def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return "" if v is None else str(v)


def _csv_text(command: str, meta: dict, header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    buf.write(f"# {VERSION_TAG} {command}\n")
    for k in sorted(meta):
        buf.write(f"# {k}={meta[k]}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def _json_text(command: str, meta: dict, header: Sequence[str], rows) -> str:
    doc = {
        "version": VERSION_TAG,
        "command": command,
        "meta": {k: str(v) for k, v in meta.items()},
        "columns": list(header),
        "rows": [[_format_cell(v) for v in row] for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_WRITERS = {"csv": _csv_text, "json": _json_text}
FORMATS = tuple(_WRITERS)


# ---------------------------------------------------------------------------
# the bundled reader


def _read_lines(path: str):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(f"# {VERSION_TAG} "):
            raise ValueError(f"not a {VERSION_TAG} report: {path}")
        command = first[len(VERSION_TAG) + 3 :].strip()
        meta = {}
        pos = fh.tell()
        while True:
            line = fh.readline()
            if not line.startswith("#"):
                fh.seek(pos)
                break
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
            pos = fh.tell()
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return command, meta, header, rows


def read_report(path: str):
    """Parse a CSV artifact back into its originating report objects."""
    command, meta, header, rows = _read_lines(path)
    builder = _REBUILDERS.get(command)
    if builder is None:
        raise ValueError(f"no reader for command {command!r}")
    return builder(meta, header, rows)


def _rebuild_enumerate(meta, header, rows):
    (n, B, count, verified), = rows
    return {"n": int(n), "B": int(B), "count": int(count), "verified": verified == "True"}


def _rebuild_sigma(meta, header, rows):
    entries, partial = {}, {}
    for kind, key, num, den, value in rows:
        if kind == "entry":
            entries[int(key)] = Fraction(int(num), int(den))
        elif kind == "partial":
            partial[int(key)] = float(value)
    return SigmaTable(entries, partial, beta_fit=float(meta["beta"]))


def _rebuild_ekac(meta, header, rows):
    B = int(meta["B"])
    centering = meta["centering"]
    out = {"moments": [], "ks": None, "histogram": {"left": [], "right": [], "counts": []}}
    for kind, key, value, aux1, aux2 in rows:
        if kind == "moment":
            out["moments"].append(
                MomentReport(B, int(key), float(value), centering, float(aux1))
            )
        elif kind == "ks":
            out["ks"] = float(value)
        elif kind == "hist":
            out["histogram"]["counts"].append(int(value))
            out["histogram"]["left"].append(float(aux1))
            out["histogram"]["right"].append(float(aux2))
    return out


def _rebuild_tau(meta, header, rows):
    B = int(meta["B"])
    point_count = int(meta["point_count"])
    counts, masses, predictions = {}, {}, []
    for kind, j, a, b, c in rows:
        if kind == "tau":
            counts[int(j)] = int(a)
            masses[int(j)] = Fraction(int(b), int(c))
        elif kind == "prediction":
            predictions.append(
                TauPrediction(int(j), int(meta["prime_cutoff"]), float(a), float(b), float(c))
            )
    hist = TauHistogram(
        B, counts, int(meta["tainted_count"]), int(meta["singular_count"]), point_count
    )
    if masses != hist.masses:
        raise ValueError("masses must be counts over the point count")
    return {"histogram": hist, "predictions": predictions}


def _rebuild_delta(meta, header, rows):
    deltas, total = {}, None
    for kind, name, num, den in rows:
        if kind == "delta":
            deltas[name] = Fraction(int(num), int(den))
        elif kind == "Delta":
            total = Fraction(int(num), int(den))
    return {"deltas": deltas, "Delta": total}


def _rebuild_hilbert(meta, header, rows):
    return [{"query": q, "args": a, "result": r} for q, a, r in rows]


def _rebuild_baseline(meta, header, rows):
    B = int(meta["B"])
    centering = meta["centering"]
    out = {"moments": [], "ks": {}}
    for kind, key, value, aux1, aux2 in rows:
        if kind == "moment":
            out["moments"].append(
                MomentReport(B, int(key), float(value), centering, float(aux1))
            )
        elif kind == "ks":
            out["ks"][int(key)] = float(value)
    return out


_REBUILDERS = {
    "enumerate": _rebuild_enumerate,
    "sigma": _rebuild_sigma,
    "ekac": _rebuild_ekac,
    "tau": _rebuild_tau,
    "delta": _rebuild_delta,
    "hilbert": _rebuild_hilbert,
    "baseline": _rebuild_baseline,
}


# ---------------------------------------------------------------------------
# command runners; each returns (meta, header, rows, results, stdout_lines)


def _run_enumerate(cfg: RunConfig):
    fam = family_by_name(cfg.family)
    if cfg.B < 1:
        raise ConfigError("enumerate needs B >= 1")
    count = count_points(fam.n, cfg.B)
    verified = False
    if count <= 200_000:
        # cheap enough to cross-check the closed-form count against the stream
        streamed = sum(1 for _ in enumerate_points(fam.n, cfg.B))
        if streamed != count:
            raise InvariantViolation(
                f"count formula {count} != streamed {streamed} at n={fam.n}, B={cfg.B}"
            )
        verified = True
    meta = {"B": cfg.B, "family": fam.name, "n": fam.n}
    rows = [(fam.n, cfg.B, count, verified)]
    results = {"count": count, "verified": verified}
    return meta, ["n", "B", "count", "verified"], rows, results, [f"{count} points"]


def _run_sigma(cfg: RunConfig):
    fam = family_by_name(cfg.family)
    if fam.sigma_p is None:
        raise ConfigError(f"sigma needs a family with exact entries; {fam.name} has none")
    entries = sigma_entries(fam, cfg.B)
    if len(entries) < 25:
        raise ConfigError(f"sigma needs B large enough for at least 25 primes above {fam.A}")
    fit = sigma_partial_sums(entries, fam.Delta)
    meta = {"B": cfg.B, "beta": repr(fit.beta), "family": fam.name}
    rows = [
        ("entry", p, entries[p].numerator, entries[p].denominator, float(entries[p]))
        for p in sorted(entries)
    ]
    rows += [("partial", x, None, None, fit.partial_sums[x]) for x in sorted(fit.partial_sums)]
    results = {
        "beta": fit.beta,
        "slope": fit.slope,
        "envelope_constant": fit.envelope_constant,
        "primes": len(entries),
    }
    out = [f"beta = {fit.beta:.4f}, slope = {fit.slope:.4f} over {len(entries)} primes"]
    return meta, ["row", "key", "num", "den", "value"], rows, results, out


def _taint_check(tainted: int, total: int):
    if total and tainted / total > TAINT_CEILING:
        raise TaintCeilingExceeded(
            f"tainted fraction {tainted}/{total} exceeds ceiling {TAINT_CEILING}"
        )


def _moment_rows(rs, cfg, Delta):
    series = moment_series(rs, cfg.B, Delta, cfg.r_max, centering=cfg.centering)
    return [("moment", rep.r, rep.value, rep.mu_r_reference, None) for rep in series]


def _run_ekac(cfg: RunConfig):
    fam = family_by_name(cfg.family)
    if fam.Delta == 0:
        raise ConfigError("ekac needs Delta > 0 (tau covers the discrete law)")
    rs = sample_records(fam, cfg.B, cfg.sample_size, cfg.seed, S=cfg.S, threads=cfg.threads)
    _taint_check(rs.tainted_count, len(rs.omegas))
    z = standardized_values(rs, fam.Delta, centering=cfg.centering)
    if len(z) < 100:
        raise ConfigError(
            f"ekac needs at least 100 usable rows (untainted, height >= 3), got {len(z)}"
        )
    rows = _moment_rows(rs, cfg, fam.Delta)
    ks = ks_distance(z)
    rows.append(("ks", None, ks, None, None))
    counts, edges = np.histogram(z, bins=HIST_BINS, range=HIST_RANGE)
    for i, c in enumerate(counts):
        rows.append(("hist", i, int(c), edges[i], edges[i + 1]))
    meta = {
        "B": cfg.B,
        "centering": cfg.centering,
        "family": fam.name,
        "sample_size": cfg.sample_size,
        "seed": cfg.seed,
        "tainted_count": rs.tainted_count,
        "usable": int(len(z)),
    }
    results = {
        "ks": ks,
        "tainted_fraction": rs.tainted_count / max(len(rs.omegas), 1),
        "first_moment": rows[1][2] if cfg.r_max >= 1 else None,
    }
    out = [f"KS = {ks:.4f} over {len(z)} standardized values"]
    return meta, ["row", "key", "value", "aux1", "aux2"], rows, results, out


def _run_tau(cfg: RunConfig):
    fam = family_by_name(cfg.family)
    th = tau_histogram(scan_tally(fam, cfg.B, cfg.S, threads=cfg.threads))
    _taint_check(th.tainted_count, th.point_count)
    masses = th.masses
    rows = [
        ("tau", j, th.counts[j], masses[j].numerator, masses[j].denominator)
        for j in sorted(th.counts)
    ]
    meta = {
        "B": cfg.B,
        "family": fam.name,
        "point_count": th.point_count,
        "prime_cutoff": cfg.prime_cutoff,
        "singular_count": th.singular_count,
        "tainted_count": th.tainted_count,
    }
    results = {
        "point_count": th.point_count,
        "singular_count": th.singular_count,
        "tainted_count": th.tainted_count,
        "mass_sum": repr(float(sum(masses.values()))),
    }
    out = [
        f"tau({j}) = {th.counts[j]}/{th.point_count}" for j in sorted(th.counts)
    ]
    if fam.Delta == 0:
        table = cubic_density_table(cfg.prime_cutoff, cfg.sample_size, seed=cfg.seed)
        for j in range(4):
            pred = tau_limit_prediction(fam, j, cfg.prime_cutoff, table)
            rows.append(("prediction", j, pred.value, pred.std_error, pred.tail_bound))
        out.append(f"limit prediction appended for j = 0..3 (cutoff {cfg.prime_cutoff})")
    return meta, ["row", "j", "count_or_value", "num_or_se", "den_or_tail"], rows, results, out


def _run_delta(cfg: RunConfig):
    if cfg.input is None:
        text = bundled_document("delta_examples.txt")
        source = "bundled delta_examples.txt"
    else:
        try:
            with open(cfg.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read action document: {exc}")
        source = cfg.input
    try:
        actions = parse_action_document(text)
    except ValueError as exc:
        raise ConfigError(f"bad action document: {exc}")
    rows = []
    for name in actions:
        d = delta(actions[name])
        rows.append(("delta", name, d.numerator, d.denominator))
    total = delta_total(actions.values())
    rows.append(("Delta", "", total.numerator, total.denominator))
    meta = {"divisors": len(actions), "source": source}
    results = {"Delta": str(total), "deltas": {k: str(delta(v)) for k, v in actions.items()}}
    out = [f"delta({name}) = {delta(actions[name])}" for name in actions]
    out.append(f"Delta = {total}")
    return meta, ["row", "name", "num", "den"], rows, results, out


def _run_hilbert(cfg: RunConfig):
    place_str = _render_place(cfg.place)
    rows = []
    if cfg.symbol is not None:
        a, b = cfg.symbol
        val = hilbert(a, b, cfg.place)
        rows.append(("symbol", f"{a} {b} @ {place_str}", f"{val:+d}"))
        out = [f"({a}, {b})_{place_str} = {val:+d}"]
        results = {"symbol": val}
    else:
        a, b, c = cfg.conic
        soluble = conic_soluble(a, b, c, cfg.place)
        verdict = "soluble" if soluble else "insoluble"
        rows.append(("conic", f"{a} {b} {c} @ {place_str}", verdict))
        out = [f"{a} x^2 + {b} y^2 = {c} z^2 over Q_{place_str}: {verdict}"]
        results = {"soluble": soluble}
    return {"place": place_str}, ["query", "args", "result"], rows, results, out


def _run_baseline(cfg: RunConfig):
    rs = classic_omega_set(cfg.B)
    rows = _moment_rows(rs, cfg, 1)
    stages = sorted({min(cfg.B, max(1000, cfg.B // k)) for k in (100, 10, 1)})
    # classic_omega_set's heights are strictly increasing from 3 and no row
    # is tainted, so every row is usable and the rows of height <= limit
    # standardize to the prefix z[:k]
    z = standardized_values(rs, 1, centering=cfg.centering)
    ends = np.searchsorted(rs.heights, stages, "right").tolist()
    # the columns are done with: ks_distance's sorted copy takes their place
    del rs
    ks_at = {}
    for limit, k in zip(stages, ends):
        ks_at[limit] = ks_distance(z[:k])
        rows.append(("ks", limit, ks_at[limit], None, None))
    meta = {"B": cfg.B, "centering": cfg.centering, "family": "classic_omega"}
    results = {"ks": {str(k): v for k, v in ks_at.items()}}
    out = [f"KS at {k}: {v:.4f}" for k, v in ks_at.items()]
    return meta, ["row", "key", "value", "aux1", "aux2"], rows, results, out


# each command's runner and the RunConfig fields it takes as flags; every
# command also takes --output and --format
_COMMANDS = {
    "enumerate": (_run_enumerate, ("family", "B")),
    "sigma": (_run_sigma, ("family", "B")),
    "ekac": (
        _run_ekac,
        ("family", "B", "S", "r_max", "threads", "seed", "sample_size", "centering"),
    ),
    "tau": (_run_tau, ("family", "B", "S", "threads", "seed", "sample_size", "prime_cutoff")),
    "delta": (_run_delta, ("input",)),
    "hilbert": (_run_hilbert, ("conic", "symbol", "place")),
    "baseline": (_run_baseline, ("B", "r_max", "centering")),
}
COMMANDS = tuple(_COMMANDS)

# argparse keywords of each field's flag, --name with "_" spelled "-"; the
# defaults are RunConfig's
_FLAGS = {
    "family": {},
    "B": {"type": int, "help": "height bound / cutoff"},
    "S": {"type": _parse_places, "help": "excluded places, comma list ('' for none)"},
    "r_max": {"type": int},
    "threads": {"type": _parse_threads},
    "seed": {"type": int},
    "output": {},
    "format": {"choices": FORMATS},
    "sample_size": {"type": int},
    "centering": {"choices": CENTERINGS},
    "prime_cutoff": {"type": int},
    "input": {"help": "action document path"},
    "conic": {"type": int, "nargs": 3, "metavar": ("A", "B2", "C")},
    "symbol": {"type": int, "nargs": 2, "metavar": ("A", "B2")},
    "place": {"type": _parse_place, "help": "prime or 'inf'"},
}


# ---------------------------------------------------------------------------
# orchestration


def run(cfg: RunConfig) -> tuple[int, list[str]]:
    """Validate, execute, and write artifacts.  Returns (exit code, stdout)."""
    cfg.validate()
    t0 = time.monotonic()
    meta, header, rows, results, out = _COMMANDS[cfg.command][0](cfg)
    report_path = f"{cfg.output}.{cfg.command}.{cfg.format}"
    _atomic_write(report_path, _WRITERS[cfg.format](cfg.command, meta, header, rows))
    manifest = {
        "command": cfg.command,
        "config": cfg.as_dict(),
        "config_sha256": cfg.content_hash(),
        "report": os.path.basename(report_path),
        "results": results,
        "rng": RNG_IDENTITY,
        "seed": cfg.seed,
        "version": VERSION_TAG,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    _atomic_write(
        f"{cfg.output}.manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    return 0, out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fibstat",
        description="local solubility statistics for families of varieties",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, settings) in _COMMANDS.items():
        # a flag left out is left out of the namespace, so RunConfig supplies its default
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for key in (*settings, "output", "format"):
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
        if "threads" in settings:
            # a string default goes through _parse_threads only when this command parses
            p.set_defaults(threads=os.environ.get("FIBSTAT_THREADS", "1"))
    return top


def _error_record(code: int, kind: str, detail: str) -> str:
    return json.dumps(
        {"error": {"code": code, "detail": detail, "kind": kind}}, sort_keys=True
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = vars(_build_parser().parse_args(argv))
        # nargs flags parse to lists; RunConfig holds tuples
        cfg = RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in ns.items()})
        code, out = run(cfg)
    except (ConfigError, SizeRefused) as exc:
        print(_error_record(2, "config", str(exc)), file=sys.stderr)
        return 2
    except TaintCeilingExceeded as exc:
        print(_error_record(3, "taint", str(exc)), file=sys.stderr)
        return 3
    except Exception as exc:
        kind = "invariant" if isinstance(exc, InvariantViolation) else "internal"
        print(_error_record(4, kind, f"{type(exc).__name__}: {exc}"), file=sys.stderr)
        return 4
    for line in out:
        print(line)
    return code
