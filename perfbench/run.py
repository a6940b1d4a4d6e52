#!/usr/bin/env python3
"""bgkmix benchmark: run a workload through `bgkmix.cli.main` and report.

Run from the repository root:

    python3 perfbench/run.py --workload relax-bgk-exp --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # each in a fresh process
    python3 perfbench/run.py --record-digest      # rewrite digest.json

`--trace 0` times whole runs of the CLI entry point (end-to-end
metrics: wall_s, node_updates_per_s, setup_s, peak_rss_mb; times are
scaled to a fixed machine speed, see speed.py); `--trace 1`
alternates untraced runs with runs whose calls into each module are
wrapped in spans, and reports the per-module split.  Every run's output
is checked (see checks.py).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Load comes from this one process (set-up probes run one at a time in
child processes), with BLAS threads capped at the CPUs it may use.
The package is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
DIGEST = HERE / "digest.json"

MIN_RUNS = 3            # timed runs per untraced measurement, at least
SETUP_PROBES = 7        # fresh processes timed for setup_s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter: import the package, parse the config, build the
# scenario and its grid; print the seconds that took, unscaled and
# scaled to the reference machine speed (see speed.py).
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bgkmix.config import parse_config
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_config(fh.read()).make_scenario()
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from speed import CAL_REF_S, Calibration
calibrate = Calibration()
cal = sorted(calibrate() for _ in range(3))[1]
print(repr(setup), repr(setup * CAL_REF_S / cal))
"""

PER_LAYER = [
    ("grid.match_moments", ("calls", "self_s", "newton_iters")),
    ("grid.match_gaussian", ("calls", "self_s", "newton_iters")),
    ("grid.moments", ("calls", "self_s")),
    ("grid.velocity_grid", ("calls", "self_s")),
    ("grid.spd_factor", ("self_s",)),
    ("grid.h_functional", ("self_s",)),
    ("targets.build_targets", ("calls", "self_s")),
    ("targets.mixture_state", ("calls", "self_s")),
    ("solver.run_scenario", ("calls", "self_s")),
    ("solver.relax_step", ("calls", "self_s")),
    ("solver.transport_step", ("calls", "self_s")),
    ("solver.diagnose", ("calls", "self_s")),
    ("params.validate", ("calls", "self_s")),
    ("config.parse_config", ("self_s",)),
    ("chapman.fit_decay_rate", ("self_s",)),
    ("cli.write_diagnostics_csv", ("self_s",)),
]
STAT_UNITS = {"calls": "count", "self_s": "s", "newton_iters": "count"}


class Fail(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; return that."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_bgkmix():
    """Import the package from this checkout's `src/`, nowhere else."""
    if not (SRC / "bgkmix" / "__init__.py").is_file():
        raise Fail(f"no bgkmix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bgkmix.cli
    if Path(bgkmix.__file__).resolve().parent != SRC / "bgkmix":
        raise Fail(f"bgkmix imported from {bgkmix.__file__}, not {SRC}")
    return bgkmix.cli


def blas_record() -> str:
    """BLAS library and the thread count it reports, if it can tell."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = str(fn())
                break
    return f"blas={name!r} blas_threads={threads}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    """Runs one workload's config through `cli.main` and checks outputs."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.outdir = workdir / "out"
        self.csv = self.outdir / workload.csv_name
        self.config = workdir / "config.json"
        doc = workload.config(seed)
        self.masses = doc["masses"]
        self.config.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        self.argv = [workload.subcommand, "-c", str(self.config),
                     "-o", str(self.outdir)]
        digests = json.loads(DIGEST.read_text(encoding="utf-8")) \
            if DIGEST.is_file() else {}
        self.digest = digests.get(workload.name)
        # keep each scenario and its diagnostics; a scan writes only rates
        self.runs: list = []
        inner = cli.run_scenario

        def capture(scenario):
            diag = inner(scenario)
            self.runs.append((scenario, diag))
            return diag

        self._restore = inner
        cli.run_scenario = capture

    def close(self) -> None:
        self.cli.run_scenario = self._restore

    def run(self, check_digest: bool = True, track=None):
        """One call of cli.main: (wall seconds, problems, outputs).

        A `track` (speed.SpeedTrack) is begun and ended around the call.
        """
        if self.csv.exists():
            self.csv.unlink()
        self.runs.clear()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                if track is not None:
                    track.begin()
                start = time.perf_counter()
                rc = self.cli.main(self.argv)
                wall = time.perf_counter() - start
                if track is not None:
                    track.end()
        except Exception:
            return 0.0, ["cli.main raised:\n" + traceback.format_exc()], None
        if rc != 0:
            return wall, [f"cli.main returned {rc}"], None
        try:
            outputs = self._outputs()
            return wall, self._check(outputs, check_digest), outputs
        except Exception:
            return wall, ["reading outputs raised:\n"
                          + traceback.format_exc()], None

    def _outputs(self) -> dict:
        cols = checks.read_csv(str(self.csv))
        if self.workload.subcommand == "scan":
            series = [checks.columns_from_diagnostics(d) for _, d in self.runs]
        else:
            series = [cols]
        steps = [int(round(s.t_end / s.dt)) for s, _ in self.runs]
        work = 2 * sum(n * max(1, s.cells) * s.grid.nnodes
                       for n, (s, _) in zip(steps, self.runs))
        drift = {}
        for one in series:
            for key, value in checks.drifts(one, self.masses).items():
                drift[key] = max(drift.get(key, 0.0), value)
        return {"csv": cols, "series": series, "steps": max(steps),
                "node_updates": work, "drift": drift,
                "csv_bytes": self.csv.stat().st_size}

    def _check(self, out: dict, check_digest: bool) -> list[str]:
        cols = out["csv"]
        problems = []
        for one in out["series"]:
            problems += checks.check_series(one, self.masses,
                                            self.workload.rk4)
        if self.workload.subcommand == "scan":
            problems += checks.check_rates(cols)
        if check_digest and self.seed == DEFAULT_SEED:
            problems += checks.compare_digest(
                checks.final_record(cols), self.digest, out["steps"],
                self.masses)
        return problems


def setup_times(config: Path) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes: (unscaled, scaled)."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config),
             str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise Fail("set-up probe failed:\n" + proc.stderr)
        first, second = proc.stdout.split()
        raw.append(float(first))
        scaled.append(float(second))
    return raw, scaled


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.last = None

    def add(self, problems, outputs) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"run {self.attempted} FAILED: " + "; ".join(problems))
        elif outputs is not None:
            self.last = outputs


def measure(runner: Runner, seconds: float, tally: Tally) -> dict:
    from speed import SpeedTrack  # imports numpy: after pin_blas_threads
    track = SpeedTrack()
    walls, scaled, rates = [], [], []
    begin = time.perf_counter()
    with track.hooked(sys.modules["bgkmix.solver"]):
        while len(walls) < MIN_RUNS or time.perf_counter() - begin < seconds:
            _, problems, outputs = runner.run(track=track)
            tally.add(problems, outputs)
            if not problems:
                walls.append(track.wall_s)
                scaled.append(track.scaled_s)
                rates.append(outputs["node_updates"] / scaled[-1])
            elif tally.failed > MIN_RUNS:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw, setup = setup_times(runner.config)
    samples = {"wall_s": (scaled, "s"), "node_updates_per_s": (rates, "1/s"),
               "setup_s": (setup, "s"), "peak_rss_mb": ([peak_mb], "MB"),
               "unscaled wall": (walls, "s"),
               "unscaled setup": (setup_raw, "s")}
    metrics = {}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"{name:20s} median {med:.6g} {unit}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        if not name.startswith("unscaled"):
            metrics[name] = {"value": med, "unit": unit}
    return metrics


def measure_traced(runner: Runner, seconds: float, tally: Tally,
                   workload: str) -> dict:
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        wall, problems, outputs = runner.run()
        tally.add(problems, outputs)
        plain.append(wall)
        tracer.reset()
        with tracer.installed():
            origin = time.perf_counter()
            wall, problems, outputs = runner.run()
        tally.add(problems, outputs)
        traced.append(wall)
        summary = tracer.summary()
        summary["_node_evals"] = tracer.node_evals
        summaries.append(summary)
        if tally.failed:
            break
    trace_path = OUT / f"trace-{workload}.jsonl"
    tracer.write(str(trace_path), len(traced) - 1, origin)

    def med(name, stat):
        return statistics.median(s.get(name, {}).get(stat, 0)
                                 for s in summaries)

    metrics = {}
    for name, stats in PER_LAYER:
        for stat in stats:
            metrics[f"{name}.{stat}"] = {"value": med(name, stat),
                                         "unit": STAT_UNITS[stat]}
    metrics["grid.node_evals"] = {
        "value": statistics.median(s["_node_evals"] for s in summaries),
        "unit": "count"}
    if tally.last is not None:  # outputs of the last run that passed
        for key, value in tally.last["drift"].items():
            metrics[f"solver.{key}_drift"] = {"value": value, "unit": "ratio"}
        metrics["cli.csv_bytes"] = {"value": tally.last["csv_bytes"],
                                    "unit": "bytes"}
    attributed = [sum(v["self_s"] for k, v in s.items() if k[0] != "_")
                  for s in summaries]
    wall = statistics.median(traced)
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.unattributed_s"] = {
        "value": statistics.median(w - a for w, a in zip(traced, attributed)),
        "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": wall - statistics.median(plain), "unit": "s"}
    print(f"traced {len(traced)} runs, untraced {len(plain)}; "
          f"spans of the last traced run in {trace_path}")
    for name, m in metrics.items():
        share = ""
        if name.endswith("self_s") or name == "trace.unattributed_s":
            share = f"  ({100.0 * m['value'] / wall:.1f}% of traced wall)"
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{share}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    nproc = pin_blas_threads()
    cli = import_bgkmix()
    import numpy as np
    workload = WORKLOADS[name]
    print(f"machine: nproc={nproc} python={platform.python_version()} "
          f"numpy={np.__version__} {blas_record()} load=1 process")
    print(f"workload {name}: {workload.why}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir()
    runner = None
    try:
        runner = Runner(cli, workload, seed, workdir)
        tally = Tally()
        if trace:
            metrics = measure_traced(runner, seconds, tally, name)
        else:
            metrics = measure(runner, seconds, tally)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"failed_share         {tally.failed}/{tally.attempted} runs")
    if tally.last is not None:
        d = tally.last["drift"]
        print(f"drift vs step 0: mass {d['mass']:.3g}, momentum "
              f"{d['momentum']:.3g}, energy {d['energy']:.3g}"
              + ("" if workload.rk4 else " (EXP: reported, not gated)"))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise Fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def record_digest() -> None:
    """Run each workload once at the default seed; write digest.json."""
    pin_blas_threads()
    cli = import_bgkmix()
    OUT.mkdir(exist_ok=True)
    digest = {}
    for name, workload in WORKLOADS.items():
        workdir = OUT / f"digest-{name}-{os.getpid()}"
        workdir.mkdir()
        runner = Runner(cli, workload, DEFAULT_SEED, workdir)
        try:
            _, problems, outputs = runner.run(check_digest=False)
        finally:
            runner.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            raise Fail(f"{name}: " + "; ".join(problems))
        digest[name] = checks.final_record(outputs["csv"])
        print(f"{name}: {digest[name]}")
    DIGEST.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {DIGEST}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_digest:
            record_digest()
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except Fail as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
