"""The three workloads, their seeded inputs, and the closed measuring loop.

One client sends the next operation only after the previous one has
finished and been checked.  An operation has two parts: `produce` calls the
program and is timed; `check` tests what it produced against `checks.py`
and is not timed.  A wrong output or an error counts the operation as
failed.  The program is reached only through its CLI and public functions.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import checks
from checks import require

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# tolerances stated for the dynamic checks
RK4_SPEED_TOL = 1e-3
IMEX_SPEED_TOL = 1e-2
RK4_LINF_TOL = 1e-4
IMEX_LINF_TOL = 5e-3
CONVERGENCE_LINF_TOL = 1e-3  # coarsest level of the default study, h = 0.4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def draw_k(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 2.5), 4)


def draw_kink(rng: random.Random) -> str:
    return rng.choice(sorted(checks.KINKS))


def draw_times(rng: random.Random, n: int = 3) -> list[float]:
    return sorted(round(rng.uniform(0.0, 2.0), 3) for _ in range(n))


@dataclass
class Op:
    """`produce(out_dir)` calls the program; `check(outputs)` returns
    accuracy figures or raises.  `kept_fault` marks the one operation kept
    although the program fails it every time; its failure leaves the run
    correct."""

    name: str
    produce: Callable[[str], object]
    check: Callable[[object], dict | None]
    kept_fault: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0
    peak_rss_mb: float = 0.0
    children: bool = False  # CPU time of reaped children instead of our own

    def run(self, op: Op, timed: bool = True) -> None:
        """Run and check one operation; failed ones are timed as well."""
        self.attempted += 1
        out_dir = tempfile.mkdtemp(prefix=f"{op.name}-", dir=WORK)
        try:
            cpu0 = self._cpu()
            t0 = time.perf_counter()
            try:
                outputs = op.produce(out_dir)
            finally:
                if timed:
                    self.wall.append(time.perf_counter() - t0)
                    self.cpu.append(self._cpu() - cpu0)
            figures = op.check(outputs) or {}
        except Exception as exc:  # a failed operation, never a crash
            self.failed += 1
            if not op.kept_fault:
                self.unexpected.append(f"{op.name}: {type(exc).__name__}: {exc}")
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        for name, value in figures.items():
            self.accuracy[name] = max(value, self.accuracy.get(name, 0.0))

    def _cpu(self) -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN if self.children
                                else resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime


# --- cli-cold -----------------------------------------------------------------


class CliCold:
    """Each operation is a fresh `python -m cahnallen.cli` process; with
    `in_process` it is a call of `cli.main` in this process instead."""

    name = "cli-cold"
    children = True

    def __init__(self, seed: int, in_process: bool = False):
        self.rng = random.Random(seed)
        self.in_process = in_process

    def inputs(self) -> dict:
        rng = self.rng
        return dict(k=draw_k(rng), eval_entry=draw_kink(rng),
                    times=draw_times(rng), sim_entry=draw_kink(rng),
                    conv_entry=draw_kink(rng))

    def next_round(self) -> list[Op]:
        p = self.inputs()
        k = repr(p["k"])
        times = ",".join(repr(t) for t in p["times"])
        return [
            self._op("derive", ["derive", "--k", k], _check_derive, p),
            self._op("catalog", ["catalog", "--k", k], _check_catalog, p),
            self._op("verify", ["verify", "--k", k], _check_verify, p),
            self._op("eval", ["eval", "--entry", p["eval_entry"], "--k", k,
                              "--t", times], _check_eval, p),
            self._op("simulate", ["simulate", "--entry", p["sim_entry"],
                                  "--scheme", "imex", "--grid=-20,20,201",
                                  "--T", "0.5", "--dt", "0.01"],
                     _check_simulate, p),
            self._op("convergence", ["convergence", "--entry", p["conv_entry"]],
                     _check_convergence, p),
            # seed-independent bad input: a usage error must exit 2 with no
            # traceback; today it fails every time (ConfigError, exit 1)
            self._op("bad-input", ["simulate", "--entry", "eq20+", "--dt=-1"],
                     _check_usage_error, p, kept_fault=True),
        ]

    def _op(self, name, argv, checker, params, kept_fault=False) -> Op:
        run = run_cli_in_process if self.in_process else run_cli

        def produce(out_dir):
            if name not in ("derive", "bad-input"):
                return (out_dir,) + run(argv + ["--out-dir", out_dir])
            return (out_dir,) + run(argv)

        return Op(name, produce, lambda outputs: checker(*outputs, params),
                  kept_fault)


def run_cli(args: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "cahnallen.cli", *args],
                          cwd=WORK, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(args: list[str]) -> tuple[int, str, str]:
    """`cli.main` with its streams captured; an escaping exception is
    reported the way the interpreter would, as a traceback and exit 1."""
    from cahnallen import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _ok(code: int, err: str) -> None:
    require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
    require("Traceback" not in err, "traceback on stderr")


_BRANCH_LINE = re.compile(r"^\s+a0=\S+ A1=\S+ w=\S+ -> w = (\S+), rate = \S+$")


def _check_derive(out_dir, code, out, err, p):
    _ok(code, err)
    speeds = [checks.finite(m.group(1), "derive")
              for m in map(_BRANCH_LINE.match, out.splitlines()) if m]
    checks.check_branch_speeds(speeds, p["k"])
    lines = [ln for ln in out.splitlines() if ln.startswith("check ")]
    require(bool(lines) and all(ln.startswith("check ok:") for ln in lines),
            "derive reports a failed or missing structural check")


def _check_catalog(out_dir, code, out, err, p):
    _ok(code, err)
    header = ["entry_id", "family_code", "family", "reading", "a0", "s1",
              "sw", "k", "params", "validity"]
    rows = checks.read_csv(os.path.join(out_dir, "catalog.csv"), header)
    for row in rows:
        require(checks.finite(row[7], "catalog k") == p["k"], "catalog k")
    checks.check_verdicts([(r[0], r[3], r[9] == "valid") for r in rows])
    checks.load_json(os.path.join(out_dir, "catalog_manifest.json"))


def _check_verify(out_dir, code, out, err, p):
    _ok(code, err)
    audit = checks.load_json(os.path.join(out_dir, "audit.json"))
    checks.check_verdicts([(r["entry_id"], r["reading"],
                            r["verdict"] == "valid") for r in audit["rows"]])
    require(len(audit["family_valid"]) == 12
            and all(audit["family_valid"].values()), "a family is uncovered")
    checks.load_json(os.path.join(out_dir, "verify_manifest.json"))


def _check_eval(out_dir, code, out, err, p):
    _ok(code, err)
    entry = p["eval_entry"]
    manifest = checks.load_json(os.path.join(out_dir, "eval_manifest.json"))
    require(manifest["outputs"] == [f"{entry}_t{i}.csv"
                                    for i in range(len(p["times"]))],
            f"eval outputs {manifest['outputs']}")
    for i, t in enumerate(p["times"]):
        data = checks.read_numeric_csv(
            os.path.join(out_dir, f"{entry}_t{i}.csv"), ["x", "u"])
        require(len(data) == 201, f"eval wrote {len(data)} rows, not 201")
        checks.profile_linf_err(entry, data[:, 0], data[:, 1], t,
                                checks.PROFILE_TOL)


def _check_simulate(out_dir, code, out, err, p):
    _ok(code, err)
    entry = p["sim_entry"]
    run_id = f"sim_{entry}_imex"
    match = re.search(r"measured front speed: (\S+)", out)
    require(match is not None, "simulate printed no front speed")
    speed = checks.speed_rel_err(entry, checks.finite(match.group(1), "speed"),
                                 IMEX_SPEED_TOL)
    metrics = checks.read_numeric_csv(
        os.path.join(out_dir, f"{run_id}_metrics.csv"),
        ["t", "linf_error", "l2_error", "energy"])
    checks.read_numeric_csv(os.path.join(out_dir, f"{run_id}_trajectory.csv"),
                            ["t", "x_front"])
    last = len(metrics) - 1
    require(abs(metrics[last, 0] - 0.5) < 1e-12, "last snapshot is not T")
    final = checks.read_numeric_csv(
        os.path.join(out_dir, f"{run_id}_t{last}.csv"), ["x", "u"])
    linf = checks.profile_linf_err(entry, final[:, 0], final[:, 1], 0.5,
                                   IMEX_LINF_TOL)
    checks.load_json(os.path.join(out_dir, "simulate_manifest.json"))
    return {"speed_rel_err": speed, "imex_linf_err": linf}


def _check_convergence(out_dir, code, out, err, p):
    _ok(code, err)
    entry = p["conv_entry"]
    rows = checks.read_csv(os.path.join(out_dir, f"convergence_{entry}.csv"),
                           ["h", "n", "linf_error", "observed_order"])
    require(len(rows) == 3, f"{len(rows)} refinement levels, not 3")
    for row in rows:
        checks.finite(row[0], "h")
        checks.finite(row[1], "n")
    errors = [checks.finite(row[2], "linf_error") for row in rows]
    # the first level has no order; the program writes a bare "nan" there
    require(rows[0][3] in ("", "nan"), f"first-level order {rows[0][3]!r}")
    checks.check_orders([checks.finite(row[3], "observed_order")
                         for row in rows[1:]], f"convergence {entry}")
    require(max(errors) <= CONVERGENCE_LINF_TOL, f"rk4 error {max(errors):.3g}")
    checks.load_json(os.path.join(out_dir, "convergence_manifest.json"))
    return {"rk4_linf_err": max(errors)}


def _check_usage_error(out_dir, code, out, err, p):
    require(code == 2, f"bad input exits {code}, not 2")
    require("Traceback" not in err, "bad input prints a traceback")


# --- exact-warm -----------------------------------------------------------------

# sized so that the derivation takes about half of a session
AUDIT_GRID = dict(nx=251, nt=11)
EMIT_GRID = (-10.0, 10.0, 401)
RERUN_GRID = (-20.0, 20.0, 201)


class ExactWarm:
    """One exact session per operation, in this warm process."""

    name = "exact-warm"
    children = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def inputs(self) -> dict:
        rng = self.rng
        return dict(k=draw_k(rng),
                    emit=[(draw_kink(rng), draw_times(rng)) for _ in range(4)],
                    rerun=draw_kink(rng))

    def next_round(self) -> list[Op]:
        p = self.inputs()
        return [Op("exact-session", lambda out_dir: exact_session(p, out_dir),
                   lambda outputs: check_exact_session(p, outputs))]


def exact_session(p: dict, out_dir: str) -> dict:
    from cahnallen import cli, closure, reduction, simulate, solutions, verify

    report = closure.run_derivation(reduction.reduce_to_ode(
        reduction.EvolutionEquation(3), reduction.WaveFrame()))
    catalog = solutions.enumerate_catalog(p["k"])
    table = {spec.entry_id: spec for spec in catalog}
    audit = verify.classify_branches(catalog, verify.GridSpec(**AUDIT_GRID))
    fd = {entry: verify.fd_crosscheck(table[entry]) for entry in checks.KINKS}
    emitted = [cli.emit_plot_data(table[entry], times, EMIT_GRID, out_dir,
                                  f"run{i}")
               for i, (entry, times) in enumerate(p["emit"])]
    # a coarse dynamic re-run keeps the accuracy companions on this workload
    grid = simulate.Grid1D(*RERUN_GRID)
    runs = kink_runs(table[p["rerun"]], [
        ("rk4", grid, simulate.SimConfig(T=0.5)),
        ("imex", grid, simulate.SimConfig(T=0.5, dt=0.01, scheme="imex_cn")),
    ])
    return dict(report=report, audit=audit, fd=fd, emitted=emitted, runs=runs)


def check_exact_session(p: dict, out: dict) -> dict:
    k = p["k"]
    report = out["report"]
    require(report.all_checks_pass(), "a structural derivation check failed")
    ratios = [b.w_over_k for b in report.solution.branches]
    # exactly 0 + (+-3/2)*sqrt(2) in Q(sqrt(2))
    require(all(r.r == 0 and abs(r.s) == Fraction(3, 2) for r in ratios),
            f"speed ratios {[str(r) for r in ratios]}")
    checks.check_branch_speeds([float(r) * k for r in ratios], k)

    audit = out["audit"]
    checks.check_verdicts([(r.entry_id, r.reading, r.valid) for r in audit.rows])
    require(audit.all_families_covered(), "a family is uncovered")
    for entry, table in out["fd"].items():
        checks.check_orders(table.observed_order.values(), f"fd {entry}")

    for (entry, times), (outputs, notes) in zip(p["emit"], out["emitted"]):
        require(len(outputs) == len(times) and not notes, "emit outputs")
        for path, t in zip(outputs, times):
            data = checks.read_numeric_csv(path, ["x", "u"])
            require(len(data) == EMIT_GRID[2], "emit row count")
            checks.profile_linf_err(entry, data[:, 0], data[:, 1], t,
                                    checks.PROFILE_TOL)
    return check_kink_runs(p["rerun"], out["runs"])


def kink_runs(spec, runs) -> list:
    """Integrate `spec` once per (scheme, grid, config)."""
    from cahnallen import simulate

    return [(scheme, grid, config, simulate.integrate(spec, grid, config))
            for scheme, grid, config in runs]


def check_kink_runs(entry: str, runs) -> dict:
    """Speed and final field against the closed form; the worst figures."""
    figures: dict[str, float] = {}
    for scheme, grid, config, result in runs:
        rk4 = scheme == "rk4"
        speed = checks.speed_rel_err(entry, result.measured_speed,
                                     RK4_SPEED_TOL if rk4 else IMEX_SPEED_TOL)
        require(abs(result.times[-1] - config.T) < 1e-12, "final snapshot")
        linf = checks.profile_linf_err(entry, grid.xs(), result.snapshots[-1],
                                       config.T,
                                       RK4_LINF_TOL if rk4 else IMEX_LINF_TOL)
        figures["speed_rel_err"] = max(speed, figures.get("speed_rel_err", 0.0))
        figures[f"{scheme}_linf_err"] = linf
    return figures


# --- dynamics -------------------------------------------------------------------

RK4_GRID = (-20.0, 20.0, 801)  # the simulate default grid
IMEX_GRID = (-20.0, 20.0, 6401)
IMEX_DT = 0.005  # 128 * h**2
PERIODIC_LENGTH = 16.0 * np.pi
PERIODIC_N = 4096
PERIODIC_DT = 0.005


class Dynamics:
    """Three finite-difference runs per operation, in this warm process."""

    name = "dynamics"
    children = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def inputs(self) -> dict:
        rng = self.rng
        # four Fourier modes of the period, scaled to a maximum of 0.9
        theta = 2.0 * np.pi * np.arange(PERIODIC_N) / PERIODIC_N
        u0 = sum(rng.uniform(-1.0, 1.0)
                 * np.sin(j * theta + rng.uniform(0.0, 2.0 * np.pi))
                 for j in range(1, 5))
        return dict(k=draw_k(rng), entry=draw_kink(rng),
                    u0=0.9 * u0 / np.max(np.abs(u0)))

    def next_round(self) -> list[Op]:
        p = self.inputs()
        return [Op("kink-reverify", lambda out_dir: dynamics_op(p),
                   lambda outputs: check_dynamics_op(p, outputs))]


def dynamics_op(p: dict, instrument=None) -> dict:
    """`instrument`, when given, wraps the catalog entry before the runs."""
    from cahnallen import simulate, solutions

    spec = solutions.catalog_by_id(p["k"])[p["entry"]]
    if instrument is not None:
        spec = instrument(spec)
    runs = kink_runs(spec, [
        ("rk4", simulate.Grid1D(*RK4_GRID), simulate.SimConfig(T=1.0)),
        ("imex", simulate.Grid1D(*IMEX_GRID),
         simulate.SimConfig(T=1.0, dt=IMEX_DT, scheme="imex_cn")),
    ])
    n = PERIODIC_N
    grid = simulate.Grid1D(0.0, PERIODIC_LENGTH * (n - 1) / n, n)
    periodic = simulate.simulate_field(p["u0"], grid, simulate.SimConfig(
        T=1.0, dt=PERIODIC_DT, boundary="periodic", scheme="imex_cn"))
    return dict(runs=runs, periodic=periodic)


def check_dynamics_op(p: dict, out: dict) -> dict:
    periodic = out["periodic"]
    require(len(periodic.snapshots) == 11, "periodic snapshots")
    checks.check_periodic(periodic.energy_series, periodic.snapshots)
    return check_kink_runs(p["entry"], out["runs"])


WORKLOADS = {w.name: w for w in (CliCold, ExactWarm, Dynamics)}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)


def warm_cache() -> None:
    """Import the package and fill its derivation cache."""
    from cahnallen import cli, solutions  # noqa: F401

    solutions.catalog_by_id(1.0)


# --- measurement -------------------------------------------------------------------


def measure(workload, seconds: float) -> Tally:
    """Whole rounds until `seconds` have passed."""
    tally = Tally(children=workload.children)
    if not workload.children:
        for op in workload.next_round():  # warm-up: checked, not timed
            tally.run(op, timed=False)
    start = time.perf_counter()
    while True:
        for op in workload.next_round():
            tally.run(op)
        tally.elapsed = time.perf_counter() - start
        if tally.elapsed >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    tally.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # KiB
    return tally


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Wall time from launching a fresh interpreter until it is ready."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "startup.py")
    times = []
    for i in range(probes + 1):  # the first start-up only warms file caches
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed)], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        require(line.strip() == "ready" and proc.returncode == 0,
                "start-up probe failed")
        if i:
            times.append(elapsed)
    return times


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    ops = len(tally.wall)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / tally.elapsed, "1/s"),
        "latency_p50_s": (statistics.median(tally.wall), "s"),
        "cpu_s_per_op": (sum(tally.cpu) / ops, "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
        "speed_rel_err": (tally.accuracy.get("speed_rel_err", 0.0), "1"),
        "rk4_linf_err": (tally.accuracy.get("rk4_linf_err", 0.0), "1"),
        "imex_linf_err": (tally.accuracy.get("imex_linf_err", 0.0), "1"),
    }
