"""Traced run: per-layer metrics and the tracing overhead.

The layers are the package modules.  Spans are recorded from the
benchmark's side: each public function listed in TARGETS is replaced, in
every cahnallen module that holds it, by a wrapper that records the span's
name, start, end, parent span and operation id.  Spans stay in memory and
are written to the result file when the run ends.  Per-call costs of the
exact layers (qfield, symexpr, reduction) and of scalar and vector
evaluation are timed directly; import costs come from `-X importtime` in
fresh interpreters.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import bench
import checks

MODULES = ("qfield", "symexpr", "reduction", "closure", "solutions", "verify",
           "simulate", "cli")
IMPORT_PROBES = 5


def _nominal_steps(args, kwargs):
    """Grid points times nominal time steps of integrate / simulate_field."""
    grid, config = args[1], args[2]
    steps = math.ceil(config.T / config.resolved_dt(grid.h) - 1e-9)
    scheme = "rk4" if config.scheme == "explicit_rk4_mol" else "imex"
    if config.boundary == "periodic":
        scheme += "_periodic"
    return scheme, grid.n * steps


def _emitted_rows(args, kwargs):
    return "", len(args[1]) * args[2][2]


# (module, function, label) -- label(args, kwargs) gives a name suffix and
# the work done by the call, in the unit of the matching per-layer metric
TARGETS = (
    ("reduction", "reduce_to_ode", None),
    ("reduction", "balance_degree", None),
    ("closure", "run_derivation", None),
    ("closure", "form_coefficient_system", None),
    ("closure", "solve_closure", None),
    ("closure", "backsubstitute", None),
    ("solutions", "enumerate_catalog", None),
    ("solutions", "catalog_by_id", None),
    ("verify", "classify_branches", None),
    ("verify", "pde_residual", None),
    ("verify", "ode_residual", None),
    ("verify", "fd_crosscheck", None),
    ("simulate", "integrate", _nominal_steps),
    ("simulate", "simulate_field", _nominal_steps),
    ("simulate", "discrete_energy", None),
    ("simulate", "front_position", None),
    ("cli", "main", None),
    ("cli", "emit_plot_data", _emitted_rows),
)


class Tracer:
    """Spans as [name, start, end, parent index, op id, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, work: float = 0.0):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           work])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn, label):
        def traced(*args, **kwargs):
            suffix, work = label(args, kwargs) if label else ("", 0.0)
            with self.span(f"{name}[{suffix}]" if suffix else name, work):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cahnallen" or n.startswith("cahnallen.")]
        for module_name, attr, label in TARGETS:
            original = getattr(sys.modules[f"cahnallen.{module_name}"], attr)
            traced = self._wrap(f"{module_name}.{attr}", original, label)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def run(self, tally: bench.Tally, op: bench.Op) -> None:
        self.op += 1
        tally.run(op)

    # -- summaries --------------------------------------------------------

    def select(self, name: str, ops=None) -> list[tuple[int, list]]:
        """(index, span) of the spans called `name`, within `ops` if given."""
        return [(i, s) for i, s in enumerate(self.spans)
                if s[0] == name and (ops is None or s[4] in ops)]

    def durations(self, name: str, ops=None) -> list[float]:
        return [s[2] - s[1] for _, s in self.select(name, ops)]

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_time(self, name: str, ops=None) -> list[float]:
        own = self.self_times()
        return [own[i] for i, _ in self.select(name, ops)]

    def per_work(self, name: str, ops=None) -> float:
        spans = [s for _, s in self.select(name, ops)]
        return sum(s[2] - s[1] for s in spans) / sum(s[5] for s in spans)

    def layer_self_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for t, span in zip(self.self_times(), self.spans):
            layer = span[0].split(".")[0]
            out[layer] = out.get(layer, 0.0) + 1e3 * t
        return out

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "work")
        return [dict(zip(keys, span)) for span in self.spans]


class CountingSolution:
    """A catalog entry that counts the scalar calls made into it, by the
    innermost traced function that makes them, and traces its vector
    evaluations."""

    def __init__(self, spec, tracer: Tracer):
        self._spec = spec
        self._tracer = tracer
        self.scalar_calls: Counter[str] = Counter()

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def _count(self, x) -> bool:
        if np.isscalar(x):
            stack = self._tracer.stack
            self.scalar_calls[self._tracer.spans[stack[-1]][0] if stack else ""] += 1
            return True
        return False

    def eval(self, x, t):
        if self._count(x):
            return self._spec.eval(x, t)
        with self._tracer.span("solutions.eval[vector]"):
            return self._spec.eval(x, t)

    def partials(self, x, t):
        self._count(x)
        return self._spec.partials(x, t)


# --- direct timings ------------------------------------------------------------


def per_call(fn, min_batch: float = 0.02, repeats: int = 5) -> float:
    """Median seconds per call over `repeats` batches of at least
    `min_batch` seconds each."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def import_seconds() -> dict[str, float]:
    """Added import time of each module after its dependencies, numpy
    preloaded, median over fresh interpreters."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import numpy; import cahnallen.cli"],
            cwd=bench.ROOT, env=bench.child_env(), capture_output=True,
            text=True, timeout=60)
        checks.require(proc.returncode == 0, "import probe failed")
        for name, seconds in _added_import_times(proc.stderr).items():
            samples[name].append(seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def _added_import_times(log: str) -> dict[str, float]:
    """Cumulative import time of each cahnallen module minus that of the
    cahnallen modules it imported first.  The log lists children before
    their parent, two spaces of indent per level."""
    pending: list[tuple[int, float]] = []  # (level, carried cumulative)
    added: dict[str, float] = {}
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header
        level = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        cum = int(cumulative) * 1e-6
        children = 0.0
        while pending and pending[-1][0] > level:
            children += pending.pop()[1]
        package = name.startswith("cahnallen.")
        if package:
            added[name.split(".", 1)[1]] = cum - children
        pending.append((level, cum if package else children))
    return added


def exact_layer_metrics(seed: int) -> dict:
    from cahnallen import closure, reduction, solutions
    from cahnallen.qfield import Radical2
    from cahnallen.symexpr import SymExpr, diff_xi, substitute

    rng = np.random.default_rng(seed)

    def fraction():
        return Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 100)))

    a = Radical2(fraction(), fraction() or Fraction(1))
    b = Radical2(fraction(), fraction() or Fraction(1))
    report = closure.run_derivation(reduction.reduce_to_ode(
        reduction.EvolutionEquation(3), reduction.WaveFrame()))
    ansatz = report.ansatz
    bind = {"A0": SymExpr.const(1), "A1": SymExpr.const(Radical2.sqrt2(1)),
            "k": SymExpr.const(1)}
    k = round(float(rng.uniform(0.5, 2.5)), 4)
    spec = solutions.catalog_by_id(k)[sorted(checks.KINKS)[0]]
    xs = np.linspace(-20.0, 20.0, 100_001)
    ts = np.full_like(xs, 0.5)
    return {
        "qfield.mul_us": (1e6 * per_call(lambda: a * b), "us"),
        "qfield.inverse_us": (1e6 * per_call(a.inverse), "us"),
        "symexpr.mul_ms": (1e3 * per_call(lambda: ansatz.u1 * ansatz.u2), "ms"),
        "symexpr.diff_xi_ms": (1e3 * per_call(lambda: diff_xi(ansatz.u1)), "ms"),
        "symexpr.substitute_ms": (1e3 * per_call(
            lambda: substitute(report.system.equations[2], bind)), "ms"),
        "reduction.reduce_ms": (1e3 * per_call(lambda: reduction.balance_degree(
            reduction.reduce_to_ode(reduction.EvolutionEquation(3),
                                    reduction.WaveFrame()))), "ms"),
        "solutions.eval_ns_per_point": (
            1e9 * per_call(lambda: spec.eval(xs, ts)) / xs.size, "ns"),
        "solutions.partials_scalar_us": (
            1e6 * per_call(lambda: spec.partials(-20.0, 0.5)), "us"),
    }


# --- the traced run -------------------------------------------------------------


def layer_suite(tracer: Tracer, seed: int, tally: bench.Tally) -> dict:
    """Traced exact sessions, an instrumented dynamics operation and an
    in-process CLI round; per-layer metrics from their spans."""
    counted: list[CountingSolution] = []

    def instrument(spec):
        counted.append(CountingSolution(spec, tracer))
        return counted[-1]

    p = bench.Dynamics(seed).inputs()
    dynamics = bench.Op(
        "kink-reverify", lambda out_dir: bench.dynamics_op(p, instrument),
        lambda outputs: bench.check_dynamics_op(p, outputs))
    exact_ops, cli_ops = set(), set()
    with tracer.installed():
        exact = bench.ExactWarm(seed)
        for _ in range(3):
            tracer.run(tally, exact.next_round()[0])
            exact_ops.add(tracer.op)
        tracer.run(tally, dynamics)
        dyn_ops = {tracer.op}
        for op in bench.CliCold(seed, in_process=True).next_round():
            tracer.run(tally, op)
            cli_ops.add(tracer.op)

    derivations = len(tracer.durations("closure.run_derivation", exact_ops))
    backsub = tracer.durations("closure.backsubstitute", exact_ops)
    # record() evaluates the exact profile once per snapshot, after the
    # initial profile; with discrete_energy and front_position that is the
    # per-snapshot bookkeeping of a run
    (_, rk4), = tracer.select("simulate.integrate[rk4]", dyn_ops)
    inside = [s for s in tracer.spans if rk4[1] <= s[1] and s[2] <= rk4[2]]
    evals = [s[2] - s[1] for s in inside if s[0] == "solutions.eval[vector]"]
    record = sum(evals[1:]) + sum(
        s[2] - s[1] for s in inside
        if s[0] in ("simulate.discrete_energy", "simulate.front_position"))
    snapshots = sum(s[0] == "simulate.discrete_energy" for s in inside)
    rk4_steps = rk4[5] / bench.RK4_GRID[2]

    def median_ms(values):
        return 1e3 * statistics.median(values), "ms"

    def ns_per(name, ops):
        return 1e9 * tracer.per_work(name, ops), "ns"

    return {
        "closure.derive_ms": median_ms(tracer.durations(
            "closure.run_derivation", exact_ops)),
        "closure.form_system_ms": median_ms(tracer.durations(
            "closure.form_coefficient_system", exact_ops)),
        "closure.solve_ms": median_ms(tracer.self_time(
            "closure.solve_closure", exact_ops)),
        "closure.backsubstitute_ms": (1e3 * sum(backsub) / derivations, "ms"),
        "closure.backsubstitute_calls": (len(backsub) / derivations, "count"),
        "solutions.catalog_ms": median_ms(tracer.durations(
            "solutions.enumerate_catalog", exact_ops)),
        "verify.classify_ms": median_ms(tracer.durations(
            "verify.classify_branches", exact_ops)),
        "verify.pde_residual_ms": median_ms(tracer.durations(
            "verify.pde_residual", exact_ops)),
        "verify.fd_crosscheck_ms": median_ms(tracer.durations(
            "verify.fd_crosscheck", exact_ops)),
        "simulate.rk4_ns_per_point_step": ns_per(
            "simulate.integrate[rk4]", dyn_ops),
        "simulate.imex_ns_per_point_step": ns_per(
            "simulate.integrate[imex]", dyn_ops),
        "simulate.imex_periodic_ns_per_point_step": ns_per(
            "simulate.simulate_field[imex_periodic]", dyn_ops),
        "simulate.boundary_calls_per_step": (
            counted[0].scalar_calls["simulate.integrate[rk4]"] / rk4_steps,
            "count"),
        "simulate.record_ms": (1e3 * record / snapshots, "ms"),
        "cli.command_ms": (1e3 * statistics.mean(tracer.durations(
            "cli.main", cli_ops)), "ms"),
        "cli.emit_ns_per_row": ns_per("cli.emit_plot_data", exact_ops),
    }


def overhead(tracer: Tracer, workload, seconds: float) -> tuple[bench.Tally, float]:
    """Alternate untraced and traced rounds of the workload for `seconds`;
    the median of traced over untraced round time."""
    tally = bench.Tally()
    for op in workload.next_round():  # warm-up: checked, not timed
        tally.run(op, timed=False)
    ratios = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not ratios:
        mark = len(tally.wall)
        for op in workload.next_round():
            tally.run(op)
        plain = sum(tally.wall[mark:])
        mark = len(tally.wall)
        with tracer.installed():
            for op in workload.next_round():
                tracer.run(tally, op)
        ratios.append(sum(tally.wall[mark:]) / plain)
    return tally, statistics.median(ratios)


def traced_run(workload: str, seed: int, seconds: float):
    """The tally of the workload's own operations, the per-layer metrics,
    and the spans with each layer's self time."""
    bench.warm_cache()
    tracer = Tracer()
    suite = bench.Tally()
    metrics = {f"{m}.import_s": (s, "s") for m, s in import_seconds().items()}
    metrics.update(exact_layer_metrics(seed))
    metrics.update(layer_suite(tracer, seed, suite))
    if workload == "cli-cold":  # tracing reaches the CLI only in-process
        loop = bench.CliCold(seed, in_process=True)
    else:
        loop = bench.make_workload(workload, seed)
    tally, ratio = overhead(tracer, loop, seconds)
    metrics["trace.overhead_ratio"] = (ratio, "1")
    tally.unexpected[:0] = [f"layer suite: {m}" for m in suite.unexpected]
    trace = {"layer_self_ms": tracer.layer_self_ms(), "spans": tracer.records()}
    return tally, dict(sorted(metrics.items())), trace
