"""Command-line interface.

Subcommands: derive (symbolic pipeline with structural checks), catalog
(entry table), verify (exact verdicts cross-checked by residuals), eval
(profile CSV emission), simulate (a time-stepped run: the split step by
default, RK4 as the cross-check), convergence (refinement study).

Numeric data goes to CSV with 17 significant digits so files are
byte-identical across runs; JSON is used only for the run manifest and the
audit table.  Every run writes a manifest listing its parameters and output
files, all of its files or none.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage error.  simulate and convergence refuse a grid that does
not resolve the front, and convergence checks its observed orders.

`derive`, `catalog` and `eval` run on the standard library alone: the
validity of `catalog` and of `verify` is one predicate, the exact
structural zero of each entry's k-free ODE coefficients
(SolutionSpec.solves_ode), and eval writes the rows of
SolutionSpec.profile_rows, the scalar `math` twin of the array evaluator.
Each handler checks all of its arguments first, the singular-zone checks
of SolutionSpec.check_zone included, then imports the modules it uses:
only verify, simulate and convergence load numpy, none for a usage
error.  The audit JSON is written from verify.AuditRow records.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from . import __version__
from .closure import run_derivation
from .reduction import (MAX_POINTS, SCHEMES, SPLIT_DT, EvolutionEquation,
                        Grid1D, GridSpec, SimConfig, WaveFrame,
                        check_wave_number, linspace, reduce_to_ode,
                        refinement_levels)

if TYPE_CHECKING:
    from .solutions import SolutionSpec

if "numpy" in sys.modules:
    # numpy is loaded already, so the numeric modules cost only their own
    # import time; importing them here keeps `import cahnallen.cli` a load
    # of the whole package in such a process (perfbench/layers.py traces
    # the modules it loads)
    from . import simulate, solutions, verify  # noqa: F401


# a spatial refinement study checks the order of the central differences,
# less a margin
SPATIAL_ORDER, ORDER_MARGIN = 2.0, 0.25
# the wave number of a command given no --k (nor an id suffix)
DEFAULT_K = 1.0
# the text forms of the grid options, each the option's metavar
GRID_1D, GRID_2D = "xmin,xmax,n", "xmin,xmax,nx,tmin,tmax,nt"
# every float written, to a file or to stdout, keeps 17 significant digits
_G17 = "%.17g"


def _fmt(v: float) -> str:
    return _G17 % v


def _cells(row: list) -> str:
    """One CSV row of mixed cells; floats keep 17 significant digits."""
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)


def _csv(header: list[str], lines: list[str]) -> str:
    return "\n".join([",".join(header), *lines]) + "\n"


def _json(data) -> str:
    """Strict JSON: a NaN or an infinity raises rather than being written."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_number(v: float) -> float | None:
    """v, or None (JSON null) when it is not finite."""
    return v if math.isfinite(v) else None


def _floats(header: list[str], rows) -> str:
    """A CSV of float rows (sequences of floats, one cell per header name);
    one %-format over the whole block gives the bytes of a per-row _fmt."""
    cells = tuple([v for row in rows for v in row])
    row = ",".join([_G17] * len(header)) + "\n"
    return ",".join(header) + "\n" + row * (len(cells) // len(header)) % cells


def _profiles(run_id: str, tables) -> dict[str, str]:
    """The x,u CSV {run_id}_t{index}.csv of each table of (x, u) rows."""
    return {f"{run_id}_t{index}.csv": _floats(["x", "u"], rows)
            for index, rows in enumerate(tables)}


def _write(out_dir: str, files: dict[str, str]) -> list[str]:
    """The one writer: each {name: text} of files becomes out_dir/name, all
    or nothing.  A name held by a directory is refused, every text is staged
    under a .tmp_ name in out_dir, the stages are renamed only once all are
    written, and a failure removes them; an OSError is a ValueError naming
    the path.  Returns the paths, in the order of files."""
    paths, staged = [os.path.join(out_dir, name) for name in files], []
    try:
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, text in zip(paths, files.values()):
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp_", text=True)
            staged.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for path, tmp in zip(paths, staged):
            os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(
            f"cannot write {path!r}: {exc.strerror or exc}") from None
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return paths


def _commit(args, parameters: dict, files: dict, notes=()) -> list[str]:
    """Write files with the run's record, {command}_manifest.json, which
    lists them; the paths of files."""
    manifest = {"command": args.command, "parameters": parameters,
                "tool_version": __version__, "notes": list(notes),
                "outputs": sorted(files)}
    return _write(args.out_dir, {
        **files, f"{args.command}_manifest.json": _json(manifest)})[:-1]


def resolve_entry(entry: str, k: float | None) -> SolutionSpec:
    """Entry lookup; a trailing k<value> on the id pins the wave number."""
    from .solutions import catalog_by_id

    base, k_from_id = entry, DEFAULT_K
    pos = entry.rfind("k")
    if pos > 0:
        tail = entry[pos + 1:]
        try:
            k_from_id = float(tail)
            base = entry[:pos]
        except ValueError:
            pass
    table = catalog_by_id(k if k is not None else k_from_id)
    if base not in table:
        raise ValueError(f"unknown catalog entry {_quoted(base)};"
                         " run the catalog command for ids")
    return table[base]


def _quoted(text: str) -> str:
    """text quoted, cut to 12 characters, so a usage error stays short.
    The type functions of the options raise ArgumentTypeError with their
    reason: for a ValueError argparse would report only the function name."""
    return repr(text) if len(text) <= 12 else f"{text[:12]!r}..."


def _number(text: str) -> float:
    """A number; nan and inf pass, for the option's own check to refuse
    with its own reason."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{_quoted(text)} is not a number") from None


def _finite(text: str) -> float:
    """A number; nan and inf are usage errors."""
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"{_quoted(text)} is not a finite number")
    return value


def _scheme(text: str) -> str:
    if text not in SCHEMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {_quoted(text)} (choose from"
            f" {', '.join(map(repr, SCHEMES))})")
    return text


def _integer(text: str) -> int:
    """A count; int() also refuses more than sys.get_int_max_str_digits()
    digits (Python 3.10.7 on), the limit that the reason names for a longer
    text."""
    try:
        return int(text)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        longer = f" of at most {limit} digits" if len(text) > limit > 0 else ""
        raise argparse.ArgumentTypeError(
            f"{_quoted(text)} is not an integer{longer}") from None


def _grid(form: str, build) -> dict:
    """The type and metavar of a grid option whose text has the form `form`:
    its numbers, then its counts (the parts named n...), are read in order
    and passed to build, whose ValueError is the usage error."""
    counts = [name.startswith("n") for name in form.split(",")]

    def read(text: str):
        parts = text.split(",")
        if len(parts) != len(counts):
            raise argparse.ArgumentTypeError(f"grid must be {form}")
        numbers = [None if n else _finite(p) for n, p in zip(counts, parts)]
        try:
            return build(*[_integer(p) if n else v
                           for n, p, v in zip(counts, parts, numbers)])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return {"type": read, "metavar": form}


def _profile_grid(xmin: float, xmax: float, n: int) -> tuple[float, float, int]:
    """eval's grid: any n >= 1 points, in either direction."""
    if n < 1:
        raise ValueError("grid needs at least 1 point")
    if n > MAX_POINTS:
        raise ValueError(f"grid needs at most {MAX_POINTS:,} points")
    if not math.isfinite(xmax - xmin):
        raise ValueError("grid span is not a finite number")
    return xmin, xmax, n


def _check_run(spec: SolutionSpec, grid: Grid1D, T: float) -> None:
    """A usage error when the grid spacing h exceeds the front width 1/|N|
    (N the entry's rate in x: the front falls between nodes), when the zone
    meets the run's window (integrate's refusal), or xi overflows there."""
    rate = abs(float(spec.exact.N))
    if grid.h * rate > 1.0:
        raise ValueError(f"grid spacing h = {grid.h:g} exceeds the width"
                         f" 1/|N| = {1.0 / rate:g} of the {spec.entry_id}"
                         " front; refine the grid")
    for every in (False, True):
        spec.check_zone((grid.x_min, grid.x_max), (0.0, T), every)


def _plot_data(spec: SolutionSpec, t_list: list[float],
               x_grid: tuple[float, float, int], run_id: str):
    """The files of one x,u CSV per requested time, and their notes:
    singular zones become omitted rows."""
    xs = linspace(*x_grid)
    tables = [spec.profile_rows(xs, t) for t in t_list]
    notes = [f"t={_fmt(t)}: omitted {omitted} rows inside the singular"
             f" zone of {spec.entry_id}"
             for t, (_, omitted) in zip(t_list, tables) if omitted]
    return _profiles(run_id, [rows for rows, _ in tables]), notes


def emit_plot_data(spec: SolutionSpec, t_list: list[float],
                   x_grid: tuple[float, float, int], out_dir: str,
                   run_id: str) -> tuple[list[str], list[str]]:
    """eval's x,u CSVs, written all or nothing; their paths and notes."""
    files, notes = _plot_data(spec, t_list, x_grid, run_id)
    return _write(out_dir, files), notes


# --- subcommands -------------------------------------------------------------


def _cmd_derive(args) -> int:
    k = None if args.k == "symbolic" else check_wave_number(args.k)
    report = run_derivation(reduce_to_ode(EvolutionEquation(3), WaveFrame()))
    sys.stdout.write(report.trace)
    if k is not None:
        sys.stdout.write(f"numeric frame at k = {_fmt(k)}:\n")
        for b in report.solution.branches:
            w = float(b.w_over_k) * k
            sys.stdout.write(
                f"  {b.label()} -> w = {_fmt(w)},"
                f" rate = {_fmt(float(b.nu_times_k) / k)}\n")
    ok = True
    for name, passed in report.checks:
        sys.stdout.write(f"check {'ok' if passed else 'FAILED'}: {name}\n")
        ok &= passed
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    from .solutions import enumerate_catalog

    rows = [_cells([
        spec.entry_id, spec.family_code, spec.family.value, spec.reading,
        spec.a0, spec.s1, spec.sw, float(spec.k),
        json.dumps(dict(spec.params), sort_keys=True,
                   allow_nan=False).replace(",", ";"),
        "valid" if spec.solves_ode else "invalid",
    ]) for spec in enumerate_catalog(args.k)]
    path, = _commit(args, {"k": args.k}, {"catalog.csv": _csv([
        "entry_id", "family_code", "family", "reading", "a0", "s1", "sw", "k",
        "params", "validity"], rows)})
    sys.stdout.write(f"wrote {len(rows)} entries to {path}\n")
    return 0


def _audit_row(row) -> dict:
    """An AuditRow as JSON: its verdict spelled out, its maxima null where
    they are not finite."""
    out = row._replace(pde_max_abs=_json_number(row.pde_max_abs),
                       ode_max_abs=_json_number(row.ode_max_abs))._asdict()
    out["verdict"] = "valid" if out.pop("valid") else "invalid"
    return out


def _cmd_verify(args) -> int:
    from .solutions import enumerate_catalog

    catalog = enumerate_catalog(args.k)  # checks k before numpy loads
    if args.corrupt:
        from dataclasses import replace

        # a speed sign flip is not a symmetry of the equation, so matching
        # entries are exactly invalid; the exact core flips with the float
        # speed, so it stays the core that is evaluated
        for i, spec in enumerate(catalog):
            if spec.entry_id.startswith(args.corrupt):
                exact = spec.exact._replace(W=-spec.exact.W)
                catalog[i] = replace(spec, exact=exact,
                                     **exact.lowered(spec.k))
    grid = args.grid
    for spec in catalog:  # the audit's order; with nt = 1 its t is t_range[0]
        spec.check_zone(grid.x_range, grid.t_range[:grid.nt], every=True)
    from .verify import classify_branches

    audit = classify_branches(catalog, grid)
    payload = {
        "grid": {
            "x_range": list(grid.x_range), "t_range": list(grid.t_range),
            "nx": grid.nx, "nt": grid.nt,
        },
        "rows": [_audit_row(r) for r in audit.rows],
        "mismatches": list(audit.mismatches),
        "family_valid": audit.family_valid,
    }
    path, = _commit(args, {"k": args.k, "corrupt": args.corrupt or ""},
                    {"audit.json": _json(payload)})
    bad = sorted(code for code, ok in audit.family_valid.items() if not ok)
    for code in bad:
        members = [r.entry_id for r in audit.rows if r.family_code == code]
        sys.stderr.write(
            f"verification failed: no valid entry in family {code}"
            f" (entries: {', '.join(members)})\n")
    for entry in audit.mismatches:
        sys.stderr.write(f"verification failed: the residuals of {entry}"
                         " disagree with its exact verdict\n")
    if bad or audit.mismatches:
        return 1
    sys.stdout.write(
        f"all {len(audit.family_valid)} families certified; audit at {path}\n")
    return 0


def _cmd_eval(args) -> int:
    spec = resolve_entry(args.entry, args.k)
    if not all(math.isfinite(t) for t in args.t):
        raise ValueError("times must be finite numbers, got"
                         f" {_quoted(','.join(map(_fmt, args.t)))}")
    files, notes = _plot_data(spec, args.t, args.x, spec.entry_id)
    for path in _commit(args, {"entry": spec.entry_id, "k": spec.k,
                               "t": args.t, "x": list(args.x)}, files, notes):
        sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_simulate(args) -> int:
    scheme = SCHEMES[args.scheme]
    config = SimConfig(dt=args.dt, T=args.T, scheme=scheme)
    grid = args.grid
    dt = config.checked_dt(grid.h)  # before the derivation runs
    spec = resolve_entry(args.entry, args.k)
    _check_run(spec, grid, args.T)
    from .simulate import integrate

    result = integrate(spec, grid, config)
    run_id = f"sim_{spec.entry_id}_{args.scheme}"
    xs = grid.xs().tolist()
    files = _profiles(run_id, [zip(xs, u.tolist()) for u in result.snapshots])
    files[f"{run_id}_trajectory.csv"] = _floats(["t", "x_front"],
                                                result.front_trajectory)
    files[f"{run_id}_metrics.csv"] = _floats(
        ["t", "linf_error", "l2_error", "energy"],
        zip(result.times, result.linf_errors, result.l2_errors,
            result.energy_series))
    speed = result.measured_speed
    _commit(args, {"entry": spec.entry_id, "k": spec.k, "scheme": scheme,
                   "T": args.T, "dt": dt,
                   "grid": [grid.x_min, grid.x_max, grid.n],
                   "boundary": config.boundary, "measured_speed": speed},
            files)
    sys.stdout.write(
        f"measured front speed: {_fmt(speed) if speed is not None else 'n/a'}"
        f" (frame ratio -w/k = {_fmt(-spec.w / spec.k)})\n")
    sys.stdout.write(f"final linf error: {_fmt(result.linf_errors[-1])}\n")
    return 0


def _cmd_convergence(args) -> int:
    config = SimConfig(T=args.T)  # RK4 on exact Dirichlet data
    base = args.grid
    grids = [Grid1D(base.x_min, base.x_max, (base.n - 1) * 2**i + 1)
             for i in range(args.levels)]
    refinement_levels(grids, config)  # before the derivation runs
    spec = resolve_entry(args.entry, args.k)
    _check_run(spec, base, args.T)  # every level has the base's window
    from .simulate import convergence_study

    rows = convergence_study(spec, grids, config)
    _commit(args, {"entry": spec.entry_id, "k": spec.k, "levels": args.levels,
                   "T": args.T, "grid": [base.x_min, base.x_max, base.n]},
            {f"convergence_{spec.entry_id}.csv": _csv(
                ["h", "n", "linf_error", "observed_order"],
                [_cells([r["h"], r["n"], r["linf_error"],
                         r.get("observed_order", "")]) for r in rows])})
    short = 0
    for r in rows:
        order = r.get("observed_order")
        sys.stdout.write(
            f"h = {_fmt(r['h'])}  linf = {_fmt(r['linf_error'])}"
            + (f"  order = {_fmt(order)}" if order is not None else "") + "\n")
        if order is not None and order < SPATIAL_ORDER - ORDER_MARGIN:
            short += 1
            sys.stderr.write(
                f"convergence check failed: observed order {order:.4g} at"
                f" h = {r['h']:g} falls short of the stated order"
                f" {SPATIAL_ORDER:g} by more than {ORDER_MARGIN:g}\n")
    return 1 if short else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cahnallen",
        description="Exact traveling-wave derivation and numerical"
        " certification for u_t = u_xx - u^3 + u.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options several commands share, each declared once
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out-dir", default=".", help="output directory")
    at_k = argparse.ArgumentParser(add_help=False)
    at_k.add_argument("--k", type=_number, default=DEFAULT_K,
                      help="wave number (default %(default)s)")
    entry = argparse.ArgumentParser(add_help=False)
    entry.add_argument("--entry", required=True,
                       help="catalog entry id, optionally with a k<value>"
                       " suffix")
    entry.add_argument("--k", type=_number, default=None,
                       help=f"wave number (default {DEFAULT_K} or the id"
                       " suffix)")

    def command(name, func, about, *parents):
        p = sub.add_parser(name, help=about, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("derive", _cmd_derive, "print the symbolic derivation trace")
    p.add_argument("--k", default="symbolic",
                   type=lambda s: s if s == "symbolic" else _number(s),
                   help="%(default)r (default) or a numeric wave number")

    command("catalog", _cmd_catalog, "write the solution catalog table",
            at_k, writes)

    p = command("verify", _cmd_verify, "exact verdicts, residual cross-check",
                at_k, writes)
    audit = GridSpec()
    p.add_argument("--grid", **_grid(GRID_2D, lambda x0, x1, nx, t0, t1, nt:
                                     GridSpec((x0, x1), (t0, t1), nx, nt)),
                   default=",".join(f"{v:g}" for v in (
                       *audit.x_range, audit.nx, *audit.t_range, audit.nt)),
                   help="audit grid (default %(default)s)")
    p.add_argument("--corrupt", default=None, metavar="ID_PREFIX",
                   help="testing hook: flip the speed sign of matching entries")

    p = command("eval", _cmd_eval, "emit x,u profile CSV files", entry, writes)
    p.add_argument("--t", required=True, help="comma-separated times",
                   type=lambda text: [_number(s) for s in text.split(",")])
    p.add_argument("--x", **_grid(GRID_1D, _profile_grid),
                   default="-10,10,201", help="profile grid (default %(default)s)")

    p = command("simulate", _cmd_simulate,
                "time-stepped run seeded by an entry", entry, writes)
    p.add_argument("--grid", **_grid(GRID_1D, Grid1D), default="-20,20,801",
                   help="run grid (default %(default)s)")
    p.add_argument("--scheme", type=_scheme, default="imex",
                   metavar="{%s}" % ",".join(SCHEMES),
                   help="time stepper: imex, the split step (default), or"
                   " rk4")
    p.add_argument("--T", type=_number, default=1.0,
                   help="final time (default %(default)s)")
    p.add_argument("--dt", type=_number, default=None,
                   help="time step (rk4: default and limit 2/(4/h^2 + 2);"
                   f" imex: default {SPLIT_DT})")

    p = command("convergence", _cmd_convergence, "spatial refinement study",
                entry, writes)
    p.add_argument("--levels", type=_integer, default=3,
                   help="number of halvings from the base grid"
                   " (default %(default)s)")
    p.add_argument("--grid", **_grid(GRID_1D, Grid1D), default="-20,20,101",
                   help="base grid (default %(default)s)")
    p.add_argument("--T", type=_number, default=0.5,
                   help="final time of each run (default %(default)s)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = getattr(args, "out_dir", None)
        if out_dir is not None and not os.path.isdir(out_dir):
            raise ValueError(f"output directory {out_dir!r} does not exist")
        return args.func(args)
    except ValueError as exc:  # every library error is one: a usage error
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
