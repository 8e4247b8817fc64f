"""Command-line interface.

Subcommands: derive (symbolic pipeline with structural checks), catalog
(entry table), verify (exact verdicts cross-checked by residuals), eval
(profile CSV emission), simulate (a time-stepped run: the split step by
default, RK4 as the cross-check), convergence (refinement study).

Numeric data goes to CSV with 17 significant digits so files are
byte-identical across runs; JSON is used only for the run manifest and the
audit table.  Every run writes a manifest listing its parameters and output
files.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
simulate and convergence refuse a grid that does not resolve the front,
and convergence checks its observed orders.

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
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from . import __version__
from .closure import run_derivation
from .reduction import (EvolutionEquation, Grid1D, GridSpec, SimConfig,
                        WaveFrame, check_wave_number, linspace,
                        reduce_to_ode, refinement_levels)

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


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(row: list) -> str:
    """One CSV row of mixed cells; floats keep 17 significant digits."""
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    _atomic_write(path, "\n".join([",".join(header), *lines]) + "\n")


def _write_json(path: str, data) -> None:
    """Strict JSON: a NaN or an infinity raises rather than being written."""
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _json_number(v: float) -> float | None:
    """v, or None (JSON null) when it is not finite."""
    return v if math.isfinite(v) else None


def _write_floats(path: str, header: list[str], rows) -> None:
    """A CSV of float rows (sequences of floats, one cell per header name);
    one %-format over the whole block gives the bytes of a per-row
    format(v, ".17g")."""
    cells = tuple([v for row in rows for v in row])
    row = ",".join(["%.17g"] * len(header)) + "\n"
    _atomic_write(path, ",".join(header) + "\n"
                  + row * (len(cells) // len(header)) % cells)


def _write_manifest(out_dir: str, command: str, parameters: dict,
                    outputs: list[str], notes: list[str]) -> str:
    manifest = {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "notes": notes,
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    _write_json(path, manifest)
    return path


def resolve_entry(entry: str, k: float | None) -> SolutionSpec:
    """Entry lookup; a trailing k<value> on the id pins the wave number."""
    from .solutions import catalog_by_id

    base, k_from_id = entry, None
    pos = entry.rfind("k")
    if pos > 0:
        tail = entry[pos + 1:]
        try:
            k_from_id = float(tail)
            base = entry[:pos]
        except ValueError:
            pass
    k_eff = k if k is not None else (k_from_id if k_from_id is not None else 1.0)
    table = catalog_by_id(k_eff)
    if base not in table:
        raise ValueError(
            f"unknown catalog entry {base!r}; run the catalog command for ids")
    return table[base]


def _finite(text: str) -> float:
    """A number option; nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _integer(text: str) -> int:
    """A point count; argparse would report only the name of the type
    function for int()'s ValueError."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer") from None


def _parse_grid2(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "grid must be xmin,xmax,nx,tmin,tmax,nt")
    xmin, xmax, nx, tmin, tmax, nt = parts
    return _checked(GridSpec, (_finite(xmin), _finite(xmax)),
                    (_finite(tmin), _finite(tmax)), _integer(nx), _integer(nt))


def _parse_grid1(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be xmin,xmax,n")
    return _finite(parts[0]), _finite(parts[1]), _integer(parts[2])


def _parse_profile_grid(text: str) -> tuple[float, float, int]:
    xmin, xmax, n = _parse_grid1(text)
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs at least 1 point")
    if not math.isfinite(xmax - xmin):
        raise argparse.ArgumentTypeError("grid span is not a finite number")
    return xmin, xmax, n


def _parse_run_grid(text: str) -> Grid1D:
    return _checked(Grid1D, *_parse_grid1(text))


def _checked(grid_type, *args):
    """grid_type(*args); the reason of its ValueError is the usage error
    (argparse would report only the name of the type function)."""
    try:
        return grid_type(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def emit_plot_data(spec: SolutionSpec, t_list: list[float],
                   x_grid: tuple[float, float, int], out_dir: str,
                   run_id: str) -> tuple[list[str], list[str]]:
    """One x,u CSV per requested time; singular zones become omitted rows.
    Every time is evaluated before the first file is written, so a time
    whose wave coordinate overflows leaves no file behind."""
    xs = linspace(*x_grid)
    tables = [spec.profile_rows(xs, t) for t in t_list]
    outputs: list[str] = []
    notes: list[str] = []
    for index, (t, (rows, omitted)) in enumerate(zip(t_list, tables)):
        if omitted:
            notes.append(
                f"t={_fmt(t)}: omitted {omitted} rows inside the singular"
                f" zone of {spec.entry_id}")
        path = os.path.join(out_dir, f"{run_id}_t{index}.csv")
        _write_floats(path, ["x", "u"], rows)
        outputs.append(path)
    return outputs, notes


# --- subcommands -------------------------------------------------------------


def _cmd_derive(args) -> int:
    k = None if args.k == "symbolic" else check_wave_number(float(args.k))
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

    entries = enumerate_catalog(args.k)
    rows = []
    for spec in entries:
        rows.append([
            spec.entry_id, spec.family_code, spec.family.value, spec.reading,
            spec.a0, spec.s1, spec.sw, float(spec.k),
            json.dumps(spec.params(), sort_keys=True,
                       allow_nan=False).replace(",", ";"),
            "valid" if spec.solves_ode else "invalid",
        ])
    path = os.path.join(args.out_dir, "catalog.csv")
    _write_csv(path, ["entry_id", "family_code", "family", "reading", "a0",
                      "s1", "sw", "k", "params", "validity"],
               [_cells(row) for row in rows])
    _write_manifest(args.out_dir, "catalog", {"k": args.k}, [path], [])
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
    path = os.path.join(args.out_dir, "audit.json")
    _write_json(path, payload)
    _write_manifest(args.out_dir, "verify",
                    {"k": args.k, "corrupt": args.corrupt or ""}, [path], [])
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
    t_list = [float(s) for s in args.t.split(",")]
    if not all(math.isfinite(t) for t in t_list):
        raise ValueError(f"times must be finite numbers, got {args.t!r}")
    outputs, notes = emit_plot_data(spec, t_list, args.x, args.out_dir,
                                    spec.entry_id)
    _write_manifest(args.out_dir, "eval",
                    {"entry": spec.entry_id, "k": spec.k, "t": t_list,
                     "x": list(args.x)}, outputs, notes)
    for path in outputs:
        sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_simulate(args) -> int:
    scheme = {"rk4": "explicit_rk4_mol", "imex": "imex_cn"}[args.scheme]
    config = SimConfig(dt=args.dt, T=args.T, scheme=scheme)
    grid = args.grid
    dt = config.checked_dt(grid.h)  # before the derivation runs
    spec = resolve_entry(args.entry, args.k)
    _check_run(spec, grid, args.T)
    import numpy as np

    from .simulate import integrate

    result = integrate(spec, grid, config)
    run_id = f"sim_{spec.entry_id}_{args.scheme}"
    outputs = []
    xs = grid.xs()
    for index, u in enumerate(result.snapshots):
        path = os.path.join(args.out_dir, f"{run_id}_t{index}.csv")
        _write_floats(path, ["x", "u"], np.column_stack([xs, u]).tolist())
        outputs.append(path)
    tpath = os.path.join(args.out_dir, f"{run_id}_trajectory.csv")
    _write_floats(tpath, ["t", "x_front"], result.front_trajectory)
    outputs.append(tpath)
    mpath = os.path.join(args.out_dir, f"{run_id}_metrics.csv")
    _write_floats(mpath, ["t", "linf_error", "l2_error", "energy"],
                  np.column_stack([result.times, result.linf_errors,
                                   result.l2_errors,
                                   result.energy_series]).tolist())
    outputs.append(mpath)
    speed = result.measured_speed
    _write_manifest(args.out_dir, "simulate",
                    {"entry": spec.entry_id, "k": spec.k, "scheme": scheme,
                     "T": args.T, "dt": dt,
                     "grid": [grid.x_min, grid.x_max, grid.n],
                     "boundary": config.boundary,
                     "measured_speed": speed}, outputs, [])
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
    path = os.path.join(args.out_dir, f"convergence_{spec.entry_id}.csv")
    _write_csv(path, ["h", "n", "linf_error", "observed_order"],
               [_cells([r["h"], r["n"], r["linf_error"],
                        r.get("observed_order", "")]) for r in rows])
    _write_manifest(args.out_dir, "convergence",
                    {"entry": spec.entry_id, "k": spec.k,
                     "levels": args.levels, "T": args.T,
                     "grid": [base.x_min, base.x_max, base.n]}, [path], [])
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

    p = sub.add_parser("derive", help="print the symbolic derivation trace")
    p.add_argument("--k", default="symbolic",
                   help="'symbolic' (default) or a numeric wave number")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("catalog", help="write the solution catalog table")
    p.add_argument("--k", type=float, default=1.0,
                   help="wave number (default 1.0)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="exact verdicts, residual cross-check")
    p.add_argument("--k", type=float, default=1.0,
                   help="wave number (default 1.0)")
    p.add_argument("--grid", type=_parse_grid2, default=GridSpec(),
                   metavar="xmin,xmax,nx,tmin,tmax,nt",
                   help="audit grid (default -10,10,201,0,1,11)")
    p.add_argument("--corrupt", default=None, metavar="ID_PREFIX",
                   help="testing hook: flip the speed sign of matching entries")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="emit x,u profile CSV files")
    p.add_argument("--entry", required=True,
                   help="catalog entry id, optionally with a k<value> suffix")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--x", type=_parse_profile_grid,
                   default=(-10.0, 10.0, 201), metavar="xmin,xmax,n",
                   help="profile grid (default -10,10,201)")
    p.add_argument("--k", type=float, default=None,
                   help="wave number (default 1.0 or the id suffix)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="time-stepped run seeded by an entry")
    p.add_argument("--entry", required=True,
                   help="catalog entry id, optionally with a k<value> suffix")
    p.add_argument("--grid", type=_parse_run_grid,
                   default=Grid1D(-20.0, 20.0, 801), metavar="xmin,xmax,n",
                   help="run grid (default -20,20,801)")
    p.add_argument("--scheme", choices=("rk4", "imex"), default="imex",
                   help="time stepper: imex, the split step (default), or"
                   " rk4")
    p.add_argument("--T", type=float, default=1.0,
                   help="final time (default 1.0)")
    p.add_argument("--dt", type=float, default=None,
                   help="time step (rk4: default and limit 2/(4/h^2 + 2);"
                   " imex: default 0.01)")
    p.add_argument("--k", type=float, default=None,
                   help="wave number (default 1.0 or the id suffix)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convergence", help="spatial refinement study")
    p.add_argument("--entry", required=True,
                   help="catalog entry id, optionally with a k<value> suffix")
    p.add_argument("--levels", type=int, default=3,
                   help="number of halvings from the base grid (default 3)")
    p.add_argument("--grid", type=_parse_run_grid,
                   default=Grid1D(-20.0, 20.0, 101), metavar="xmin,xmax,n",
                   help="base grid (default -20,20,101)")
    p.add_argument("--T", type=float, default=0.5,
                   help="final time of each run (default 0.5)")
    p.add_argument("--k", type=float, default=None,
                   help="wave number (default 1.0 or the id suffix)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
