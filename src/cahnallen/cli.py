"""Command-line interface.

Subcommands: derive (symbolic pipeline with structural checks), catalog
(entry table), verify (residual audit), eval (profile CSV emission),
simulate (finite-difference run), convergence (refinement study).

Numeric data goes to CSV with 17 significant digits so files are
byte-identical across runs; JSON is used only for the run manifest and the
audit table.  Every run writes a manifest listing its parameters and output
files.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.

The numeric modules (solutions, verify, simulate) import numpy, so each
handler imports what it uses: `derive` runs on the standard library alone.
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
from .reduction import (EvolutionEquation, WaveFrame, check_times,
                        check_wave_number, reduce_to_ode)

if TYPE_CHECKING:
    from .simulate import Grid1D
    from .solutions import SolutionSpec
    from .verify import GridSpec

if "numpy" in sys.modules:
    # numpy is loaded already, so the numeric modules cost only their own
    # import time; importing them here keeps `import cahnallen.cli` a load
    # of the whole package in such a process (perfbench/layers.py traces
    # the modules it loads)
    from . import simulate, solutions, verify  # noqa: F401


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
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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


def _positive(text: str) -> float:
    """A finite number option that must be above zero."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _parse_grid2(text: str) -> GridSpec:
    from .verify import GridSpec

    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "grid must be xmin,xmax,nx,tmin,tmax,nt")
    xmin, xmax, nx, tmin, tmax, nt = parts
    return _checked(GridSpec, (_finite(xmin), _finite(xmax)),
                    (_finite(tmin), _finite(tmax)), int(nx), int(nt))


def _parse_grid1(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be xmin,xmax,n")
    return _finite(parts[0]), _finite(parts[1]), int(parts[2])


def _parse_profile_grid(text: str) -> tuple[float, float, int]:
    xmin, xmax, n = _parse_grid1(text)
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs at least 1 point")
    return xmin, xmax, n


def _parse_run_grid(text: str) -> Grid1D:
    from .simulate import Grid1D

    return _checked(Grid1D, *_parse_grid1(text))


def _checked(grid_type, *args):
    """grid_type(*args); the reason of its ValueError is the usage error
    (argparse would report only the name of the type function)."""
    try:
        return grid_type(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def emit_plot_data(spec: SolutionSpec, t_list: list[float],
                   x_grid: tuple[float, float, int], out_dir: str,
                   run_id: str) -> tuple[list[str], list[str]]:
    """One x,u CSV per requested time; singular zones become omitted rows."""
    import numpy as np

    xmin, xmax, n = x_grid
    xs = np.linspace(xmin, xmax, n)
    outputs: list[str] = []
    notes: list[str] = []
    for index, t in enumerate(t_list):
        xi = spec.xi(xs, t)
        mask = spec.regular_mask(xi)
        omitted = int(np.sum(~mask))
        if omitted:
            notes.append(
                f"t={_fmt(t)}: omitted {omitted} rows inside the singular"
                f" zone of {spec.entry_id}")
        us = spec.eval(xs[mask], np.full(int(np.sum(mask)), t))
        path = os.path.join(out_dir, f"{run_id}_t{index}.csv")
        _write_csv(path, ["x", "u"], [
            f"{x:.17g},{u:.17g}"
            for x, u in zip(xs[mask].tolist(), us.tolist())])
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
    from .verify import ode_residual

    entries = enumerate_catalog(args.k)
    rows = []
    for spec in entries:
        ode = ode_residual(spec)
        rows.append([
            spec.entry_id, spec.family_code, spec.family.value, spec.reading,
            spec.a0, spec.s1, spec.sw, float(spec.k),
            json.dumps(spec.params(), sort_keys=True).replace(",", ";"),
            "valid" if ode.is_valid else "invalid",
        ])
    path = os.path.join(args.out_dir, "catalog.csv")
    _write_csv(path, ["entry_id", "family_code", "family", "reading", "a0",
                      "s1", "sw", "k", "params", "validity"],
               [_cells(row) for row in rows])
    _write_manifest(args.out_dir, "catalog", {"k": args.k}, [path], [])
    sys.stdout.write(f"wrote {len(rows)} entries to {path}\n")
    return 0


def _cmd_verify(args) -> int:
    from .solutions import enumerate_catalog
    from .verify import GridSpec, classify_branches

    catalog = enumerate_catalog(args.k)
    if args.corrupt:
        from dataclasses import replace

        # a speed sign flip is not a symmetry of the equation, so matching
        # entries are guaranteed to fail the residual audit
        catalog = [
            replace(spec, w=-spec.w)
            if spec.entry_id.startswith(args.corrupt) else spec
            for spec in catalog
        ]
    grid = args.grid or GridSpec()
    audit = classify_branches(catalog, grid, args.threshold)
    payload = {
        "grid": {
            "x_range": list(grid.x_range), "t_range": list(grid.t_range),
            "nx": grid.nx, "nt": grid.nt,
        },
        "threshold": args.threshold,
        "rows": [
            {
                "entry_id": r.entry_id, "family_code": r.family_code,
                "family": r.family, "reading": r.reading, "a0": r.a0,
                "s1": r.s1, "sw": r.sw, "params": r.params,
                "pde_max_abs": r.pde_max_abs, "ode_max_abs": r.ode_max_abs,
                "verdict": "valid" if r.valid else "invalid",
            }
            for r in audit.rows
        ],
        "equivalences": [
            {
                "ab_entry": e.ab_entry, "canonical_code": e.canonical_code,
                "shift_c": e.shift_c, "max_abs_diff": e.max_abs_diff,
                "confirmed": e.confirmed,
            }
            for e in audit.equivalences
        ],
        "family_valid": audit.family_valid,
    }
    path = os.path.join(args.out_dir, "audit.json")
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(args.out_dir, "verify",
                    {"k": args.k, "threshold": args.threshold,
                     "corrupt": args.corrupt or ""}, [path], [])
    bad = sorted(code for code, ok in audit.family_valid.items() if not ok)
    if bad:
        for code in bad:
            members = [r.entry_id for r in audit.rows if r.family_code == code]
            sys.stderr.write(
                f"verification failed: no valid entry in family {code}"
                f" (entries: {', '.join(members)})\n")
        return 1
    sys.stdout.write(
        f"all {len(audit.family_valid)} families certified; audit at {path}\n")
    return 0


def _cmd_eval(args) -> int:
    spec = resolve_entry(args.entry, args.k)
    t_list = [float(s) for s in args.t.split(",")]
    if not all(math.isfinite(t) for t in t_list):
        raise ValueError(f"times must be finite numbers, got {args.t!r}")
    x_grid = args.x or (-10.0, 10.0, 201)
    outputs, notes = emit_plot_data(spec, t_list, x_grid, args.out_dir,
                                    spec.entry_id)
    _write_manifest(args.out_dir, "eval",
                    {"entry": spec.entry_id, "k": spec.k, "t": t_list,
                     "x": list(x_grid)}, outputs, notes)
    for path in outputs:
        sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_simulate(args) -> int:
    check_times(args.T, args.dt)  # before numpy loads and the derivation runs
    from .simulate import Grid1D, SimConfig, integrate

    spec = resolve_entry(args.entry, args.k)
    grid = args.grid or Grid1D(-20.0, 20.0, 801)
    scheme = {"rk4": "explicit_rk4_mol", "imex": "imex_cn"}[args.scheme]
    config = SimConfig(dt=args.dt, T=args.T, scheme=scheme)
    result = integrate(spec, grid, config)
    run_id = f"sim_{spec.entry_id}_{args.scheme}"
    outputs = []
    xs = grid.xs().tolist()
    for index, u in enumerate(result.snapshots):
        path = os.path.join(args.out_dir, f"{run_id}_t{index}.csv")
        _write_csv(path, ["x", "u"],
                   [f"{x:.17g},{v:.17g}" for x, v in zip(xs, u.tolist())])
        outputs.append(path)
    tpath = os.path.join(args.out_dir, f"{run_id}_trajectory.csv")
    _write_csv(tpath, ["t", "x_front"],
               [f"{float(t):.17g},{float(x):.17g}"
                for t, x in result.front_trajectory])
    outputs.append(tpath)
    mpath = os.path.join(args.out_dir, f"{run_id}_metrics.csv")
    _write_csv(mpath, ["t", "linf_error", "l2_error", "energy"],
               [f"{t:.17g},{e1:.17g},{e2:.17g},{en:.17g}"
                for t, e1, e2, en in zip(
                    result.times, result.linf_errors, result.l2_errors,
                    result.energy_series)])
    outputs.append(mpath)
    speed = result.measured_speed
    _write_manifest(args.out_dir, "simulate",
                    {"entry": spec.entry_id, "k": spec.k, "scheme": scheme,
                     "T": args.T, "dt": args.dt,
                     "grid": [grid.x_min, grid.x_max, grid.n],
                     "boundary": config.boundary,
                     "measured_speed": speed}, outputs, [])
    sys.stdout.write(
        f"measured front speed: {_fmt(speed) if speed is not None else 'n/a'}"
        f" (frame ratio -w/k = {_fmt(-spec.w / spec.k)})\n")
    sys.stdout.write(f"final linf error: {_fmt(result.linf_errors[-1])}\n")
    return 0


def _cmd_convergence(args) -> int:
    check_times(args.T, None)
    from .simulate import Grid1D, SimConfig, convergence_study

    spec = resolve_entry(args.entry, args.k)
    base = args.grid or Grid1D(-20.0, 20.0, 101)
    grids = [
        Grid1D(base.x_min, base.x_max, (base.n - 1) * 2**i + 1)
        for i in range(args.levels)
    ]
    config = SimConfig(T=args.T, boundary="exact_dirichlet",
                       scheme="explicit_rk4_mol")
    rows = convergence_study(spec, grids, config)
    path = os.path.join(args.out_dir, f"convergence_{spec.entry_id}.csv")
    _write_csv(path, ["h", "n", "linf_error", "observed_order"],
               [_cells([r["h"], r["n"], r["linf_error"],
                        r.get("observed_order", "")]) for r in rows])
    _write_manifest(args.out_dir, "convergence",
                    {"entry": spec.entry_id, "k": spec.k,
                     "levels": args.levels, "T": args.T,
                     "grid": [base.x_min, base.x_max, base.n]}, [path], [])
    for r in rows:
        order = r.get("observed_order")
        sys.stdout.write(
            f"h = {_fmt(r['h'])}  linf = {_fmt(r['linf_error'])}"
            + (f"  order = {_fmt(order)}" if order is not None else "") + "\n")
    return 0


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

    p = sub.add_parser("verify", help="residual audit of every catalog entry")
    p.add_argument("--k", type=float, default=1.0,
                   help="wave number (default 1.0)")
    p.add_argument("--threshold", type=_positive, default=1e-8,
                   help="validity threshold on the max residual (default 1e-8)")
    p.add_argument("--grid", type=_parse_grid2, default=None,
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
    p.add_argument("--x", type=_parse_profile_grid, default=None,
                   metavar="xmin,xmax,n",
                   help="profile grid (default -10,10,201)")
    p.add_argument("--k", type=float, default=None,
                   help="wave number (default 1.0 or the id suffix)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="finite-difference run seeded by an entry")
    p.add_argument("--entry", required=True,
                   help="catalog entry id, optionally with a k<value> suffix")
    p.add_argument("--grid", type=_parse_run_grid,
                   default=None, metavar="xmin,xmax,n",
                   help="run grid (default -20,20,801)")
    p.add_argument("--scheme", choices=("rk4", "imex"), default="rk4",
                   help="time stepper (default rk4)")
    p.add_argument("--T", type=float, default=1.0,
                   help="final time (default 1.0)")
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default 0.4*h^2/2)")
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
                   default=None, metavar="xmin,xmax,n",
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
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
