"""Batch command-line front end.

Subcommands
-----------
validate     check the whole config as the run subcommands would
relax        space-homogeneous relaxation run, diagnostics to CSV
wave         1-D transport + relaxation run, diagnostics to CSV
coeffs       expansion constants, prefactors and relaxation rates as CSV
persistence  persistence-ratio table over a log kappa grid as CSV
scan         sweep delta or alpha, comparing fitted and analytic rates

Exit codes: 0 success, 1 validation failure or input error, 2 numerical
failure.
Every table, the files and the standard output alike, goes through one
writer: UTF-8, comma-separated, 17 significant digits, one header row,
every line ending in a newline, and deterministic for a fixed config.
`--plot X,Y` draws columns X and Y of the table the command has just
written, from memory, as an SVG beside its CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import chapman
from .config import RunConfig, parse_config
from .errors import (CflError, ConfigError, DegenerateDensityError,
                     InadmissibleTargetError, InsufficientWindowError,
                     NoConvergenceError, NotSpdError, SingularPrefactorError,
                     ValidationFailureError)
from .params import Variant, derive_frequencies, validate
from .persistence import persistence_lower_bound, persistence_unequal_mass
from .diagnostics import Diagnostics, diagnostics_header
from .solver import Scenario, SpeciesInit, run_scenario
from .svgplot import line_plot_svg
from .grid import VelocityGrid


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _write_table(header: list[str], rows, path: str | None = None) -> None:
    """Write `header`, then each row of numbers in `_fmt`: comma-separated,
    every line ending in a newline, to `path` or to standard output.
    Each line is written as it is formatted, so a table is never held
    as text; `rows` may be a generator."""
    with (open(path, "w", encoding="utf-8") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_diagnostics_csv(diag: Diagnostics, path: str) -> None:
    """The diagnostics table as CSV: its rows under its columns' names."""
    _write_table(diagnostics_header(diag.dim),
                 (row.tolist() for row in diag.table), path)


def _plot(names: str, path: str, header: list[str], rows) -> None:
    """An SVG line plot of the columns `names` ("X,Y") of the table just
    written to `path`, its rows (a float array is read in place), beside
    it."""
    names = names.split(",")
    if len(names) != 2:
        raise ConfigError("--plot expects two comma-separated column names")
    for name in names:
        if name not in header:
            raise ConfigError(f"--plot column {name!r} not in {path}")
    table = np.asarray(rows, dtype=float)
    x, y = (table[:, header.index(name)] for name in names)
    out = os.path.splitext(path)[0] + f".{names[0]}_{names[1]}.svg"
    line_plot_svg(x, y, out, xlabel=names[0], ylabel=names[1],
                  title=os.path.basename(path))
    print(out)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    scen = cfg.make_scenario()
    if args.variant:
        es = replace(scen.params.es, variant=Variant(args.variant))
        scen = replace(scen, params=replace(scen.params, es=es))
    if args.integrator:
        scen = replace(scen, integrator=args.integrator)
    return replace(cfg, scenario=scen)


def _cmd_validate(cfg: RunConfig, args) -> int:
    if cfg.scan_spec is not None:  # the scan's runs are checked as built
        _scan_runs(cfg)
    print("ok")
    return 0


def _cmd_run(cfg: RunConfig, args) -> int:
    """relax: space-homogeneous run; wave: 1-D run, 32 cells by default."""
    scen = cfg.make_scenario()
    if args.subcommand == "relax":
        scen = replace(scen, cells=0)
    elif scen.cells == 0:
        scen = replace(scen, cells=32)
    diag = run_scenario(scen)
    path = os.path.join(args.outdir, f"{args.subcommand}.csv")
    write_diagnostics_csv(diag, path)
    print(path)
    if args.plot:
        _plot(args.plot, path, diagnostics_header(diag.dim), diag.table)
    return 0


def _densities(cfg: RunConfig, command: str) -> tuple[float, float]:
    """Both species' initial densities; an absent species is an input
    error of `command`, which describes the pair."""
    scen = cfg.make_scenario()
    if scen.species1 is None or scen.species2 is None:
        raise ConfigError(f"{command} needs both species")
    return scen.species1.n, scen.species2.n


def _cmd_coeffs(cfg: RunConfig, args) -> int:
    p = cfg.params
    inter, mix, es = p.interaction, p.mixing, p.es
    n1, n2 = _densities(cfg, "coeffs")
    m1, m2 = p.species1.m, p.species2.m
    consts = chapman.ce_constants(m1, m2, inter.epsilon, inter.beta1,
                                  inter.beta2, n1, n2, mix.delta, mix.alpha)
    pref = chapman.expansion_prefactors(consts, n1, n2, m1, m2)
    freq = derive_frequencies(inter)
    rates = chapman.analytic_rates(inter.nu12, mix.delta, mix.alpha, n1, n2,
                                   m1, m2, nu=freq.nu11, n=n1, mu=es.mu1)
    columns = {"A": consts.A, "c1": consts.c1, "c2": consts.c2,
               "lambda_u": rates.lambda_u, "lambda_T": rates.lambda_T,
               "lambda_shear": rates.lambda_shear}
    for name, K in (("Ku", pref.Ku), ("KT", pref.KT)):
        columns.update({f"{name}{i + 1}{j + 1}": K[i, j]
                        for i in range(2) for j in range(2)})
    for name, value in columns.items():
        if not math.isfinite(value):  # extreme densities overflow them
            raise SingularPrefactorError(
                f"coeffs column {name} is not finite ({value}) for "
                f"densities n1={n1}, n2={n2}")
    _write_table(list(columns), [columns.values()])
    return 0


def _cmd_persistence(cfg: RunConfig, args) -> int:
    spec = cfg.persistence_spec
    kappas = np.logspace(np.log10(spec["kappa_min"]),
                         np.log10(spec["kappa_max"]), spec["count"])
    m1, m2 = cfg.params.species1.m, cfg.params.species2.m
    floor = persistence_lower_bound(m1, m2)
    _write_table(["kappa", "ratio", "lower_bound"],
                 [(k, persistence_unequal_mass(k, m1, m2), floor)
                  for k in kappas.tolist()])
    return 0


def _scan_scenario(cfg: RunConfig, parameter: str, value: float,
                   grid: VelocityGrid) -> tuple[Scenario, float]:
    """The relaxation run on `grid` for one scan value, and its rate."""
    params = replace(cfg.params,
                     mixing=replace(cfg.params.mixing, **{parameter: value}))
    violations = validate(params)
    if violations:
        raise ValidationFailureError(violations)
    m1, m2 = params.species1.m, params.species2.m
    n1, n2 = _densities(cfg, "scan")
    rates = chapman.analytic_rates(params.interaction.nu12, params.mixing.delta,
                                   params.mixing.alpha, n1, n2, m1, m2)
    lam = rates.lambda_u if parameter == "delta" else rates.lambda_T
    if lam <= 0.0:
        raise ValidationFailureError(
            [f"scan value {parameter}={value} gives zero relaxation rate"])
    if parameter == "delta":
        gap = 1e-3 * min((1.0 / m1) ** 0.5, (1.0 / m2) ** 0.5)
        sp1 = SpeciesInit(n=n1, u=(0.5 * gap, 0.0, 0.0), T=1.0)
        sp2 = SpeciesInit(n=n2, u=(-0.5 * gap, 0.0, 0.0), T=1.0)
    else:
        sp1 = SpeciesInit(n=n1, u=(0.0, 0.0, 0.0), T=1.0 + 5e-4)
        sp2 = SpeciesInit(n=n2, u=(0.0, 0.0, 0.0), T=1.0 - 5e-4)
    freq = derive_frequencies(params.interaction)
    nu_max = max(freq.nu11 * n1 + freq.nu12 * n2,
                 freq.nu22 * n2 + freq.nu21 * n1)
    dt = min(0.4 / nu_max, 0.25 / lam)
    t_end = 14.0 / lam
    cadence = max(1, int(round(t_end / dt / 2000)))
    return Scenario(params=params, grid=grid, species1=sp1, species2=sp2,
                    dt=dt, t_end=t_end, output_every=cadence,
                    integrator="rk4", moment_matching=True), lam


def _scan_runs(cfg: RunConfig) -> list[tuple[float, Scenario, float]]:
    """Each scan value with its run and analytic rate, all built (and
    so checked) before any of them runs.  The runs share one lattice,
    sized to the thermal widths at T = 1: six widths of extent for the
    lighter species, one cell per width for the heavier."""
    spec = cfg.scan_spec
    m1, m2 = cfg.params.species1.m, cfg.params.species2.m
    sigma_max = 1.0 / math.sqrt(min(m1, m2))
    sigma_min = 1.0 / math.sqrt(max(m1, m2))
    vmax = 6.0 * sigma_max
    points = max(12, math.ceil(2.0 * vmax / sigma_min))
    try:
        grid = VelocityGrid(dim=3, vmin=-vmax, vmax=vmax, points=points)
    except ValueError as exc:
        raise ConfigError(f"masses {m1}, {m2} size the scan lattice: "
                          f"{exc}") from None
    values = np.linspace(spec["start"], spec["stop"], spec["count"])
    return [(value, *_scan_scenario(cfg, spec["parameter"], value, grid))
            for value in values.tolist()]


def _cmd_scan(cfg: RunConfig, args) -> int:
    if cfg.scan_spec is None:
        raise ConfigError("scan subcommand needs a 'scan' config section")
    parameter = cfg.scan_spec["parameter"]
    rows = []
    for value, scen, analytic in _scan_runs(cfg):
        diag = run_scenario(scen)
        series = (diag.velocity_gap() if parameter == "delta"
                  else diag.temperature_gap())
        try:
            measured = chapman.fit_decay_rate(diag.times, series)
        except InsufficientWindowError as exc:
            raise InsufficientWindowError(
                f"scan value {parameter}={value}: {exc}") from exc
        rows.append((value, measured, analytic))
    path = os.path.join(args.outdir, "scan.csv")
    header = ["parameter", "lambda_measured", "lambda_analytic"]
    _write_table(header, rows, path)
    print(path)
    if args.plot:
        _plot(args.plot, path, header, rows)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "relax": _cmd_run,
    "wave": _cmd_run,
    "coeffs": _cmd_coeffs,
    "persistence": _cmd_persistence,
    "scan": _cmd_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgkmix",
        description="Two-species BGK / ES-BGK mixture solver and calculators")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("-c", "--config", required=True,
                        help="path to the JSON config document")
    parser.add_argument("-o", "--outdir", default=".",
                        help="directory for output files")
    parser.add_argument("--integrator", choices=["rk4", "exp"], default=None)
    parser.add_argument("--variant", choices=[v.value for v in Variant])
    parser.add_argument("--plot", default=None, metavar="X,Y",
                        help="emit an SVG line plot of two CSV columns")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = None
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = _apply_overrides(parse_config(fh.read()), args)
        os.makedirs(args.outdir, exist_ok=True)
        return _COMMANDS[args.subcommand](cfg, args)
    except ValidationFailureError as exc:
        # validate reports the configured bundle's violations as its output
        report = args.subcommand == "validate" and cfg is None
        for violation in exc.violations:
            print(violation, file=sys.stdout if report else sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else
              "error: out of memory", file=sys.stderr)
        return 1
    except (NotSpdError, NoConvergenceError, InadmissibleTargetError, CflError,
            SingularPrefactorError, DegenerateDensityError,
            InsufficientWindowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
