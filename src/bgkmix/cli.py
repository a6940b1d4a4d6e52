"""Batch command-line front end.

Subcommands
-----------
validate     print admissibility violations of the configured bundle
relax        space-homogeneous relaxation run, diagnostics to CSV
wave         1-D transport + relaxation run, diagnostics to CSV
coeffs       expansion constants, prefactors and relaxation rates as CSV
persistence  persistence-ratio table over a log kappa grid as CSV
scan         sweep delta or alpha, comparing fitted and analytic rates

Exit codes: 0 success, 1 validation failure or input error, 2 numerical
failure.
CSV output is UTF-8, comma-separated, 17 significant digits, one header
row, and deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import chapman
from .config import RunConfig, parse_config
from .errors import (CflError, ConfigError, DegenerateDensityError,
                     NoConvergenceError, NotSpdError, SingularPrefactorError,
                     ValidationFailureError)
from .params import Variant, derive_frequencies, validate
from .persistence import persistence_lower_bound, persistence_unequal_mass
from .solver import Diagnostics, Scenario, SpeciesInit, run_scenario
from .svgplot import line_plot_svg
from .grid import MomentSet, VelocityGrid, _tri_index

_AXES = "xyz"


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def diagnostics_header(dim: int) -> list[str]:
    cols = ["t"]
    for k in (1, 2):
        cols.append(f"n{k}")
        cols += [f"u{k}{_AXES[i]}" for i in range(dim)]
        cols.append(f"T{k}")
        cols += [f"P{k}{_AXES[i]}{_AXES[j]}" for i, j in _tri_index(dim)]
        cols += [f"q{k}{_AXES[i]}" for i in range(dim)]
    cols += ["total_mass1", "total_mass2"]
    cols += [f"total_momentum_{_AXES[i]}" for i in range(dim)]
    cols += ["total_energy", "H", "aniso1", "aniso2", "negativity_flag"]
    return cols


def _species_cells(mom: MomentSet | None, dim: int) -> list[str]:
    if mom is None:
        return ["0"] * (2 + 2 * dim + len(_tri_index(dim)))
    cells = [_fmt(mom.n)]
    cells += [_fmt(mom.u[i]) for i in range(dim)]
    cells.append(_fmt(mom.T))
    cells += [_fmt(mom.P[i, j]) for i, j in _tri_index(dim)]
    cells += [_fmt(mom.Qtilde[i]) for i in range(dim)]
    return cells


def write_diagnostics_csv(diag: Diagnostics, path: str) -> None:
    dim = diag.dim
    lines = [",".join(diagnostics_header(dim))]
    for r in diag.records:
        cells = [_fmt(r.t)]
        cells += _species_cells(r.mom1, dim)
        cells += _species_cells(r.mom2, dim)
        cells += [_fmt(r.mass1), _fmt(r.mass2)]
        cells += [_fmt(r.momentum[i]) for i in range(dim)]
        cells += [_fmt(r.energy), _fmt(r.h), _fmt(r.aniso1), _fmt(r.aniso2)]
        cells.append("1" if r.negative else "0")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv_columns(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    cols = {}
    for i, name in enumerate(header):
        cols[name] = np.array([float(row[i]) for row in data])
    return cols


def _maybe_plot(args, csv_path: str) -> None:
    if not args.plot:
        return
    names = args.plot.split(",")
    if len(names) != 2:
        raise ConfigError("--plot expects two comma-separated column names")
    cols = _read_csv_columns(csv_path)
    for name in names:
        if name not in cols:
            raise ConfigError(f"--plot column {name!r} not in {csv_path}")
    out = os.path.splitext(csv_path)[0] + f".{names[0]}_{names[1]}.svg"
    line_plot_svg(cols[names[0]], cols[names[1]], out,
                  xlabel=names[0], ylabel=names[1],
                  title=os.path.basename(csv_path))
    print(out)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    params = cfg.params
    if args.variant:
        try:
            variant = Variant(args.variant)
        except ValueError:
            raise ConfigError(f"unknown variant {args.variant!r}") from None
        params = replace(params, es=replace(params.es, variant=variant))
    scen = dict(cfg.scenario_spec)
    if args.integrator:
        scen["integrator"] = args.integrator
    return replace(cfg, params=params, scenario_spec=scen)


def _cmd_validate(cfg: RunConfig, args) -> int:
    print("ok")
    return 0


def _cmd_run(cfg: RunConfig, args) -> int:
    """relax: space-homogeneous run; wave: 1-D run, 32 cells by default."""
    scen = cfg.make_scenario()
    if args.subcommand == "relax":
        scen = replace(scen, cells=0)
    elif scen.cells <= 0:
        scen = replace(scen, cells=32)
    diag = run_scenario(scen)
    path = os.path.join(args.outdir, f"{args.subcommand}.csv")
    write_diagnostics_csv(diag, path)
    print(path)
    _maybe_plot(args, path)
    return 0


def _cmd_coeffs(cfg: RunConfig, args) -> int:
    p = cfg.params
    inter, mix, es = p.interaction, p.mixing, p.es
    s1 = cfg.scenario_spec["species1"]
    s2 = cfg.scenario_spec["species2"]
    n1 = s1.n if s1 is not None else 1.0
    n2 = s2.n if s2 is not None else 1.0
    m1, m2 = p.species1.m, p.species2.m
    consts = chapman.ce_constants(m1, m2, inter.epsilon, inter.beta1,
                                  inter.beta2, n1, n2, mix.delta, mix.alpha)
    pref = chapman.expansion_prefactors(consts, n1, n2, m1, m2)
    freq = derive_frequencies(inter)
    rates = chapman.analytic_rates(inter.nu12, mix.delta, mix.alpha, n1, n2,
                                   m1, m2, nu=freq.nu11, n=n1, mu=es.mu1)
    header = ["A", "c1", "c2", "lambda_u", "lambda_T", "lambda_shear",
              "Ku11", "Ku12", "Ku21", "Ku22",
              "KT11", "KT12", "KT21", "KT22"]
    values = [consts.A, consts.c1, consts.c2,
              rates.lambda_u, rates.lambda_T, rates.lambda_shear,
              pref.Ku[0, 0], pref.Ku[0, 1], pref.Ku[1, 0], pref.Ku[1, 1],
              pref.KT[0, 0], pref.KT[0, 1], pref.KT[1, 0], pref.KT[1, 1]]
    print(",".join(header))
    print(",".join(_fmt(v) for v in values))
    return 0


def _cmd_persistence(cfg: RunConfig, args) -> int:
    spec = cfg.persistence_spec
    kappas = np.logspace(np.log10(spec["kappa_min"]),
                         np.log10(spec["kappa_max"]), spec["count"])
    m1, m2 = cfg.params.species1.m, cfg.params.species2.m
    floor = persistence_lower_bound(m1, m2)
    print("kappa,ratio,lower_bound")
    for k in kappas:
        ratio = persistence_unequal_mass(float(k), m1, m2)
        print(f"{_fmt(k)},{_fmt(ratio)},{_fmt(floor)}")
    return 0


def _scan_scenario(cfg: RunConfig, parameter: str,
                   value: float) -> tuple[Scenario, float]:
    """The relaxation run for one scan value, and its analytic rate."""
    params = replace(cfg.params,
                     mixing=replace(cfg.params.mixing, **{parameter: value}))
    violations = validate(params)
    if violations:
        raise ValidationFailureError(violations)
    m1, m2 = params.species1.m, params.species2.m
    # size the lattice to the thermal widths at T = 1: six widths of
    # extent for the lighter species, one cell per width for the heavier
    sigma_max = 1.0 / math.sqrt(min(m1, m2))
    sigma_min = 1.0 / math.sqrt(max(m1, m2))
    vmax = 6.0 * sigma_max
    points = max(12, math.ceil(2.0 * vmax / sigma_min))
    grid = VelocityGrid(dim=3, vmin=-vmax, vmax=vmax, points=points)
    species = (cfg.scenario_spec["species1"], cfg.scenario_spec["species2"])
    if any(sp is None for sp in species):
        raise ConfigError("scan needs both species")
    n1, n2 = (sp.n for sp in species)
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


def _cmd_scan(cfg: RunConfig, args) -> int:
    if cfg.scan_spec is None:
        raise ConfigError("scan subcommand needs a 'scan' config section")
    spec = cfg.scan_spec
    parameter = spec["parameter"]
    values = np.linspace(spec["start"], spec["stop"], spec["count"])
    rows = []
    for value in values:
        scen, analytic = _scan_scenario(cfg, parameter, float(value))
        diag = run_scenario(scen)
        series = diag.velocity_gap() if parameter == "delta" \
            else diag.temperature_gap()
        measured = chapman.fit_decay_rate(diag.times, series)
        rows.append((float(value), measured, analytic))
    path = os.path.join(args.outdir, "scan.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("parameter,lambda_measured,lambda_analytic\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(path)
    _maybe_plot(args, path)
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
    parser.add_argument("--variant", default=None,
                        choices=["bgk", "es-self", "es-full-a", "es-full-b"])
    parser.add_argument("--plot", default=None, metavar="X,Y",
                        help="emit an SVG line plot of two CSV columns")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
    except ValidationFailureError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr if args.subcommand != "validate"
                  else sys.stdout)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = _apply_overrides(cfg, args)
        os.makedirs(args.outdir, exist_ok=True)
        return _COMMANDS[args.subcommand](cfg, args)
    except ValidationFailureError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotSpdError, NoConvergenceError, CflError,
            SingularPrefactorError, DegenerateDensityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
