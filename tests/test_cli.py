import functools
import json
import operator
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bgkmix import chapman, cli
from bgkmix import config as configmod
from bgkmix.cli import diagnostics_header, main
from bgkmix.config import parse_config
from bgkmix.errors import (ConfigError, InsufficientWindowError,
                           MissingKeyError, UnknownVariantError,
                           ValidationFailureError)
from bgkmix.solver import Diagnostics
from bgkmix.svgplot import line_plot_svg


def base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "masses": [1.0, 1.0],
        "interaction": {"nu12": 1.0, "epsilon": 1.0,
                        "beta1": 1.0, "beta2": 1.0},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        scen = parse_config(json.dumps(base_doc())).make_scenario()
        grid = scen.grid
        assert (grid.dim, grid.vmin.tolist(), grid.vmax.tolist(),
                grid.points.tolist()) == (3, [-8.0] * 3, [8.0] * 3, [32] * 3)
        assert (scen.dt, scen.t_end) == (0.05, 1.0)
        assert scen.integrator == "exp"
        assert scen.moment_matching is True
        assert scen.species1.n == 1.0
        assert scen.params.mixing.delta == 1.0
        assert scen.params.mixing.gamma == 0.0

    def test_missing_masses(self):
        doc = base_doc()
        del doc["masses"]
        with pytest.raises(MissingKeyError) as err:
            parse_config(json.dumps(doc))
        assert err.value.key == "masses"

    def test_missing_nested_key(self):
        doc = base_doc()
        del doc["interaction"]["nu12"]
        with pytest.raises(MissingKeyError) as err:
            parse_config(json.dumps(doc))
        assert "nu12" in err.value.key

    def test_gamma_above_bound_fails_validation(self):
        doc = base_doc(mixing={"delta": 0.5, "alpha": 0.5, "gamma": 10.0})
        with pytest.raises(ValidationFailureError) as err:
            parse_config(json.dumps(doc))
        assert any("gamma" in v for v in err.value.violations)

    def test_unknown_variant(self):
        doc = base_doc(es={"variant": "super-bgk"})
        with pytest.raises(UnknownVariantError):
            parse_config(json.dumps(doc))

    def test_rejects_other_schema_version(self):
        with pytest.raises(Exception, match="schema_version"):
            parse_config(json.dumps(base_doc(schema_version=99)))

    def test_schema_version_is_an_integer(self):
        """JSON true is not version 1, though True == 1; 1.0 is."""
        with pytest.raises(ConfigError, match="^schema_version must be an "
                           "integer"):
            parse_config(json.dumps(base_doc(schema_version=True)))
        parse_config(json.dumps(base_doc(schema_version=1.0)))

    def test_integer_field_takes_an_integral_number(self):
        scen = parse_config(json.dumps(
            base_doc(scenario={"output_every": 2.0}))).make_scenario()
        assert scen.output_every == 2 and isinstance(scen.output_every, int)

    def test_scalar_velocity_is_the_x_component(self):
        scen = parse_config(json.dumps(
            base_doc(scenario={"species1": {"u": 0.2}}))).make_scenario()
        assert scen.species1.u == (0.2, 0.0, 0.0)

    def test_descending_persistence_grid_is_allowed(self):
        spec = parse_config(json.dumps(base_doc(persistence={
            "kappa_min": 10.0, "kappa_max": 0.1, "count": 1}))
            ).persistence_spec
        assert spec == {"kappa_min": 10.0, "kappa_max": 0.1, "count": 1}


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCliCommands:
    def relax_doc(self, **scenario):
        scen = {
            "species1": {"n": 1.0, "u": [0.1, 0, 0], "T": 1.0},
            "species2": {"n": 1.0, "u": [0.1, 0, 0], "T": 1.0},
            "dt": 0.1, "t_end": 0.5,
        }
        scen.update(scenario)
        return base_doc(
            mixing={"delta": 0.5, "alpha": 0.5, "gamma": 0.0},
            grid={"points": 16},
            scenario=scen)

    def wave_doc(self, **scenario):
        doc = self.relax_doc(**{"dt": 0.005, "t_end": 0.02, "cells": 8,
                                "length": 1.0, **scenario})
        doc["grid"] = {"dim": 1, "points": 16, "vmin": -4.0, "vmax": 4.0}
        return doc

    def run_and_validate(self, tmp_path, capsys, subcommand, doc):
        """Exit code and stderr lines of `subcommand` on `doc`, once
        `validate` on the same config is seen to give the same two; the
        subcommand writes no CSV."""
        path = write_config(tmp_path, doc)
        results = []
        for command in (subcommand, "validate"):
            rc = main([command, "-c", path, "-o", str(tmp_path)])
            results.append((rc, capsys.readouterr().err.strip().splitlines()))
        assert results[0] == results[1]
        assert not (tmp_path / f"{subcommand}.csv").exists()
        return results[0]

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", "-c", write_config(tmp_path, base_doc())])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        doc = base_doc(es={"variant": "bgk", "mu1": 2.0})
        rc = main(["validate", "-c", write_config(tmp_path, doc)])
        assert rc == 1
        assert "mu1" in capsys.readouterr().out

    def test_invalid_config_exits_one_for_any_command(self, tmp_path):
        doc = base_doc(es={"variant": "bgk", "mu1": 2.0})
        rc = main(["relax", "-c", write_config(tmp_path, doc)])
        assert rc == 1

    def test_nan_parameter_exits_one_naming_it(self, tmp_path, capsys):
        doc = self.relax_doc()
        doc["interaction"]["nu12"] = float("nan")
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        assert "nu12 must be finite and positive (got nan)" in \
            capsys.readouterr().err
        assert not (tmp_path / "relax.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["dt", "t_end"])
    def test_non_finite_time_exits_one_naming_it(self, tmp_path, capsys,
                                                 field, value):
        rc, err = self.run_and_validate(tmp_path, capsys, "relax",
                                        self.relax_doc(**{field: value}))
        assert rc == 1
        assert err == [f"error: {field} must be finite and positive "
                       f"(got {value})"]

    # each run rule a scenario breaks: (subcommand, document, stderr line)
    RULES = {
        "dt-negative": ("relax", dict(dt=-1.0),
                        "error: dt must be finite and positive (got -1.0)"),
        "t_end-below-dt": ("relax", dict(dt=0.1, t_end=0.05),
                           "error: t_end must be at least one step"),
        "splitting-typo": ("wave", dict(splitting="strnag"),
                           "error: unknown splitting 'strnag'"),
        "output_every-zero": ("relax", dict(output_every=0),
                              "error: output_every must be >= 1"),
        "cells-negative": ("wave", dict(cells=-3),
                           "error: cells must be >= 0 (got -3)"),
        "length-zero": ("wave", dict(length=0.0), "error: length must be "
                        "finite and positive (got 0.0)"),
        "length-negative": ("wave", dict(length=-1.0), "error: length must "
                            "be finite and positive (got -1.0)"),
        "n-negative": ("relax", dict(species1={"n": -1.0}),
                       "error: species1.n must be finite and >= 0 "
                       "(got -1.0)"),
        "T-negative": ("relax", dict(species1={"T": -1.0}),
                       "error: species1.T must be finite and positive "
                       "(got -1.0)"),
        "scan-zero-rate": ("scan", None,
                           "scan value delta=1.0 gives zero relaxation rate"),
        "amplitude-nan": ("wave", dict(wave_amplitude=float("nan")),
                          "error: wave_amplitude nan gives a cell density "
                          "<= 0"),
        "amplitude-nan-homogeneous": ("relax", dict(wave_amplitude=float(
            "nan")), "error: wave_amplitude must be finite (got nan)"),
        # a scenario that sets cells gets the 1-D document of wave_doc
        "tensor-negative": ("relax", dict(cells=0, species1={
            "tensor": [[-1.0]]}), "error: species1.tensor must be a finite "
            "symmetric positive-definite 1x1 matrix (got [[-1.0]])"),
        "tensor-nan": ("relax", dict(cells=0, species1={
            "tensor": [[float("nan")]]}), "error: species1.tensor must be a "
            "finite symmetric positive-definite 1x1 matrix (got [[nan]])"),
        "u-nan": ("relax", dict(cells=0, species1={"u": [float("nan")]}),
                  "error: species1.u must be finite (got (nan,))"),
        "steps-overflow": ("relax", dict(dt=1e-10, t_end=1e300),
                           "error: t_end / dt must be a finite number of "
                           "steps (got inf)"),
    }

    @pytest.mark.parametrize("case", list(RULES))
    def test_run_rule_exits_one_before_running(self, tmp_path, capsys,
                                               monkeypatch, case):
        subcommand, scenario, line = self.RULES[case]
        if subcommand == "scan":
            doc = base_doc(
                mixing={"delta": 0.0, "alpha": 0.5, "gamma": 0.0},
                scan={"parameter": "delta", "start": 0.0, "stop": 1.0,
                      "count": 3})
        else:
            doc = (self.wave_doc if subcommand == "wave" or "cells" in scenario
                   else self.relax_doc)(**scenario)
        monkeypatch.setattr(cli, "run_scenario",
                            lambda scen: pytest.fail("a run was started"))
        rc, err = self.run_and_validate(tmp_path, capsys, subcommand, doc)
        assert (rc, err) == (1, [line])

    # the key an error names: (where it sits in the document, bad value)
    MISTYPED = {
        "scenario.dt": (("scenario", "dt"), "0.05"),
        "scenario.output_every": (("scenario", "output_every"), "x"),
        "scenario.cells": (("scenario", "cells"), "x"),
        "scenario.moment_matching": (("scenario", "moment_matching"),
                                     "false"),
        "masses[0]": (("masses", 0), "a"),
        "scenario.species1.n": (("scenario", "species1", "n"), "x"),
        "grid.points": (("grid", "points"), [16, "x", 16]),
        "interaction": (("interaction",), 3),
    }

    @pytest.mark.parametrize("key", list(MISTYPED))
    def test_mistyped_field_exits_one_naming_it(self, tmp_path, capsys, key):
        (*path, name), value = self.MISTYPED[key]
        doc = self.relax_doc()
        functools.reduce(operator.getitem, path, doc)[name] = value
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be ")
        assert not (tmp_path / "relax.csv").exists()

    # a value the config reader refuses: (subcommand, where it sits in
    # the document, the value, the one stderr line)
    REFUSED = {
        "mixing-not-object": ("relax", ("mixing",), 3,
                              "error: mixing must be an object (got 3)"),
        "species-not-object": ("relax", ("scenario", "species1"), 3,
                               "error: scenario.species1 must be an object "
                               "or null (got 3)"),
        "tensor-shape": ("relax", ("scenario", "species1", "tensor"),
                         [[1.0, 0.0], [0.0, 1.0]],
                         "error: scenario.species1.tensor must be 3x3"),
        "masses-one": ("relax", ("masses",), [1.0],
                       "error: masses must be a two-element list"),
        "masses-scalar": ("relax", ("masses",), 1.0,
                          "error: masses must be a two-element list"),
        "non-integral-integer": ("relax", ("scenario", "output_every"), 2.5,
                                 "error: scenario.output_every must be an "
                                 "integer (got 2.5)"),
        "integer-beyond-float": ("relax", ("scenario", "dt"), 10 ** 400,
                                 "error: scenario.dt is out of range"),
        "scan-parameter": ("scan", ("scan", "parameter"), "gamma",
                           "error: scan parameter must be 'delta' or "
                           "'alpha' (got 'gamma')"),
        "scan-count": ("scan", ("scan", "count"), 1,
                       "error: scan count must be at least 2"),
        "vmin-nan": ("relax", ("grid", "vmin"), float("nan"),
                     "error: vmin must be finite (got nan)"),
        "vmax-inf": ("relax", ("grid", "vmax"), float("inf"),
                     "error: vmax must be finite (got inf)"),
        "vmin-minus-inf": ("relax", ("grid", "vmin"), -float("inf"),
                           "error: vmin must be finite (got -inf)"),
        "kappa_min-zero": ("persistence", ("persistence", "kappa_min"), 0.0,
                           "error: persistence.kappa_min must be finite and "
                           "positive (got 0.0)"),
        "kappa_min-negative": ("persistence", ("persistence", "kappa_min"),
                               -1, "error: persistence.kappa_min must be "
                               "finite and positive (got -1.0)"),
        "kappa_max-nan": ("persistence", ("persistence", "kappa_max"),
                          float("nan"), "error: persistence.kappa_max must be "
                          "finite and positive (got nan)"),
        "kappa_max-inf": ("persistence", ("persistence", "kappa_max"),
                          float("inf"), "error: persistence.kappa_max must be "
                          "finite and positive (got inf)"),
        "count-negative": ("persistence", ("persistence", "count"), -2,
                           "error: persistence.count must be at least 1 "
                           "(got -2)"),
        "count-zero": ("persistence", ("persistence", "count"), 0,
                       "error: persistence.count must be at least 1 (got 0)"),
        "dim-beyond-index": ("relax", ("grid", "dim"), 1e300,
                             f"error: dim must be 1, 2 or 3 (got "
                             f"{int(1e300)})"),
    }

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_refused_value_exits_one_naming_it(self, tmp_path, capsys, case):
        """The subcommand and validate alike: exit 1, one error line and
        nothing on stdout."""
        subcommand, (*path, name), value, line = self.REFUSED[case]
        doc = self.relax_doc()
        doc.update(persistence={"count": 3}, scan={
            "parameter": "delta", "start": 0.0, "stop": 0.4, "count": 2})
        functools.reduce(operator.getitem, path, doc)[name] = value
        config = write_config(tmp_path, doc)
        for command in (subcommand, "validate"):
            rc = main([command, "-c", config, "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (1, "", line + "\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, start", [
        ("{", "error: config is not valid JSON: "),
        ("[1, 2]", "error: config root must be a JSON object"),
        (json.dumps(base_doc())[:-1] + ', "persistence": {"kappa_max": 1e400}}',
         "error: persistence.kappa_max must be finite and positive (got inf)"),
    ], ids=["not-json", "root-not-object", "kappa-beyond-float"])
    def test_unreadable_document_exits_one(self, tmp_path, capsys, text,
                                           start):
        config = tmp_path / "config.json"
        config.write_text(text)
        for command in ("persistence", "validate"):
            rc = main([command, "-c", str(config)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(start)

    # the full path of a misspelt key, one per section, and its value
    MISSPELT = {
        "mixng": {"delta": 0.3},
        "interaction.nu_12": 1.0,
        "mixing.dleta": 0.3,
        "es.mu_1": 0.1,
        "grid.point": 16,
        "scenario.dtt": 0.01,
        "scenario.species1.uu": [0.1, 0.0, 0.0],
        "scenario.species2.TT": 5.0,
        "scan.cuont": 3,
        "persistence.kappa": 1.0,
    }

    @pytest.mark.parametrize("key", list(MISSPELT))
    def test_misspelt_key_exits_one_naming_it(self, tmp_path, capsys, key):
        doc = self.relax_doc()
        doc.update(es={"variant": "bgk"}, persistence={"count": 20},
                   scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                         "count": 2})
        *path, name = key.split(".")
        functools.reduce(lambda d, k: d.setdefault(k, {}), path,
                         doc)[name] = self.MISSPELT[key]
        rc, err = self.run_and_validate(tmp_path, capsys, "relax", doc)
        assert (rc, err) == (1, [f"error: unknown config key {key}"])

    def test_relax_on_equilibrium_rows_identical(self, tmp_path):
        path = write_config(tmp_path, self.relax_doc())
        rc = main(["relax", "-c", path, "-o", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "relax.csv")
        assert header == diagnostics_header(3)
        assert len(rows) == 6
        first = np.array([float(x) for x in rows[0][1:]])
        for row in rows[1:]:
            assert len(row) == len(header)
            vals = np.array([float(x) for x in row[1:]])
            assert np.max(np.abs(vals - first)) < 1e-12

    def test_csv_deterministic_across_runs(self, tmp_path):
        doc = self.relax_doc(
            species2={"n": 0.8, "u": [-0.2, 0.1, 0], "T": 1.2})
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        path = write_config(tmp_path, doc)
        assert main(["relax", "-c", path, "-o", str(out1)]) == 0
        assert main(["relax", "-c", path, "-o", str(out2)]) == 0
        assert (out1 / "relax.csv").read_bytes() == \
            (out2 / "relax.csv").read_bytes()

    def test_plot_emits_svg(self, tmp_path):
        path = write_config(tmp_path, self.relax_doc())
        rc = main(["relax", "-c", path, "-o", str(tmp_path),
                   "--plot", "t,H"])
        assert rc == 0
        svg = tmp_path / "relax.t_H.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_plot_draws_the_table_it_wrote(self, tmp_path):
        """On a relaxing two-species run H moves, and the SVG drawn from
        the table in memory is the one drawn from the CSV as written."""
        doc = self.relax_doc(
            species2={"n": 0.8, "u": [-0.2, 0.1, 0], "T": 1.2})
        path = write_config(tmp_path, doc)
        assert main(["relax", "-c", path, "-o", str(tmp_path),
                     "--plot", "t,H"]) == 0
        header, rows = read_rows(tmp_path / "relax.csv")
        t, h = ([float(row[header.index(name)]) for row in rows]
                for name in ("t", "H"))
        assert max(h) - min(h) > 1e-6 * abs(h[0])
        line_plot_svg(t, h, str(tmp_path / "from_csv.svg"), xlabel="t",
                      ylabel="H", title="relax.csv")
        assert (tmp_path / "relax.t_H.svg").read_text() == \
            (tmp_path / "from_csv.svg").read_text()

    @pytest.mark.parametrize("plot, line", [
        ("t", "error: --plot expects two comma-separated column names"),
        ("t,H,n1", "error: --plot expects two comma-separated column names"),
        ("t,nope", "error: --plot column 'nope' not in {csv}"),
    ], ids=["one-name", "three-names", "unknown-column"])
    def test_plot_input_error_exits_one(self, tmp_path, capsys, plot, line):
        """The table is written first; no SVG follows it."""
        path = write_config(tmp_path, self.relax_doc())
        rc = main(["relax", "-c", path, "-o", str(tmp_path), "--plot", plot])
        captured = capsys.readouterr()
        csv = tmp_path / "relax.csv"
        assert rc == 1
        assert captured.err.splitlines() == [line.format(csv=csv)]
        assert captured.out.splitlines() == [str(csv)]
        assert not list(tmp_path.glob("*.svg"))

    def test_absent_species_columns_are_zero(self, tmp_path):
        path = write_config(tmp_path, self.relax_doc(species2=None))
        assert main(["relax", "-c", path, "-o", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "relax.csv")
        species2 = [i for i, name in enumerate(header)
                    if name[1:2] == "2" and name[0] in "nuTPq"]
        assert len(species2) == 14
        for row in rows:
            assert {row[i] for i in species2} == {"0"}
            assert row[header.index("total_mass2")] == "0"
            assert row[-1] == "0"

    def test_plot_of_conserved_column(self, tmp_path):
        # a column that is constant up to round-off must still plot
        path = write_config(tmp_path, self.relax_doc())
        rc = main(["relax", "-c", path, "-o", str(tmp_path),
                   "--plot", "t,total_mass1"])
        assert rc == 0
        assert (tmp_path / "relax.t_total_mass1.svg").exists()

    def test_coeffs_symmetric_bundle(self, tmp_path, capsys):
        doc = base_doc(mixing={"delta": 0.6, "alpha": 0.5, "gamma": 0.0})
        rc = main(["coeffs", "-c", write_config(tmp_path, doc)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        values = dict(zip(header, (float(x) for x in out[1].split(","))))
        assert values["A"] == pytest.approx(1.0)
        assert values["c1"] == pytest.approx(0.3)

    def test_coeffs_columns(self, tmp_path, capsys):
        doc = base_doc(
            masses=[1.0, 2.0],
            interaction={"nu12": 1.0, "epsilon": 0.5, "beta1": 1.0,
                         "beta2": 1.0},
            mixing={"delta": 0.3, "alpha": 0.4, "gamma": 0.05})
        assert main(["coeffs", "-c", write_config(tmp_path, doc)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",") == [
            "A", "c1", "c2", "lambda_u", "lambda_T", "lambda_shear",
            "Ku11", "Ku12", "Ku21", "Ku22", "KT11", "KT12", "KT21", "KT22"]
        values = dict(zip(header.split(","), map(float, row.split(","))))
        consts = chapman.ce_constants(1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0,
                                      0.3, 0.4)
        pref = chapman.expansion_prefactors(consts, 1.0, 1.0, 1.0, 2.0)
        for name, K in (("Ku", pref.Ku), ("KT", pref.KT)):
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert values[f"{name}{i + 1}{j + 1}"] == K[i, j]

    def test_coeffs_zero_density_is_single_species(self, tmp_path, capsys):
        """species2 with n = 0 is absent as null is, and the table needs
        both species: one error line, no partner made up."""
        for species2 in (None, {"n": 0}):
            doc = base_doc(
                masses=[1.0, 2.0],
                interaction={"nu12": 1.0, "epsilon": 0.5, "beta1": 1.0,
                             "beta2": 1.0},
                mixing={"delta": 0.3, "alpha": 0.4, "gamma": 0.05},
                scenario={"species2": species2})
            rc = main(["coeffs", "-c", write_config(tmp_path, doc)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            assert captured.err == ("error: coeffs needs both species: "
                                    "scenario.species2 is null or has "
                                    "n = 0\n")

    def test_coeffs_non_finite_value_is_numerical_failure(self, tmp_path,
                                                           capsys):
        """A density of 1e300 makes c1, c2 and the prefactors NaN: the
        table is refused with one line naming the first such column and
        the densities, and nothing is written."""
        doc = base_doc(
            masses=[1.0, 2.0],
            interaction={"nu12": 1.0, "epsilon": 0.5, "beta1": 1.0,
                         "beta2": 1.0},
            grid={"dim": 1, "points": 16},
            scenario={"species1": {"n": 1e300}})
        rc = main(["coeffs", "-c", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == ("numerical failure: coeffs column c1 is not "
                                "finite (nan) for densities n1=1e+300, "
                                "n2=1.0\n")

    def test_coeffs_singular_bundle_is_numerical_failure(self, tmp_path):
        doc = base_doc(mixing={"delta": 1.0, "alpha": 0.5, "gamma": 0.0})
        rc = main(["coeffs", "-c", write_config(tmp_path, doc)])
        assert rc == 2

    def test_persistence_table(self, tmp_path, capsys):
        doc = base_doc(persistence={"count": 20})
        rc = main(["persistence", "-c", write_config(tmp_path, doc)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kappa,ratio,lower_bound"
        assert len(lines) == 21
        ratios = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.25 <= r <= 1.0 for r in ratios)

    def test_wave_cfl_violation_exits_two(self, tmp_path, capsys):
        doc = self.relax_doc(dt=0.5, t_end=1.0, cells=64, length=1.0)
        doc["grid"] = {"points": 16}
        rc, err = self.run_and_validate(tmp_path, capsys, "wave", doc)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("numerical failure: CFL")

    @pytest.mark.parametrize("splitting, dt, code", [
        ("strang", 0.04, 0), ("lie", 0.04, 2), ("strang", 0.08, 2)])
    def test_wave_cfl_is_that_of_each_transport_step(self, tmp_path, capsys,
                                                     splitting, dt, code):
        # full-step CFL 30 dt; Strang transports in half steps
        doc = self.wave_doc(dt=dt, t_end=0.16, splitting=splitting,
                            wave_amplitude=0.1)
        path = write_config(tmp_path, doc)
        codes = [main([command, "-c", path, "-o", str(tmp_path)])
                 for command in ("validate", "wave")]
        assert codes == [code, code]
        assert (tmp_path / "wave.csv").exists() == (code == 0)
        err = capsys.readouterr().err
        assert ("numerical failure: CFL 1.200" in err) == (code == 2)

    def test_wave_input_error_exits_one(self, tmp_path, capsys):
        rc, err = self.run_and_validate(tmp_path, capsys, "wave",
                                        self.wave_doc(wave_amplitude=1.5))
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith("error:") and "wave_amplitude" in err[0]

    def test_velocity_beyond_lattice_exits_one(self, tmp_path, capsys):
        doc = self.relax_doc()
        doc["grid"] = {"dim": 1, "points": 16}
        doc["scenario"]["species1"]["u"] = [0, 0.5, 0]
        rc, err = self.run_and_validate(tmp_path, capsys, "relax", doc)
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith("error:") and "1-D lattice" in err[0]

    def test_lattice_beyond_index_range_exits_one(self, tmp_path, capsys):
        """1e30 points per axis is a whole number, but no array can index
        that many nodes: an input error naming points, before any cast."""
        doc = self.relax_doc()
        doc["grid"] = {"points": 1e30}
        rc, err = self.run_and_validate(tmp_path, capsys, "relax", doc)
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith("error: points must give at most")

    def test_lattice_out_of_memory_exits_one(self, tmp_path, capsys,
                                             monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(configmod, "VelocityGrid", exhausted)
        for command in ("relax", "validate"):
            rc = main([command, "-c", write_config(tmp_path, self.relax_doc()),
                       "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            assert captured.err == ("error: out of memory (Unable to "
                                    "allocate 7.11 PiB)\n")

    def test_lattice_beyond_physical_memory_exits_one(self, tmp_path,
                                                       capsys):
        """10^15 nodes can be indexed but not held: the state block is
        judged from the counts, before any lattice-sized allocation."""
        doc = self.relax_doc()
        doc["grid"] = {"points": 100000}
        rc, err = self.run_and_validate(tmp_path, capsys, "relax", doc)
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith("error: points [100000, 100000, 100000] "
                                 "with cells 0 give a state block of ")
        assert "physical memory" in err[0]

    def test_scan_lattice_beyond_physical_memory_exits_one(self, tmp_path,
                                                            capsys):
        """Masses 1 and 1e6 size the scan's lattice at 12000 points per
        axis."""
        doc = base_doc(masses=[1.0, 1e6], grid={"points": 16},
                       scan={"parameter": "delta", "start": 0.0,
                             "stop": 0.6, "count": 3})
        rc, err = self.run_and_validate(tmp_path, capsys, "scan", doc)
        assert rc == 1
        assert len(err) == 1
        assert err[0].startswith("error: masses 1.0, 1000000.0 size the scan "
                                 "lattice: points [12000, 12000, 12000]")

    @pytest.mark.parametrize("memory, integrator, rc", [
        (32 * 1024, "exp", 1), (1024 ** 2, "exp", 0), (384 * 1024, "rk4", 1)],
        ids=["32KiB", "1MiB", "rk4-384KiB"])
    def test_state_block_is_checked_against_physical_memory(
            self, tmp_path, capsys, monkeypatch, memory, integrator, rc):
        """A 16^3 relax run's state block is 2 x 4096 doubles, 64 KiB; an
        EXP run holds 5 such blocks at its peak, an RK4 run 7, and both
        the tables of the cell's 4 target members, 512 + 8 x 48 doubles
        each, 28 KiB, and a run's fixed 64 KiB."""
        sysconf = os.sysconf
        pages = {"SC_PHYS_PAGES": memory // 4096, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name]
                            if name in pages else sysconf(name))
        path = write_config(tmp_path, self.relax_doc(integrator=integrator))
        assert main(["relax", "-c", path, "-o", str(tmp_path)]) == rc
        err = capsys.readouterr().err
        assert (tmp_path / "relax.csv").exists() == (rc == 0)
        peak = {"exp": 421888, "rk4": 552960}[integrator]
        assert err == ("" if rc == 0 else
                       f"error: points [16, 16, 16] with cells 0 give a "
                       f"state block of 65536 bytes, and an {integrator} run "
                       f"holds {peak} bytes at its peak, beyond the {memory} "
                       f"bytes of physical memory\n")

    @pytest.mark.parametrize("section, command, count, shown", [
        ("persistence", "persistence", 1e300, "1e+300"),
        ("scan", "scan", 10 ** 11, "1e+11")], ids=["persistence", "scan"])
    def test_count_beyond_physical_memory_exits_one(
            self, tmp_path, capsys, section, command, count, shown):
        """A count whose table of three float64 columns cannot be held
        is an input error naming the key, before any table is built."""
        spec = {"count": count}
        if section == "scan":
            spec.update(parameter="delta", start=0.0, stop=0.6)
        doc = base_doc(grid={"points": 16}, **{section: spec})
        path = write_config(tmp_path, doc)
        for name in (command, "validate"):
            rc = main([name, "-c", path, "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            err = captured.err.splitlines()
            assert len(err) == 1
            assert re.fullmatch(rf"error: {section}\.count {re.escape(shown)} "
                                rf"gives a table of \S+ bytes, beyond the "
                                rf"\d+ bytes of physical memory", err[0])

    @pytest.mark.parametrize("count, rc", [(16384, 0), (16385, 1)])
    def test_persistence_table_is_checked_against_physical_memory(
            self, tmp_path, capsys, monkeypatch, count, rc):
        """384 KiB of physical memory hold a table of 16384 rows of three
        float64 columns, and the 12^3 run's 224 KiB peak."""
        sysconf = os.sysconf
        pages = {"SC_PHYS_PAGES": 96, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name]
                            if name in pages else sysconf(name))
        path = write_config(tmp_path, base_doc(grid={"points": 12},
                                               persistence={"count": count}))
        assert main(["persistence", "-c", path]) == rc
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == (count + 1 if rc == 0 else 0)
        assert captured.err == ("" if rc == 0 else
                                "error: persistence.count 1.64e+04 gives a "
                                "table of 3.93e+05 bytes, beyond the 393216 "
                                "bytes of physical memory\n")

    def test_step_count_beyond_physical_memory_exits_one(self, tmp_path,
                                                          capsys):
        """dt = 1e-300 over t_end = 0.1 asks for 1e299 steps: `validate`
        and `relax` refuse the run's diagnostics records before a step
        is taken, naming the keys that set their count."""
        path = write_config(tmp_path, self.relax_doc(dt=1e-300, t_end=0.1))
        for command in ("validate", "relax"):
            rc = main([command, "-c", path, "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            err = captured.err.splitlines()
            assert len(err) == 1
            assert re.fullmatch(r"error: dt 1e-300, t_end 0\.1 and "
                                r"output_every 1 give 1e\+299 diagnostics "
                                r"records of \d+ bytes, beyond the \d+ "
                                r"bytes of physical memory", err[0])
        assert not (tmp_path / "relax.csv").exists()

    @pytest.mark.parametrize("t_end, rc", [(0.93, 0), (0.94, 1)])
    def test_records_are_checked_against_physical_memory(
            self, tmp_path, capsys, monkeypatch, t_end, rc):
        """352 KiB of physical memory hold 469 records of 768 bytes, and
        a 1-D 16-point run's 85 KiB peak: 465 steps recorded at every
        step are admitted as 465 // 1 + 2 = 467 records, and 470 steps
        as 472."""
        sysconf = os.sysconf
        pages = {"SC_PHYS_PAGES": 88, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name]
                            if name in pages else sysconf(name))
        doc = self.relax_doc(dt=0.002, t_end=t_end, output_every=1)
        doc["grid"]["dim"] = 1
        for species in ("species1", "species2"):
            doc["scenario"][species]["u"] = [0.1]
        path = write_config(tmp_path, doc)
        assert main(["validate", "-c", path]) == rc
        assert main(["relax", "-c", path, "-o", str(tmp_path)]) == rc
        captured = capsys.readouterr()
        csv = tmp_path / "relax.csv"
        assert csv.exists() == (rc == 0)
        if rc == 0:  # the header and step 0's record and 465 more
            assert len(csv.read_text().splitlines()) == 467
        assert captured.err == ("" if rc == 0 else 2 * (
            "error: dt 0.002, t_end 0.94 and output_every 1 give 472 "
            "diagnostics records of 768 bytes, beyond the 360448 bytes "
            "of physical memory\n"))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_relax_peak_grows_by_the_records_alone(self, tmp_path, capsys,
                                                   dim):
        """The table is written line by line, never held as text: from
        100 to 500 diagnostics records, a 16-point relax command's traced
        peak grows by at most 0.4 kB a record (the records are rows of
        152, 224 and 312 bytes in dims 1, 2 and 3, and the command peaks
        at 0.32, 0.22 and 0.32 kB a record; `solver._RECORD_BYTES`
        budgets 768 bytes)."""
        def peak(records):
            doc = self.relax_doc(dt=0.001, t_end=0.001 * (records - 1))
            doc["grid"]["dim"] = dim
            for species in ("species1", "species2"):
                doc["scenario"][species]["u"] = [0.1] + [0.0] * (dim - 1)
            path = write_config(tmp_path, doc)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(["relax", "-c", path, "-o", str(tmp_path)]) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        fewer = peak(100)
        more = peak(500)
        assert len((tmp_path / "relax.csv").read_text().splitlines()) == 501
        assert (more - fewer) / 400 <= 400

    def test_unstable_rk4_exits_two_naming_target_and_cell(self, tmp_path,
                                                           capsys):
        # nu_tot dt is 8 and 16, past RK4's stability bound of about 2.8:
        # the run drives a target temperature negative, which validate
        # cannot foresee
        doc = self.relax_doc(dt=0.2, t_end=2.0, integrator="rk4")
        doc.update(masses=[1.0, 2.0], mixing={"delta": 0.3, "alpha": 0.4,
                                              "gamma": 0.05})
        doc["interaction"].update(nu12=20.0, epsilon=0.5)
        doc["scenario"]["species1"] = {"u": [0.3, 0, 0]}
        doc["scenario"]["species2"] = {}
        path = write_config(tmp_path, doc)
        assert main(["validate", "-c", path]) == 0
        capsys.readouterr()
        rc = main(["relax", "-c", path, "-o", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert re.match(r"^numerical failure: .*\(target g\d+, cell \d+\)$",
                        err.splitlines()[0])
        assert not (tmp_path / "relax.csv").exists()

    def test_unresolvable_grid_exits_two(self, tmp_path):
        doc = self.relax_doc()
        doc["grid"] = {"points": 8, "vmin": -2.0, "vmax": 2.0}
        doc["scenario"]["species1"]["T"] = 4.0
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2

    def test_singular_jacobian_exits_two_naming_the_maxwellian(self, tmp_path,
                                                               capsys):
        """At T = 1e-300 Newton's Jacobian is singular and not finite: the
        member is found by solving it alone, not by a condition number
        that fails on the same matrix."""
        doc = base_doc(masses=[1.0, 2.0], grid={"dim": 1, "points": 16},
                       scenario={"species1": {"T": 1e-300}})
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == ("numerical failure: singular Jacobian while "
                                "matching member 0: Maxwellian n=1.0, "
                                "T=1e-300\n")

    def test_wave_partly_empty_species_exits_two(self, tmp_path, capsys):
        # n2 * (1 + 0.5 sin) falls below the 1e-30 density floor in some
        # cells only, which leaves their moments undefined
        doc = self.wave_doc(wave_amplitude=0.5)
        doc["scenario"]["species2"]["n"] = 1.5e-30
        rc = main(["wave", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")
        assert "in cell 5 of species 2" in err[0]

    def test_wave_matching_failure_names_target_and_cell(self, tmp_path,
                                                         capsys):
        # opposed drifts heat the cross targets beyond what the clipped
        # 8-point lattice can hold
        doc = self.relax_doc(dt=0.005, t_end=0.02, cells=8, length=1.0,
                             wave_amplitude=0.1)
        doc["mixing"]["gamma"] = 0.1
        doc["grid"] = {"dim": 1, "points": 8, "vmin": -3.0, "vmax": 3.0}
        scen = doc["scenario"]
        scen["species1"].update(u=[1.6, 0, 0], T=0.5)
        scen["species2"].update(u=[-1.6, 0, 0], T=0.5)
        rc = main(["wave", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure:")
        # every cell holds a near-identical target the lattice cannot
        # hold, so which cell fails first is down to round-off
        found = re.search(r"\(target g21, cell (\d+)\)$", err[0])
        assert found and 0 <= int(found.group(1)) < 8

    def test_wave_defaults_to_32_cells(self, tmp_path, monkeypatch):
        """wave runs 32 cells when the config sets none, and the
        configured count otherwise; relax runs one."""
        seen = []

        def run(scen):
            seen.append(scen.cells)
            return Diagnostics(scen.grid.dim, 0)

        monkeypatch.setattr(cli, "run_scenario", run)
        for subcommand, cells in (("wave", 0), ("wave", 8), ("relax", 8)):
            doc = self.relax_doc(dt=0.001, t_end=0.002, cells=cells)
            assert main([subcommand, "-c", write_config(tmp_path, doc),
                         "-o", str(tmp_path)]) == 0
        assert seen == [32, 8, 0]

    def test_wave_runs(self, tmp_path):
        doc = self.wave_doc(wave_amplitude=0.1)
        rc = main(["wave", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "wave.csv")
        assert header == diagnostics_header(1)
        assert len(rows) == 5

    def test_scan_delta(self, tmp_path):
        doc = base_doc(
            mixing={"delta": 0.0, "alpha": 0.5, "gamma": 0.0},
            scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                  "count": 2})
        rc = main(["scan", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "scan.csv")
        assert header == ["parameter", "lambda_measured", "lambda_analytic"]
        assert len(rows) == 2
        for row in rows:
            measured, analytic = float(row[1]), float(row[2])
            assert measured == pytest.approx(analytic, rel=1e-2)

    def test_scan_plot_draws_the_table_it_wrote(self, tmp_path):
        doc = base_doc(
            mixing={"delta": 0.0, "alpha": 0.5, "gamma": 0.0},
            scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                  "count": 2})
        assert main(["scan", "-c", write_config(tmp_path, doc),
                     "-o", str(tmp_path),
                     "--plot", "parameter,lambda_measured"]) == 0
        _, rows = read_rows(tmp_path / "scan.csv")
        line_plot_svg([float(row[0]) for row in rows],
                      [float(row[1]) for row in rows],
                      str(tmp_path / "from_csv.svg"), xlabel="parameter",
                      ylabel="lambda_measured", title="scan.csv")
        assert (tmp_path / "scan.parameter_lambda_measured.svg").read_text() \
            == (tmp_path / "from_csv.svg").read_text()

    def test_scan_alpha_with_unequal_masses(self, tmp_path):
        # the scan lattice must resolve the heavier species' narrower
        # thermal width
        doc = base_doc(
            masses=[1.0, 2.0],
            mixing={"delta": 0.5, "alpha": 0.5, "gamma": 0.0},
            scan={"parameter": "alpha", "start": 0.2, "stop": 0.6,
                  "count": 2})
        rc = main(["scan", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "scan.csv")
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-2)

    def test_scan_fit_failure_names_the_value(self, tmp_path, capsys,
                                              monkeypatch):
        """A decay series the rate fit cannot use is a numerical failure
        of the scan value that produced it, not a traceback."""
        def fit(times, amplitudes):
            raise InsufficientWindowError("only 3 samples inside the window")

        monkeypatch.setattr(chapman, "fit_decay_rate", fit)
        doc = base_doc(
            mixing={"delta": 0.0, "alpha": 0.5, "gamma": 0.0},
            scan={"parameter": "delta", "start": 0.2, "stop": 0.4,
                  "count": 2})
        rc = main(["scan", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numerical failure: scan value delta=0.2: only 3 "
                       "samples inside the window"]
        assert not (tmp_path / "scan.csv").exists()

    def test_scan_without_second_species_exits_one(self, tmp_path, capsys):
        doc = base_doc(
            scenario={"species2": None},
            scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                  "count": 2})
        rc = main(["scan", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: scan needs both species: scenario.species2 "
                       "is null or has n = 0"]

    def test_scan_zero_density_is_single_species(self, tmp_path, capsys):
        """n = 0 is rejected as null is, by validate too, before any
        scan value runs."""
        doc = base_doc(
            scenario={"species2": {"n": 0}},
            scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                  "count": 2})
        assert self.run_and_validate(tmp_path, capsys, "scan", doc) == (
            1, ["error: scan needs both species: scenario.species2 is null "
                "or has n = 0"])

    def test_scan_value_outside_delta_interval(self, tmp_path, capsys):
        doc = base_doc(scan={"parameter": "delta", "start": 0.0,
                             "stop": 1.5, "count": 2})
        assert self.run_and_validate(tmp_path, capsys, "scan", doc) == (
            1, ["delta=1.5 outside admissible interval [0, 1]"])

    @pytest.mark.parametrize("parameter, key, text, shown", [
        ("delta", "stop", "1e400", "inf"), ("alpha", "start", "-1e400",
                                            "-inf")])
    def test_non_finite_scan_bound_exits_one(self, tmp_path, capsys,
                                             parameter, key, text, shown):
        """JSON reads 1e400 as inf: an input error naming the bound, not
        a NaN scan value."""
        scan = {"parameter": parameter, "start": 0.0, "stop": 0.5,
                "count": 3, key: "BOUND"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc(scan=scan)).replace('"BOUND"',
                                                                text))
        for command in ("scan", "validate"):
            rc = main([command, "-c", str(path), "-o", str(tmp_path)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            assert captured.err == (f"error: scan.{key} must be finite "
                                    f"(got {shown})\n")
        assert not (tmp_path / "scan.csv").exists()

    def test_scan_needs_a_scan_section(self, tmp_path, capsys):
        rc = main(["scan", "-c", write_config(tmp_path, base_doc()),
                   "-o", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: scan subcommand needs a 'scan' config section"]
        assert not (tmp_path / "scan.csv").exists()

    def test_variant_override(self, tmp_path):
        doc = self.relax_doc()
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path), "--variant", "es-self",
                   "--integrator", "rk4"])
        assert rc == 0

    def test_two_dimensional_grid(self, tmp_path):
        doc = self.relax_doc()
        doc["grid"] = {"dim": 2, "points": 16}
        doc["scenario"]["species1"]["u"] = [0.1, 0.0]
        doc["scenario"]["species2"]["u"] = [-0.1, 0.0]
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "relax.csv")
        assert header == diagnostics_header(2)
        assert all(len(r) == len(header) for r in rows)


def bundle(grid=None, **sections):
    """A config of masses 1 and 2 and their interaction on 16 points per
    axis, with the keys of `grid` and of the other sections given."""
    return base_doc(**{
        "masses": [1.0, 2.0],
        "interaction": {"nu12": 1.0, "epsilon": 0.5, "beta1": 1.0,
                        "beta2": 1.0},
        "grid": {"points": 16, **(grid or {})}, **sections})


# the configs and wave scenarios of the entry-point cases
ES2D = bundle({"dim": 2}, scenario={
    "species1": {"tensor": [[1.2, 0.1], [0.1, 0.8]]},
    "species2": {"T": 1.5, "u": [0.2, 0.0]}})
ES3D = bundle(scenario={
    "species1": {"tensor": [[1.2, 0.3, -0.1], [0.3, 0.9, 0.2],
                            [-0.1, 0.2, 0.7]]},
    "species2": {"T": 1.5, "u": [0.2, 0.0, 0.0]}})
WAVE = {"cells": 8, "dt": 0.01, "t_end": 0.05, "wave_amplitude": 0.1}
ESWAVE = bundle(scenario={**WAVE, **ES3D["scenario"]})
WAVE13 = {"cells": 13, "dt": 0.005, "t_end": 0.03, "wave_amplitude": 0.1,
          "species1": {"u": [0.3, 0.0, 0.0]},
          "species2": {"T": 1.5, "u": [-0.2, 0.0, 0.0]}}
STRANG = bundle({"dim": 1, "vmin": -4, "vmax": 4}, scenario={
    "cells": 8, "dt": 0.04, "t_end": 0.16, "splitting": "strang",
    "wave_amplitude": 0.1})
WAVE1D = bundle({"dim": 1, "points": 32}, scenario={
    **WAVE, "species1": {"u": [0.3]}, "species2": {"T": 1.5}})


class TestEntryPoint:
    """The command line's contract: exit 0 with finite output, or exit
    1 or 2 with one stderr line.  In process, the suite's warning filter
    makes any warning a failure; as a process, a warning is counted
    among the stderr lines."""

    # runs that succeed: (config, subcommand and flags, the line count
    # of a table on standard output, or None for a CSV file)
    RUNS = {
        "relax-es2d-plot": (ES2D, ["relax", "--plot", "t,H"], None),
        "relax-es2d-esa": (ES2D, ["relax", "--variant", "es-full-a"], None),
        "relax-es2d-rk4": (ES2D, ["relax", "--integrator", "rk4"], None),
        "relax-es3d-rk4-esa": (ES3D, [
            "relax", "--integrator", "rk4", "--variant", "es-full-a"], None),
        "wave-1d": (WAVE1D, ["wave"], None),
        "wave-1d-rk4-esb": (WAVE1D, [
            "wave", "--integrator", "rk4", "--variant", "es-full-b"], None),
        "wave-es-exp": (ESWAVE, [
            "wave", "--integrator", "exp", "--variant", "es-full-a"], None),
        "wave-es-rk4": (ESWAVE, [
            "wave", "--integrator", "rk4", "--variant", "es-full-a"], None),
        "wave-13-lie": (bundle(scenario={**WAVE13, "splitting": "lie"}),
                        ["wave"], None),
        "wave-13-strang": (bundle(scenario={**WAVE13, "splitting": "strang"}),
                           ["wave"], None),
        "wave-strang": (STRANG, ["wave"], None),
        "wave-strang-rk4": (STRANG, ["wave", "--integrator", "rk4"], None),
        "persistence": (bundle(), ["persistence"], 201),
        "persistence-huge": (bundle(persistence={
            "kappa_min": 1e70, "kappa_max": 1e100, "count": 4}),
            ["persistence"], 5),
    }

    @pytest.mark.parametrize("case", list(RUNS))
    def test_run_writes_a_finite_table(self, tmp_path, capsys, case):
        """Exit 0, nothing on stderr and a table of finite values: on
        standard output, of its line count, or as a CSV of at least three
        lines whose total_mass1 holds to 1e-13 relative.  --plot draws
        one SVG."""
        doc, argv, lines = self.RUNS[case]
        rc = main([*argv, "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        text = (captured.out if lines else
                (tmp_path / f"{argv[0]}.csv").read_text())
        header, *rows = text.splitlines()
        table = np.array([row.split(",") for row in rows], dtype=float)
        assert np.isfinite(table).all()
        if lines:
            assert len(rows) + 1 == lines
        else:
            assert len(rows) >= 2
            mass = table[:, header.split(",").index("total_mass1")]
            assert np.abs(mass - mass[0]).max() <= 1e-13 * mass[0]
        svgs = list(tmp_path.glob("*.svg"))
        assert len(svgs) == ("--plot" in argv)
        assert all(svg.read_text().startswith("<svg") for svg in svgs)

    # refusals: (config, subcommand, exit code, pattern of the stderr line)
    REFUSALS = {
        "points-beyond-memory": (bundle({"points": 100000}), "validate", 1,
                                 r"error: points .* physical memory$"),
        "scan-lattice-beyond-memory": (bundle(masses=[1.0, 1e6], scan={
            "parameter": "delta", "start": 0.0, "stop": 0.6, "count": 3}),
            "validate", 1, r"error: masses .* physical memory$"),
        "points-beyond-float": (bundle({"points": 10 ** 400}), "validate", 1,
                                r"error: grid\.points is out of range$"),
        # a drift far off the lattice: the target's moments overflow
        "drift-off-lattice": (bundle({"dim": 1}, scenario={
            "species1": {"u": [1e300]}}), "relax", 2,
            r"numerical failure: no admissible Newton step while matching "
            r"member 0: Maxwellian"),
        "drift-off-lattice-tensor": (bundle({"dim": 1}, scenario={
            "species1": {"tensor": [[1.0]], "u": [1e300]}}), "relax", 2,
            r"numerical failure: no admissible Newton step while matching "
            r"member 0: Gaussian"),
        # unmatched, the sample is below the density floor
        "unmatched-off-lattice": (bundle({"dim": 1}, scenario={
            "moment_matching": False, "species1": {"u": [20]}}), "relax", 2,
            r"numerical failure: density \S+ below floor \S+ of species 1;"),
    }

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refusal_is_one_line(self, tmp_path, capsys, case):
        """The exit code and one matching stderr line; nothing on stdout
        and no CSV."""
        doc, command, code, pattern = self.REFUSALS[case]
        rc = main([command, "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert (rc, captured.out, len(err)) == (code, "", 1), err
        assert re.match(pattern, err[0]), err
        assert not list(tmp_path.glob("*.csv"))

    def test_runs_need_no_eigensolver_and_no_least_squares(
            self, tmp_path, capsys, monkeypatch):
        """Gaussian Newton steps are admitted by the Cholesky that samples
        them and the decay rate is fitted in closed form: with
        np.linalg.eigvalsh, np.linalg.lstsq and np.polyfit made to raise,
        an es-full-a RK4 relax and a scan exit 0."""
        def refuse(*args, **kwargs):
            raise AssertionError("a run called an eigensolver or a "
                                 "least-squares fit")

        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "lstsq"),
                             (np, "polyfit")):
            monkeypatch.setattr(module, name, refuse)
        scan = base_doc(scan={"parameter": "delta", "start": 0.2,
                              "stop": 0.4, "count": 2})
        for doc, argv, csv in (
                (ES2D, ["relax", "--integrator", "rk4", "--variant",
                        "es-full-a"], "relax.csv"),
                (scan, ["scan"], "scan.csv")):
            rc = main([*argv, "-c", write_config(tmp_path, doc),
                       "-o", str(tmp_path)])
            assert (rc, capsys.readouterr().err) == (0, ""), argv
            assert (tmp_path / csv).exists()

    @pytest.mark.parametrize("doc, command, code, pattern", [
        (bundle(), "validate", 0, None), REFUSALS["points-beyond-float"],
        REFUSALS["drift-off-lattice"]], ids=["ok", "exit-1", "exit-2"])
    def test_entry_point_process(self, tmp_path, doc, command, code,
                                 pattern):
        """`python -m bgkmix` as its own process, warnings shown as the
        interpreter shows them: `ok` and nothing on stderr, or the
        refusal's exit code and one stderr line."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get(
            "PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "bgkmix", command,
             "-c", write_config(tmp_path, doc), "-o", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        err = done.stderr.splitlines()
        if code == 0:
            assert (done.returncode, done.stdout, err) == (0, "ok\n", [])
        else:
            assert (done.returncode, len(err)) == (code, 1), done.stderr
            assert re.match(pattern, err[0]), err


# the hostile-value sweep's base: 1-D, 16 points, both species and a
# scan section, every leaf that takes a list given as one; a tensor,
# which would make T count for nothing, is left out and swept in the
# form [[x]]
SWEEP_BASE = bundle(
    {"dim": 1, "vmin": [-8.0], "vmax": [8.0], "points": [16]},
    scenario={"species1": {"u": [0.1]}, "species2": {"u": [-0.1], "T": 1.2}},
    scan={"parameter": "delta", "start": 0.0, "stop": 0.6, "count": 3})
# 10**400 is an integer beyond the float range, finite but out of range
HOSTILE = [float("nan"), float("inf"), -float("inf"), 0, -1, 1e300, -1e300,
           2.5, 1e-300, 1e6, 10 ** 400]
# the keys a refusal may name in place of its leaf: the t_end that a dt
# beyond it leaves without a step, the scanned delta of a scan bound, and
# the masses m1 and m2 of the parameter check and the delta interval
# that they set
NAMED_AS = {"scenario.dt": ("t_end",), "scan.start": ("delta",),
            "scan.stop": ("delta",), "masses": ("m1", "m2", "delta")}


def schema_leaves(schema, path=""):
    """The full path of every leaf of a config schema."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from schema_leaves(spec, f"{path}{key}.")
        else:
            yield path + key


def first_replaced(form, value):
    """`form` with its first scalar, at any depth, replaced by `value`."""
    if isinstance(form, list):
        return [first_replaced(form[0], value)] + form[1:]
    return value


class TestHostileValues:
    @pytest.mark.parametrize("leaf", list(schema_leaves(configmod._SCHEMA)))
    def test_validate_ends_in_one_line(self, tmp_path, capsys, leaf):
        """Every leaf of the schema, as a scalar and as the first element
        of a list leaf: `validate` exits 0 or 1, or 2 on the CFL bound,
        with at most one line on stderr, and 1 on a non-finite value or
        an integer beyond the float range."""
        *path, name = leaf.split(".")
        base = functools.reduce(lambda d, k: d.get(k, {}), path, SWEEP_BASE)
        form = base.get(name, [[1.0]] if name == "tensor" else None)
        for value in HOSTILE:
            if leaf == "scan.count" and value == 1e6:
                # validate builds every scan run, about 0.3 ms each: 1e6
                # runs is a long request rather than a hostile one
                value = 1e3
            forms = [value] + ([first_replaced(form, value)]
                               if isinstance(form, list) else [])
            for given in forms:
                doc = json.loads(json.dumps(SWEEP_BASE))
                functools.reduce(lambda d, k: d.setdefault(k, {}), path,
                                 doc)[name] = given
                rc = main(["validate", "-c", write_config(tmp_path, doc)])
                captured = capsys.readouterr()
                err = captured.err.splitlines()
                case = f"{leaf} = {given!r}: exit {rc}, {err}"
                assert len(err) <= 1, case
                assert rc in (0, 1) or (rc == 2 and err[0].startswith(
                    "numerical failure: CFL")), case
                refused = value == 10 ** 400 or not np.isfinite(value)
                assert rc == 1 or not refused, case
                if rc:  # the line (or validate's violation) names the leaf
                    line, = err or captured.out.splitlines()
                    assert any(re.search(rf"\b{re.escape(key)}\b", line)
                               for key in (name, *NAMED_AS.get(leaf, ()))), \
                        f"{case} {line}"
