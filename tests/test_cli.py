import json

import numpy as np
import pytest

from bgkmix.cli import diagnostics_header, main
from bgkmix.config import parse_config
from bgkmix.errors import (MissingKeyError, UnknownVariantError,
                           ValidationFailureError)


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
        cfg = parse_config(json.dumps(base_doc()))
        assert cfg.grid_spec == {"dim": 3, "vmin": -8.0, "vmax": 8.0,
                                 "points": 32}
        assert cfg.scenario_spec["integrator"] == "exp"
        assert cfg.scenario_spec["moment_matching"] is True
        assert cfg.scenario_spec["species1"].n == 1.0
        assert cfg.params.mixing.delta == 1.0
        assert cfg.params.mixing.gamma == 0.0

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

    def test_wave_cfl_violation_exits_two(self, tmp_path):
        doc = self.relax_doc(dt=0.5, t_end=1.0, cells=64, length=1.0)
        doc["grid"] = {"points": 16}
        rc = main(["wave", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2

    def test_wave_input_error_exits_one(self, tmp_path, capsys):
        doc = self.relax_doc(dt=0.005, t_end=0.02, cells=8, length=1.0,
                             wave_amplitude=1.5)
        doc["grid"] = {"dim": 1, "points": 16, "vmin": -4.0, "vmax": 4.0}
        rc = main(["wave", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "wave_amplitude" in err[0]

    def test_velocity_beyond_lattice_exits_one(self, tmp_path, capsys):
        doc = self.relax_doc()
        doc["grid"] = {"dim": 1, "points": 16}
        doc["scenario"]["species1"]["u"] = [0, 0.5, 0]
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "1-D lattice" in err[0]

    def test_unresolvable_grid_exits_two(self, tmp_path):
        doc = self.relax_doc()
        doc["grid"] = {"points": 8, "vmin": -2.0, "vmax": 2.0}
        doc["scenario"]["species1"]["T"] = 4.0
        rc = main(["relax", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 2

    def test_wave_partly_empty_species_exits_two(self, tmp_path, capsys):
        # n2 * (1 + 0.5 sin) falls below the 1e-30 density floor in some
        # cells only, which leaves their moments undefined
        doc = self.relax_doc(dt=0.005, t_end=0.02, cells=8, length=1.0,
                             wave_amplitude=0.5)
        doc["grid"] = {"dim": 1, "points": 16, "vmin": -4.0, "vmax": 4.0}
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
        assert err[0].endswith("(target g21, cell 1)")

    def test_wave_runs(self, tmp_path):
        doc = self.relax_doc(dt=0.005, t_end=0.02, cells=8, length=1.0,
                             wave_amplitude=0.1)
        doc["grid"] = {"dim": 1, "points": 16, "vmin": -4.0, "vmax": 4.0}
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

    def test_scan_without_second_species_exits_one(self, tmp_path, capsys):
        doc = base_doc(
            scenario={"species2": None},
            scan={"parameter": "delta", "start": 0.0, "stop": 0.4,
                  "count": 2})
        rc = main(["scan", "-c", write_config(tmp_path, doc),
                   "-o", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: scan needs both species"]

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
