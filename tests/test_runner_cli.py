"""Scenario runner and command-line interface: exit codes, artifacts,
determinism of emitted files."""
import ast
import configparser
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiolab import cli, operators, pdo, runner, shares
from fiolab.cli import bundled_scenarios, main
from fiolab.expressions import multi_indices
from fiolab.grids import GridSpec
from fiolab.phases import GeneratingFunction
from fiolab.runner import ScenarioError, load_scenario, run_scenario
from fiolab.symbols import SymbolField, seminorm_estimate
from fiolab.weights import lambda_weight

ALL_SCENARIOS = ("chirp_phase", "compact_decay", "ffstar_gaussian",
                 "fourier_inversion", "multiplier_norm",
                 "noncompact_identity", "oscint_gaussian")


VERIFY_SYMBOL = "scenario.operations=verify-symbol"
CV_CHECK = "scenario.operations=cv-check"


def cfg_path(name):
    return str(bundled_scenarios()[name])


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in out

    def test_run_fast_scenario(self, tmp_path, capsys):
        rc = main(["run", "fourier_inversion", "--out-dir",
                   str(tmp_path / "out")])
        assert rc == 0
        assert "[pass]" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_oscint_artifacts(self, tmp_path):
        # every quadrature's grid and route: the schedule on the separable
        # route, then the smooth-bump gap pass on the split route with its
        # theta columns counted by class.  f Gaussian: its theta range,
        # |theta| <= 9.4, ends inside the bump's all-1 columns; f = sech y,
        # whose transform reaches |theta| = 21, past the all-1 columns of
        # the bump at sigma = 16
        for name, overrides, sigmas, gap_columns in [
                ("gaussian", (), (16.0, 32.0, 64.0),
                 {"separable": 66, "transition": 0, "zero": 0}),
                ("sech", ("oscint.f=2/(exp(y) + exp(-y))",
                          "oscint.schedule=4,8,16"), (4.0, 8.0, 16.0),
                 {"separable": 0, "transition": 448, "zero": 2})]:
            d = tmp_path / name
            args = ["oscint", "oscint_gaussian", "--out-dir", str(d)]
            for override in overrides:
                args += ["--override", override]
            assert main(args) == 0
            names = {p.name for p in d.iterdir()}
            assert {"oscint.json", "oscint_residuals.csv",
                    "manifest.json"} <= names
            quadrature = json.loads(
                (d / "oscint.json").read_text())["quadrature"]
            assert [(q["sigma"], q["cutoff"], q["route"])
                    for q in quadrature] == [
                *((s, "gaussian", "separable") for s in sigmas),
                (sigmas[-1], "smooth_bump", "split")]
            assert all(q["ny"] > 1 and q["nt"] > 1 for q in quadrature)
            assert [q["capped"] for q in quadrature] == [False] * 4
            assert ["columns" in q for q in quadrature] == [False] * 3 + [
                True]
            columns = quadrature[-1]["columns"]
            assert sum(columns.values()) == quadrature[-1]["nt"]
            assert columns == gap_columns

    def test_spectrum_artifacts(self, tmp_path):
        d = tmp_path / "out"
        assert main(["spectrum", "compact_decay", "--out-dir", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert {"spectrum.json", "spectrum.csv", "manifest.json"} <= names

    def test_check_ffstar_pass(self, tmp_path):
        d = tmp_path / "out"
        assert main(["check-ffstar", "ffstar_gaussian",
                     "--out-dir", str(d)]) == 0
        outcomes = json.loads((d / "manifest.json").read_text())["outcomes"]
        assert outcomes[0]["passed"] is True
        assert outcomes[0]["max_rel_error"] < outcomes[0]["tol"]

    def test_failed_check_exits_one(self, tmp_path, capsys):
        rc = main(["check-ffstar", "ffstar_gaussian", "--out-dir",
                   str(tmp_path / "out"), "--override", "ffstar.tol=1e-9"])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, tmp_path, capsys):
        rc = main(["run", "no_such_scenario", "--out-dir",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_bad_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_malformed_override_exits_two(self, tmp_path):
        rc = main(["run", "fourier_inversion", "--out-dir",
                   str(tmp_path / "out"), "--override", "notakeyvalue"])
        assert rc == 2

    @pytest.mark.parametrize("name, overrides", [
        ("fourier_inversion", "grids.M=abc"),
        ("oscint_gaussian", "oscint.schedule=64,32"),
        ("oscint_gaussian", "oscint.a=foo"),
        ("oscint_gaussian", "oscint.f=exp(-y**2/2"),
        ("oscint_gaussian", "oscint.f=bar*y"),
        ("oscint_gaussian", "oscint.f=y.z"),
        ("oscint_gaussian", "oscint.f=[1]"),
        ("multiplier_norm", "cv.sigma=foo*x"),
        ("fourier_inversion", "scenario.operations=bogus"),
        ("ffstar_gaussian", "symbol.a=1/0"),
        ("ffstar_gaussian", "grids.R=nan"),
        ("ffstar_gaussian", "grids.R=inf"),
        ("fourier_inversion", "grids.R=1e308"),
        ("fourier_inversion", "grids.M=1"),
        ("oscint_gaussian", "oscint.x=nan"),
        ("oscint_gaussian", "oscint.expected_re=inf"),
        ("ffstar_gaussian", "ffstar.tol=nan"),
        ("oscint_gaussian", "oscint.schedule=-1,2,3"),
        ("oscint_gaussian", "oscint.schedule=4,8,inf"),
        *[("ffstar_gaussian", f"{VERIFY_SYMBOL} {o}") for o in (
            "symbol.check_points=1", "symbol.check_radius=0",
            "symbol.check_radius=inf",
            "symbol.rho=2", "symbol.max_order=-1",
            "symbol.weight=expr:q*v1", "symbol.weight=expr:v3",
            "symbol.weight=expr:v1.z", "symbol.weight=expr:1/0",
            "symbol.weight=expr:v1/0",
            "symbol.weight=expr:I", "symbol.weight=expr:I*v1+2",
            "symbol.weight=expr:-1",
            "symbol.weight=lambda:p=1e300")],
        *[("multiplier_norm", f"{CV_CHECK} {o}") for o in (
            "cv.points=1", "cv.radius=-2", "cv.radius=nan", "cv.k=-1",
            "cv.gamma=-1", "grids.M=64 cv.sigma=-1")],
        *[("multiplier_norm", f"scenario.operations={op} grids.M=64 {o}")
          for op, o in (("spectrum", "spectrum.count=-1"),
                        ("compactness", "compactness.tail_index=-1"))],
        ("ffstar_gaussian", "grids.M=64 symbol.a=1e300"),
        ("fourier_inversion", "grids.MM=64"),
        ("fourier_inversion", "gridz.M=64"),
        ("fourier_inversion", "DEFAULT.M=64"),
        ("fourier_inversion",
         "phase.n=2 phase.generating=expr:x0*theta0+x1*theta1"),
        ("noncompact_identity", "compactness.expected=COMPACT"),
        ("fourier_inversion", "scenario.operations="),
        ("ffstar_gaussian", "ffstar.samples="),
        ("fourier_inversion", "output.dir="),
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, name,
                                        overrides):
        """`overrides` holds one or more space-separated overrides."""
        args = ["run", name, "--out-dir", str(tmp_path / "out")]
        for override in overrides.split():
            args += ["--override", override]
        assert main(args) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--override", "output.dir="], ["--out-dir", ""]])
    def test_empty_output_dir_exits_two(self, tmp_path, capsys, monkeypatch,
                                        args):
        # Path("") is the working directory, which would get the artifacts
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fourier_inversion", *args]) == 2
        assert "[output] dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_scenario_file_exits_two(self, tmp_path, capsys,
                                                case):
        path = tmp_path / "bad.cfg"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"[scenario]\nname = caf\xe9\n")
        rc = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot read scenario file")
        assert str(path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_output_dir_exits_two(self, tmp_path, capsys, below):
        # --out-dir names an existing file, or a path below one
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        rc = main(["run", "fourier_inversion", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: cannot create output directory")
        assert str(out) in err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("sample", ["0 1e300", "1e300 0", "20 0"])
    def test_ffstar_sample_off_the_grid_exits_two(self, tmp_path, capsys,
                                                  sample):
        """A sample holds a space, so it cannot ride in the space-separated
        overrides of `test_bad_config_value_exits_two`."""
        rc = main(["run", "ffstar_gaussian", "--out-dir", str(tmp_path / "out"),
                   "--override", "grids.M=64",
                   "--override", f"ffstar.samples={sample}"])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["1e300", "-1e300"])
    def test_huge_oscint_x_saturates_the_cutoff(self, tmp_path, capsys, x):
        # e^{-x^2/(2 sigma^2)} is 0 in double precision: the value is 0,
        # not the expected f(0) = 1.  The saturation is intended, so it
        # emits no RuntimeWarning, which the CLI would print to stderr.
        d = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["oscint", "oscint_gaussian", "--out-dir", str(d),
                         "--override", f"oscint.x={x}"]) == 1
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in capsys.readouterr().err
        result = json.loads((d / "oscint.json").read_text())
        assert result["value"] == {"re": 0.0, "im": 0.0}
        assert result["passed"] is False

    def test_huge_oscint_sigma(self, tmp_path, capsys):
        # f Gaussian: the theta range is that of f's transform, whatever
        # sigma is, and the pass returns f(0) = 1.  f = 1/(1+y^2), cut at
        # y = 64, keeps the cutoff's range, whose point count overflows: a
        # config error naming sigma, where it used to exit 3 on an
        # OverflowError
        d = tmp_path / "gaussian"
        assert main(["oscint", "oscint_gaussian", "--out-dir", str(d),
                     "--override", "oscint.schedule=1e307"]) == 0
        result = json.loads((d / "oscint.json").read_text())
        assert abs(result["value"]["re"] - 1.0) <= 1e-12
        assert [q["capped"] for q in result["quadrature"]] == [False] * 2
        assert main(["oscint", "oscint_gaussian", "--out-dir",
                     str(tmp_path / "cut"), "--override",
                     "oscint.f=1/(1+y**2)", "--override",
                     "oscint.schedule=1e307"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "the gaussian cutoff's grid at sigma = 1e+307" in err

    def test_sigma_whose_cutoff_radius_overflows(self, tmp_path, capfd):
        # 8 sigma overflows to inf: a config error naming sigma, before any
        # grid is sized, with no numpy warning
        assert main(["oscint", "oscint_gaussian", "--out-dir", str(tmp_path),
                     "--override", "oscint.schedule=1.7e308"]) == 2
        err = capfd.readouterr().err
        assert "config error: [oscint] schedule: sigma = 1.7e+308 gives " \
            "the gaussian cutoff a radius that is not finite" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("name, overrides, code", [
        ("multiplier_norm", f"grids.M=64 symbol.a=1e300 {CV_CHECK}", 1),
        ("ffstar_gaussian", "grids.M=64 symbol.a=1e300", 2),
        ("oscint_gaussian", "oscint.f=1/y", 2),
        ("oscint_gaussian", "oscint.f=log(y)", 2),
        ("oscint_gaussian", "oscint.f=y**y", 2),
        ("oscint_gaussian", "oscint.f=log(y) oscint.cutoff=SMOOTH_BUMP", 2),
        ("oscint_gaussian", "oscint.a=1/y", 2),
        ("multiplier_norm",
         "grids.M=64 scenario.operations=spectrum symbol.a=1e308", 2),
    ] + [("multiplier_norm", f"grids.M=64 scenario.operations={op} "
          f"symbol.a=1/x", 2)
         for op in ("spectrum", "compactness", "build-operator")],
        ids=["operator_norm", "compose", "oscint_f_reciprocal", "oscint_f_log",
             "oscint_f_power", "oscint_f_log_bump", "oscint_a_reciprocal",
             "build_overflow", "spectrum_a_reciprocal",
             "compactness_a_reciprocal", "build_a_reciprocal"])
    def test_overflowing_operator_emits_no_runtime_warning(
            self, tmp_path, capsys, name, overrides, code):
        # the power iteration's IterationError (exit 1), the non-finite
        # predicted symbol's, the non-finite oscillatory quadrature's and
        # the operator build's config errors (exit 2) report the overflow;
        # the build names the amplitude and the first node, x = 0, or the
        # first matrix entry that overflows
        args = ["run", name, "--out-dir", str(tmp_path / "out")]
        for override in overrides.split():
            args += ["--override", override]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == code
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert ("config error:" in err) == (code == 2)
        if "symbol.a=1/x" in overrides:
            assert "the amplitude a = 1/x0 gives e^(iS) a = " in err
            assert "at x = [0.0], theta = " in err
        if "symbol.a=1e308" in overrides:
            assert "the operator matrix overflows: its entry at x = " in err

    def test_single_operation_writes_only_its_artifacts(self, tmp_path):
        # the operator spectrum needs is built without the build-operator
        # operation, whose apply check would fail at this rtol
        d = tmp_path / "out"
        assert main(["spectrum", "fourier_inversion", "--out-dir", str(d),
                     "--override", "operator.apply_rtol=1e-30"]) == 0
        assert {p.name for p in d.iterdir()} == {
            "spectrum.json", "spectrum.csv", "manifest.json"}

    def test_manifest_outcome_is_the_operation_json(self, tmp_path):
        d = tmp_path / "out"
        ops = ("build-operator", "check-ffstar", "spectrum", "compactness")
        run_scenario(cfg_path("ffstar_gaussian"), out_dir=str(d),
                     overrides=["grids.M=64", "compactness.tail_index=40",
                                f"scenario.operations={','.join(ops)}"])
        outcomes = json.loads((d / "manifest.json").read_text())["outcomes"]
        assert [o.pop("operation") for o in outcomes] == list(ops)
        for op, outcome in zip(ops, outcomes):
            assert outcome == json.loads((d / f"{op}.json").read_text())

    def test_nonconverging_oscint_keeps_its_quadratures(self, tmp_path):
        d = tmp_path / "out"
        rc = main(["oscint", "oscint_gaussian", "--out-dir", str(d),
                   "--override", "oscint.a=theta**2",
                   "--override", "oscint.schedule=0.5,1,2"])
        assert rc == 1
        result = json.loads((d / "oscint.json").read_text())
        assert result["passed"] is False
        assert [(q["sigma"], q["route"]) for q in result["quadrature"]] == [
            (0.5, "separable"), (1.0, "separable"), (2.0, "separable")]

    def test_uncaught_exception_exits_three(self, tmp_path, capsys,
                                            monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = main(["run", "fourier_inversion", "--out-dir",
                   str(tmp_path / "out")])
        assert rc == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("name, op, owner, target, error", [
        ("multiplier_norm", "cv-check", pdo, "operator_norm",
         operators.IterationError("power iteration did not converge")),
        ("ffstar_gaussian", "check-ffstar", pdo, "predicted_symbol",
         pdo.NewtonError("no convergence in 50 iterations")),
    ], ids=["cv-check", "check-ffstar"])
    def test_nonconvergence_exits_one(self, tmp_path, capsys, monkeypatch,
                                      name, op, owner, target, error):
        def no_convergence(*args, **kwargs):
            raise error
        monkeypatch.setattr(owner, target, no_convergence)
        d = tmp_path / "out"
        rc = main(["run", name, "--out-dir", str(d), "--override",
                   "grids.M=64", "--override", f"scenario.operations={op}"])
        assert rc == 1
        assert f"[FAIL] {op}" in capsys.readouterr().out
        message = f"{type(error).__name__}: {error}"
        assert json.loads((d / f"{op}.json").read_text()) == {
            "passed": False, "error": message}
        outcomes = json.loads((d / "manifest.json").read_text())["outcomes"]
        assert outcomes == [{"operation": op, "passed": False,
                             "error": message}]


class TestDeterminism:
    def test_reruns_byte_identical_except_manifest(self, tmp_path):
        rc1 = main(["run", "fourier_inversion", "--out-dir",
                    str(tmp_path / "a")])
        rc2 = main(["run", "fourier_inversion", "--out-dir",
                    str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        names_a = {p.name for p in (tmp_path / "a").iterdir()}
        names_b = {p.name for p in (tmp_path / "b").iterdir()}
        assert names_a == names_b
        for name in names_a - {"manifest.json"}:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        m = run_scenario(cfg_path("fourier_inversion"), out_dir=str(tmp_path / "out"))
        data = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for key in ("grids", "lambda_convention", "module_versions",
                    "blas", "outcomes", "scenario_hash", "wall_clock_s",
                    "peak_rss_mb", "children_peak_rss_mb"):
            assert key in data
        assert data["scenario_hash"] == m.scenario_hash
        assert data["peak_rss_mb"] > 0

    def test_manifest_peak_rss_is_null_without_resource(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(runner, "getrusage", None)
        run_scenario(cfg_path("fourier_inversion"),
                     out_dir=str(tmp_path / "out"))
        data = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert data["peak_rss_mb"] is None
        assert data["children_peak_rss_mb"] is None

    @pytest.mark.parametrize("a, forks", [("exp(-y**2)", True), ("1", False)],
                             ids=["tensor", "special"])
    def test_manifest_records_the_forked_shares_peak_rss(self, tmp_path, a,
                                                         forks):
        # in a fresh interpreter, whose only children are the tile shares:
        # the tensor route sums its grids in forked shares, the special
        # route forks none
        src = str(Path(runner.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "fiolab.cli", "oscint", "oscint_gaussian",
             "--override", f"oscint.a={a}", "--out-dir", str(tmp_path)],
            env=env, cwd=tmp_path, capture_output=True, check=True)
        data = json.loads((tmp_path / "manifest.json").read_text())
        if forks and shares.cpu_count() > 1:
            assert data["children_peak_rss_mb"] > 0
        else:
            assert data["children_peak_rss_mb"] == 0

    def test_override_changes_scenario_hash(self, tmp_path):
        _, h1 = load_scenario(cfg_path("fourier_inversion"))
        _, h2 = load_scenario(cfg_path("fourier_inversion"),
                              overrides=["grids.M=128"])
        assert h1 != h2

    def test_equivalent_overrides_reorder_to_same_hash(self):
        o = ["grids.M=128", "grids.R=4"]
        _, h1 = load_scenario(cfg_path("fourier_inversion"), overrides=o)
        _, h2 = load_scenario(cfg_path("fourier_inversion"), overrides=o[::-1])
        assert h1 == h2


class TestCompactness:
    def test_spectrum_csvs_are_the_report_spectra(self, tmp_path,
                                                  monkeypatch):
        reports, svd_calls = [], []
        probe, svd = pdo.compactness_probe, pdo.singular_values

        def recording_probe(*args, **kwargs):
            reports.append(probe(*args, **kwargs))
            return reports[-1]

        def counting_svd(*args, **kwargs):
            svd_calls.append(args)
            return svd(*args, **kwargs)
        monkeypatch.setattr(runner, "compactness_probe", recording_probe)
        monkeypatch.setattr(pdo, "singular_values", counting_svd)
        monkeypatch.setattr(runner, "singular_values", counting_svd)
        out = tmp_path / "out"
        run_scenario(cfg_path("compact_decay"), out_dir=str(out),
                     overrides=["grids.M=64", "compactness.tail_index=40"])
        assert len(svd_calls) == 2
        (report,) = reports
        for side, spectrum in (("coarse", report.spectrum_coarse),
                               ("fine", report.spectrum_fine)):
            with open(out / f"spectrum_{side}.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert [float(v) for _, v in rows] == spectrum.tolist()

    @pytest.mark.parametrize("route, full, blocks", [
        ("spectral", [64, 128], []), ("kernel", [64], [64, 128])],
        ids=["spectral", "kernel"])
    def test_reuses_the_built_operator(self, tmp_path, monkeypatch, route,
                                       full, blocks):
        # the full operator is built at most once per run; on the KERNEL
        # route, compact_decay's kernel is decomposed from blocks built at
        # both resolutions instead
        calls = {"full": [], "blocks": []}

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name].append(args[2].points)
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(runner, "discretize_fio",
                            counting("full", runner.discretize_fio))
        monkeypatch.setattr(runner, "discretize_blocks",
                            counting("blocks", runner.discretize_blocks))
        run_scenario(cfg_path("compact_decay"), out_dir=str(tmp_path / "out"),
                     overrides=["grids.M=64", "compactness.tail_index=40",
                                f"operator.route={route}",
                                "scenario.operations=build-operator "
                                "compactness"])
        assert calls == {"full": full, "blocks": blocks}

    def test_artifacts_do_not_depend_on_the_operation_list(self, tmp_path):
        # with the operator built first, compactness still decomposes the
        # blocks, byte for byte
        names = ("compactness.json", "spectrum_coarse.csv",
                 "spectrum_fine.csv")
        files = []
        for ops in ("compactness", "build-operator compactness"):
            out = tmp_path / ops.replace(" ", "_")
            run_scenario(cfg_path("compact_decay"), out_dir=str(out),
                         overrides=["grids.M=64", "compactness.tail_index=40",
                                    f"scenario.operations={ops}"])
            files.append([(out / name).read_bytes() for name in names])
        assert files[0] == files[1]
        assert json.loads(files[0][0])["svd_coarse"]["blocks"] == [
            [33, 33], [31, 31]]

    @pytest.mark.parametrize("override", [
        "phase.generating=expr:x*theta + theta**2/2", "symbol.a=1/lam + x/10",
        "operator.route=spectral"])
    def test_full_path_outside_the_proof(self, tmp_path, monkeypatch,
                                         override):
        # the chirp, an amplitude the proof does not cover and the SPECTRAL
        # route: no blocks, and the spectra of the full builds, bit for bit
        built = []
        blocks = runner.discretize_blocks

        def spy(*args, **kwargs):
            built.append(blocks(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(runner, "discretize_blocks", spy)
        out = tmp_path / "out"
        run_scenario(cfg_path("compact_decay"), out_dir=str(out),
                     overrides=["grids.M=64", "compactness.tail_index=40",
                                override])
        assert all(b is None for b in built)
        cfg, _ = load_scenario(cfg_path("compact_decay"), [override])
        for side, M in (("coarse", 64), ("fine", 128)):
            grid = GridSpec(1, 4.0, M, dft_aligned=True)
            F = operators.discretize_fio(
                cfg["phase", "generating"], cfg["symbol", "a"], grid, grid,
                grid.dual(), route=operators.Route[cfg["operator", "route"]])
            with open(out / f"spectrum_{side}.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert [float(v) for _, v in rows] == \
                operators.singular_values(F)[0].tolist()

    def test_block_errors_are_the_full_builds(self, tmp_path, capsys):
        # e^(iS) a is not finite on a row the blocks evaluate: the full
        # build reports it (the tail index fits M = 64, so the builds run)
        assert main(["run", "compact_decay", "--out-dir", str(tmp_path),
                     "--override", "symbol.a=1/x**2",
                     "--override", "grids.M=64",
                     "--override", "compactness.tail_index=40"]) == 2
        assert "the amplitude a = x0**(-2) gives e^(iS) a = (inf+nanj) at " \
            "x = [0.0], theta = [-25.132741228718345], which is not finite" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("op, M, largest", [
        ("compactness", 2100, 2048), ("spectrum", 4097, 4096)])
    def test_svd_cap_checked_before_any_build(self, tmp_path, capsys,
                                              monkeypatch, op, M, largest):
        # compactness decomposes a 2M x 2M operator, spectrum an M x M one
        def build(*args, **kwargs):
            raise AssertionError("an operator was built")
        monkeypatch.setattr(runner, "discretize_fio", build)
        assert main(["run", "compact_decay", "--out-dir", str(tmp_path),
                     "--override", f"grids.M={M}",
                     "--override", f"scenario.operations={op}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: [{op}] dense decomposition capped at " \
            f"{operators.SVD_CAP}" in err
        assert f"the largest grids.M is {largest}" in err

    @pytest.mark.parametrize("op, factor", [("compactness", 2),
                                            ("spectrum", 1)])
    def test_svd_cap_boundary(self, tmp_path, monkeypatch, op, factor):
        # with the cap lowered to 128: the largest M runs (its verdict
        # aside), one more is a config error
        monkeypatch.setattr(runner, "SVD_CAP", 128)
        largest = 128 // factor
        codes = [main(["run", "compact_decay", "--out-dir", str(tmp_path),
                       "--override", f"grids.M={M}",
                       "--override", "compactness.tail_index=10",
                       "--override", f"scenario.operations={op}"])
                 for M in (largest, largest + 1)]
        assert codes[0] in (0, 1) and codes[1] == 2

    @pytest.mark.parametrize("M, tail", [(512, 100000), (64, 64), (64, -1)])
    def test_tail_index_checked_before_any_build(self, tmp_path, capsys,
                                                 monkeypatch, M, tail):
        def build(*args, **kwargs):
            raise AssertionError("an operator was built")
        monkeypatch.setattr(runner, "discretize_fio", build)
        monkeypatch.setattr(runner, "discretize_blocks", build)
        assert main(["run", "compact_decay", "--out-dir", str(tmp_path),
                     "--override", f"grids.M={M}",
                     "--override", f"compactness.tail_index={tail}"]) == 2
        assert f"config error: [compactness] tail index {tail} outside the " \
            f"coarse spectrum of {M} values" in capsys.readouterr().err


def spy_on_rule(monkeypatch) -> list:
    """The function that called the rounding rule, once per call."""
    calls, rule = [], operators._below_rounding

    def spy(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return rule(*args)
    monkeypatch.setattr(operators, "_below_rounding", spy)
    return calls


class TestSvdRules:
    """Each SVD evaluates each of its rules once, and its record comes from
    those evaluations."""

    @pytest.mark.parametrize("route, rules", [
        ("kernel", ["_reflection_part"]),
        ("spectral", ["_imag_part", "_reflection_part"])])
    def test_spectrum_runs_each_rule_once(self, tmp_path, monkeypatch, route,
                                          rules):
        # the KERNEL build of multiplier_norm is real, the SPECTRAL complex
        calls = spy_on_rule(monkeypatch)
        run_scenario(cfg_path("multiplier_norm"), out_dir=str(tmp_path),
                     overrides=["grids.M=64", "scenario.operations=spectrum",
                                f"operator.route={route}"])
        assert calls == rules
        record = json.loads((tmp_path / "spectrum.json").read_text())["svd"]
        assert record["arithmetic"] == "real"
        assert record["blocks"] == [[33, 33], [31, 31]]

    def test_blocks_run_no_rule_of_the_svd(self, tmp_path, monkeypatch):
        # the blocks' build applies the rule once per resolution; their
        # SVDs apply none
        calls = spy_on_rule(monkeypatch)
        run_scenario(cfg_path("compact_decay"), out_dir=str(tmp_path),
                     overrides=["grids.M=64", "compactness.tail_index=40"])
        assert calls == ["discretize_blocks"] * 2


class TestTracedSvd:
    """`bench/worker.py scenario --trace` on the scenarios that take an SVD:
    the traced run passes its checks and writes the untraced run's bytes."""

    @pytest.mark.parametrize("name, svds", [("multiplier_norm", 1),
                                            ("compact_decay", 2)])
    def test_traced_artifacts_are_bit_identical(self, tmp_path, name, svds):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        files, spans = [], None
        for trace in ([], ["--trace"]):
            dest = tmp_path / f"out{len(files)}"
            result = tmp_path / f"result{len(files)}.json"
            subprocess.run([sys.executable, str(root / "bench" / "worker.py"),
                            "scenario", "--scenario", name, "--out-dir",
                            str(dest), "--result", str(result), *trace],
                           env=env, cwd=tmp_path, check=True,
                           capture_output=True)
            res = json.loads(result.read_text())
            assert res["checks"] and all(c["passed"] for c in res["checks"])
            spans = res["spans"]
            files.append({p.name: p.read_bytes() for p in dest.iterdir()
                          if p.name != "manifest.json"})
        assert files[0] == files[1] and files[0]
        assert [s["name"] for s in spans].count("singular_values") == svds


class TestBlasFacts:
    """manifest.json records numpy's BLAS: name, version, thread count."""

    def test_manifest_records_numpy_blas(self, tmp_path):
        run_scenario(cfg_path("chirp_phase"), out_dir=str(tmp_path))
        blas = json.loads((tmp_path / "manifest.json").read_text())["blas"]
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (blas["name"], blas["version"]) == (config["name"],
                                                   config["version"])
        assert blas["threads"] is None or blas["threads"] >= 1

    def test_thread_count_follows_the_environment(self, tmp_path):
        # OpenBLAS reads OPENBLAS_NUM_THREADS when it loads
        if runner._blas_facts()["threads"] is None:
            pytest.skip("no OpenBLAS thread count in this process")
        src = str(Path(runner.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run(
            [sys.executable, "-m", "fiolab.cli", "run", "chirp_phase",
             "--out-dir", str(tmp_path)],
            env=env, cwd=tmp_path, capture_output=True, check=True)
        blas = json.loads((tmp_path / "manifest.json").read_text())["blas"]
        assert blas["threads"] == 1

    def test_oscint_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # the special route's Fourier sums are GEMMs; folded onto
        # theta >= 0, the value is a real part, whose bits one and two
        # OpenBLAS threads agree on
        src = str(Path(runner.__file__).parents[1])
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run(
                [sys.executable, "-m", "fiolab.cli", "run", "oscint_gaussian",
                 "--out-dir", str(out)],
                env=env, cwd=tmp_path, capture_output=True, check=True)
            blas = json.loads((out / "manifest.json").read_text())["blas"]
            assert blas["threads"] in (None, int(threads))
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()
                              if p.name != "manifest.json"})
        assert set(artifacts[0]) == {"oscint.json", "oscint_residuals.csv"}
        assert artifacts[0] == artifacts[1]

    def test_null_where_unknown(self, monkeypatch):
        def no_config(*args, **kwargs):
            raise TypeError("no mode")

        def no_library(path):
            raise OSError(path)
        monkeypatch.setattr(runner.np, "show_config", no_config)
        monkeypatch.setattr(runner.ctypes, "CDLL", no_library)
        assert runner._blas_facts() == {"name": None, "version": None,
                                        "threads": None}


class TestVerifySymbol:
    def test_values_are_seminorm_estimates(self, tmp_path):
        overrides = [VERIFY_SYMBOL, "symbol.weight=lambda:p=-1",
                     "symbol.rho=0.5", "symbol.max_order=3"]
        for out in ("a", "b"):
            run_scenario(cfg_path("ffstar_gaussian"),
                         out_dir=str(tmp_path / out), overrides=overrides)
        result = (tmp_path / "a" / "verify-symbol.json").read_bytes()
        assert result == (tmp_path / "b" / "verify-symbol.json").read_bytes()
        S = GeneratingFunction.from_expr("x*theta", 1)
        a = SymbolField.from_expr("exp(-(x**2 + theta**2)/25)", S.variables,
                                  weight=lambda_weight(-1.0, 2), rho=0.5)
        grid = GridSpec(2, 8.0, 17)
        expected = {"".join(map(str, alpha)): seminorm_estimate(a, alpha, grid)
                    for alpha in multi_indices(2, 3)}
        seminorms = json.loads(result)["seminorms"]
        assert len(seminorms) == 10
        assert {k: v.hex() for k, v in seminorms.items()} == \
            {k: v.hex() for k, v in expected.items()}


class TestLoadScenario:
    def test_bundled_name_resolves(self):
        cfg, digest = load_scenario(cfg_path("oscint_gaussian"))
        assert cfg["scenario", "operations"] == ["oscint"]
        assert len(digest) == 64  # hex sha-256 of the resolved config

    def test_malformed_override_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(cfg_path("oscint_gaussian"), overrides=["oops"])

    def test_missing_file_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("/no/such/file.cfg")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_every_bundled_scenario_passes(name, tmp_path):
    m = run_scenario(cfg_path(name), out_dir=str(tmp_path / name))
    assert all(o["passed"] for o in m.outcomes)


class TestSchema:
    """`runner._SCHEMA` is the scenario format: every entry a run reads,
    converted once when the scenario loads."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_bundled_keys_are_in_the_table(self, name):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read(cfg_path(name))
        given = {(section, key) for section in parser.sections()
                 for key in parser[section]}
        assert given and given <= set(runner._SCHEMA)

    def test_readme_lists_the_table(self):
        readme = Path(__file__).parents[1] / "README.md"
        section = readme.read_text().split("## Scenario files")[1]
        section = section.split("\n## ")[0]
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")]
        assert rows[0] == ["section", "key", "type", "default", "choices"]

        def row(section, key, entry):
            kind = entry.convert.__name__.lstrip("_")
            if entry.over:
                kind += " in " + ", ".join(entry.over)
            default = ("required" if entry.default is runner._REQUIRED
                       else "—" if entry.default is None else entry.default)
            return [section, key, kind + " list" * entry.many, default,
                    ", ".join(entry.choices)]
        assert rows[2:] == [row(*k, e) for k, e in runner._SCHEMA.items()]

    def test_runner_reads_config_only_through_the_table(self):
        """No configparser read (`get*`, `has_*`, `fallback=`) is left in
        runner.py, and every `cfg[...]` read names a table entry."""
        tree = ast.parse(Path(runner.__file__).read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert [node.func.attr for node in calls
                if isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith(("get", "has_"))] == []
        assert [kw.arg for node in calls for kw in node.keywords
                if kw.arg == "fallback"] == []
        reads = [ast.literal_eval(node.slice) for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript)
                 and isinstance(node.ctx, ast.Load)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "cfg"]
        assert reads and set(reads) <= set(runner._SCHEMA)

    def test_manifest_records_effective_config(self, tmp_path):
        run_scenario(cfg_path("ffstar_gaussian"), out_dir=str(tmp_path),
                     overrides=["grids.M=64", "scenario.operations=spectrum"])
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert {(s, k) for s in config for k in config[s]} == \
            set(runner._SCHEMA)
        assert config["grids"] == {"M": 64, "R": 8.0}
        assert config["scenario"] == {"name": "ffstar_gaussian",
                                      "operations": ["spectrum"]}
        assert config["output"] == {"dir": "out_ffstar_gaussian"}
        assert config["symbol"]["a"] == "exp(-(x**2 + theta**2)/25)"
        assert config["phase"]["generating"] == "expr:x*theta"
        assert config["oscint"]["schedule"] == [4.0, 8.0, 16.0, 32.0, 64.0]
        assert config["ffstar"]["samples"] == [[0.0, 0.0], [0.5, 0.5],
                                               [1.0, 1.0]]
        assert config["operator"]["route"] == "KERNEL"
        assert config["oscint"]["f"] is None  # required, read by oscint only
        assert config["compactness"]["expected"] is None

    def test_default_block_in_a_file_is_an_unknown_section(self, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text("[DEFAULT]\nM = 64\n"
                        + Path(cfg_path("fourier_inversion")).read_text())
        with pytest.raises(ScenarioError, match="DEFAULT"):
            load_scenario(path)

    @pytest.mark.parametrize("source", ["file", "override"])
    def test_percent_reaches_the_formula_parser(self, tmp_path, monkeypatch,
                                                source):
        seen = []
        parse = runner.parse_scalar_expr

        def recording(text, variables):
            seen.append(text)
            return parse(text, variables)
        monkeypatch.setattr(runner, "parse_scalar_expr", recording)
        path, overrides = cfg_path("oscint_gaussian"), ["oscint.f=y%2"]
        if source == "file":
            path, overrides = tmp_path / "percent.cfg", []
            path.write_text(Path(cfg_path("oscint_gaussian")).read_text()
                            .replace("f = exp(-y**2/2)", "f = y%2"))
        cfg, _ = load_scenario(path, overrides)
        assert "y%2" in seen
        assert str(cfg["oscint", "f"]) == "Mod(y0, 2)"

    @pytest.mark.parametrize("formula", ["foo({0})", "gamma({1})", "{0}!"])
    @pytest.mark.parametrize("entry, prefix, names", [
        ("symbol.a", "", "x theta"),
        ("oscint.a", "", "y theta"),
        ("oscint.f", "", "y y"),
        ("cv.sigma", "", "x xi"),
        ("phase.generating", "expr:", "x theta"),
        ("symbol.weight", "expr:", "v1 v2"),
    ])
    def test_formula_outside_the_language_exits_two(self, tmp_path, capsys,
                                                    formula, entry, prefix,
                                                    names):
        """An undefined function, a sympy name outside the name list and a
        factorial, in each formula entry's own coordinates."""
        name, selected = _READERS[entry.partition(".")[0]]
        args = ["run", name, "--out-dir", str(tmp_path)]
        for override in (*selected,
                         f"{entry}={prefix}{formula.format(*names.split())}"):
            args += ["--override", override]
        assert main(args) == 2
        assert "config error:" in capsys.readouterr().err

    def test_formula_is_not_run_as_python(self, tmp_path, capsys):
        ran = tmp_path / "ran"
        formula = f'__import__("pathlib").Path("{ran}").touch()'
        assert main(["run", "multiplier_norm", "--out-dir",
                     str(tmp_path / "out"), "--override",
                     f"symbol.a={formula}"]) == 2
        assert "names undefined Path, __import__, touch" in \
            capsys.readouterr().err
        assert not ran.exists()

    def test_one_formula_language(self):
        """An `expr:` weight and a formula entry accept the same names."""
        cfg, _ = load_scenario(cfg_path("ffstar_gaussian"), [
            "symbol.weight=expr:sin(v1)+2", "symbol.a=1/(1+r)",
            "oscint.f=y%2"])
        x, theta = GeneratingFunction.from_expr("x*theta", 1).variables
        assert cfg["symbol", "a"] == 1 / (1 + sympy.sqrt(x ** 2 + theta ** 2))
        assert str(cfg["oscint", "f"]) == "Mod(y0, 2)"
        assert cfg["symbol", "weight"] == "expr:sin(v1)+2"

    def test_symbol_a_defaults_to_one_with_a_symbol_section(self, tmp_path):
        """chirp_phase has no [symbol] section; an override that makes one
        keeps a = 1."""
        overrides = ["scenario.operations=verify-symbol", "symbol.rho=0.5"]
        cfg, _ = load_scenario(cfg_path("chirp_phase"), overrides)
        assert cfg["symbol", "a"] == 1
        args = ["run", "chirp_phase", "--out-dir", str(tmp_path)]
        for override in overrides:
            args += ["--override", override]
        assert main(args) == 0

    def test_missing_required_entry_exits_two(self, tmp_path, capsys):
        assert main(["run", "fourier_inversion", "--out-dir", str(tmp_path),
                     "--override", "scenario.operations=oscint"]) == 2
        assert "missing [oscint] f" in capsys.readouterr().err


#: where each section is read: a bundled scenario and the overrides that
#: select the operation reading it
_READERS = {
    "scenario": ("fourier_inversion", ()),
    "output": ("fourier_inversion", ()),
    "phase": ("chirp_phase", ()),
    "symbol": ("ffstar_gaussian", (VERIFY_SYMBOL,)),
    "grids": ("fourier_inversion", ()),
    "operator": ("fourier_inversion", ()),
    "ffstar": ("ffstar_gaussian", ()),
    "spectrum": ("multiplier_norm", ("scenario.operations=spectrum",)),
    "oscint": ("oscint_gaussian", ()),
    "verify": ("chirp_phase", ()),
    "cv": ("multiplier_norm", (CV_CHECK,)),
    "compactness": ("compact_decay", ("compactness.tail_index=40",)),
}

#: malformed entry texts; none is large, so no size entry (M, points,
#: count, tail_index, max_order, k) asks for a large dense matrix
_MALFORMED = ("", "abc", "nan", "-inf", "-1", "0", "%", "foo(x)", "x!")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(entry=st.sampled_from(sorted(runner._SCHEMA)),
       value=st.sampled_from(_MALFORMED))
def test_malformed_override_never_exits_three(entry, value):
    """One malformed override, at grids.M=64, on a scenario whose operation
    reads it: a defined exit code, never an internal error or traceback."""
    (section, key), (name, selected) = entry, _READERS[entry[0]]
    args = ["run", name]
    for override in ("grids.M=64", *selected, f"{section}.{key}={value}"):
        args += ["--override", override]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(args + ["--out-dir", out])
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
