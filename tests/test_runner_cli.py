"""Scenario runner and command-line interface: exit codes, artifacts,
determinism of emitted files."""
import csv
import json

import pytest

from fiolab import cli, operators, pdo, runner
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
        d = tmp_path / "out"
        assert main(["oscint", "oscint_gaussian", "--out-dir", str(d)]) == 0
        names = {p.name for p in d.iterdir()}
        assert {"oscint.json", "oscint_residuals.csv",
                "manifest.json"} <= names
        # every quadrature's grid and route: the schedule 16, 32, 64 on the
        # separable route, then the smooth-bump gap pass on the tensor route
        quadrature = json.loads((d / "oscint.json").read_text())["quadrature"]
        assert [(q["sigma"], q["cutoff"], q["route"]) for q in quadrature] == [
            (16.0, "gaussian", "separable"), (32.0, "gaussian", "separable"),
            (64.0, "gaussian", "separable"), (64.0, "smooth_bump", "tensor")]
        assert all(q["ny"] > 1 and q["nt"] > 1 for q in quadrature)

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
        *[("ffstar_gaussian", f"{VERIFY_SYMBOL} {o}") for o in (
            "symbol.check_points=1", "symbol.check_radius=0",
            "symbol.rho=2", "symbol.max_order=-1",
            "symbol.weight=expr:q*v1", "symbol.weight=expr:v3",
            "symbol.weight=expr:v1.z", "symbol.weight=expr:1/0",
            "symbol.weight=expr:I", "symbol.weight=expr:-1")],
        *[("multiplier_norm", f"{CV_CHECK} {o}") for o in (
            "cv.points=1", "cv.radius=-2", "cv.k=-1", "cv.gamma=-1")],
        *[("multiplier_norm", f"scenario.operations={op} grids.M=64 {o}")
          for op, o in (("spectrum", "spectrum.count=-1"),
                        ("compactness", "compactness.tail_index=-1"))],
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, name,
                                        overrides):
        """`overrides` holds one or more space-separated overrides."""
        args = ["run", name, "--out-dir", str(tmp_path / "out")]
        for override in overrides.split():
            args += ["--override", override]
        assert main(args) == 2
        assert "config error:" in capsys.readouterr().err

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
                    "outcomes", "scenario_hash", "wall_clock_s"):
            assert key in data
        assert data["scenario_hash"] == m.scenario_hash

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

    def test_reuses_the_built_operator(self, tmp_path, monkeypatch):
        calls = []
        discretize = runner.discretize_fio

        def counting(*args, **kwargs):
            calls.append(args[2].points)
            return discretize(*args, **kwargs)
        monkeypatch.setattr(runner, "discretize_fio", counting)
        run_scenario(cfg_path("compact_decay"), out_dir=str(tmp_path / "out"),
                     overrides=["grids.M=64", "compactness.tail_index=40",
                                "scenario.operations=build-operator "
                                "compactness"])
        assert calls == [64, 128]


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
        assert cfg.has_section("scenario")
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
