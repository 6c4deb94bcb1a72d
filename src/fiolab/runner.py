"""Scenario runner: parse a config, orchestrate the modules, persist results.

Scenarios are flat INI-style files with named sections and key=value
entries.  Each operation writes a JSON result (sorted keys, repr floats)
and, where meaningful, a plot-ready CSV; the manifest ties everything to the
scenario hash.  All numeric outputs are deterministic: rerunning the same
scenario byte-reproduces every JSON/CSV (the manifest additionally carries
wall-clock time and is exempt from that guarantee).
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
import scipy
import sympy

from . import __version__
from .grids import GridSpec
from .oscillatory import (ConvergenceError, CutoffKind, CutoffSpec,
                          OscIntegralResult, regularized_fio_apply)
from .operators import (DiscreteOperator, IterationError, Route, adjoint,
                        apply, compose, discretize_fio, gaussian_samples,
                        operator_norm, save_operator, singular_values)
from .pdo import (NewtonError, PdoSymbolEstimate, Which, compactness_probe,
                  compare_symbols, cv_bound_check, cv_seminorm)
from .phases import (GeneratingFunction, quadratic_generating, special_phase,
                     verify_G2, verify_G3, verify_H2, verify_H3)
from .symbols import SymbolField, seminorm_estimate
from .weights import DEFAULT_CONVENTION, parse_weight
from .expressions import coord_symbols, multi_indices, parse_scalar_expr

class ScenarioError(Exception):
    """Configuration problem: parse failure or invalid reference."""


class _Config(configparser.ConfigParser):
    """ConfigParser whose getint/getfloat/getboolean raise ScenarioError on
    a malformed value (all three convert through `_get_conv`)."""

    def _get_conv(self, section, option, conv, **kwargs):
        try:
            return super()._get_conv(section, option, conv, **kwargs)
        except ValueError as exc:
            raise ScenarioError(f"[{section}] {option}: {exc}") from exc


@dataclass
class RunManifest:
    scenario_hash: str
    lambda_convention: str
    module_versions: dict
    grids: dict
    outcomes: List[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0
    out_dir: str = ""

    @property
    def passed(self) -> bool:
        return all(o["passed"] for o in self.outcomes)

    def to_json(self) -> str:
        return json.dumps({
            "scenario_hash": self.scenario_hash,
            "lambda_convention": self.lambda_convention,
            "module_versions": self.module_versions,
            "grids": self.grids,
            "outcomes": self.outcomes,
            "wall_clock_s": self.wall_clock_s,
            "out_dir": self.out_dir,
        }, sort_keys=True, indent=2)


def _cfloat(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def load_scenario(path, overrides: Sequence[str] = ()):
    """Parse + validate; returns (config, scenario hash)."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    text = path.read_text()
    cfg = _Config(inline_comment_prefixes=("#",))
    try:
        cfg.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ScenarioError(f"override must look like section.key=value: {item}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, key, value)
    if not cfg.has_section("scenario"):
        raise ScenarioError("missing [scenario] section")
    for op in _operation_list(cfg):
        if op not in _DISPATCH:
            raise ScenarioError(f"unknown operation: {op}")
    digest = hashlib.sha256()
    digest.update(text.encode())
    for item in sorted(overrides):
        digest.update(item.encode())
    return cfg, digest.hexdigest()


@contextmanager
def _config_values(where: str):
    """ValueError from a library object built from config values, reported
    as the ScenarioError it is."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{where} {exc}") from exc


def _operation_list(cfg) -> List[str]:
    raw = cfg.get("scenario", "operations", fallback="")
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


def _formula(text: str, variables, where: str) -> sympy.Expr:
    """A config formula parsed over `variables`; ScenarioError when it does
    not parse to an expression or names anything else."""
    try:
        expr = parse_scalar_expr(text, variables)
    except (sympy.SympifyError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"bad {where} formula {text!r}: {exc}") from exc
    if not isinstance(expr, sympy.Expr):
        raise ScenarioError(f"{where} formula {text!r} is not an expression")
    extra = expr.free_symbols - set(variables)
    if extra:
        raise ScenarioError(f"{where} formula references undefined names: "
                            f"{sorted(map(str, extra))}")
    return expr


def _build_generating(cfg) -> GeneratingFunction:
    if not cfg.has_section("phase"):
        raise ScenarioError("missing [phase] section")
    n = cfg.getint("phase", "n", fallback=1)
    gen = cfg.get("phase", "generating", fallback=None)
    if gen is None:
        raise ScenarioError("[phase] needs a `generating` entry")
    gen = gen.strip()
    if gen.startswith("expr:"):
        variables = coord_symbols("x", n) + coord_symbols("theta", n)
        return GeneratingFunction.from_expr(
            _formula(gen[len("expr:"):], variables, "[phase] generating"), n)
    if gen == "quadratic":
        if n != 1:
            raise ScenarioError("config quadratic phases support n = 1")
        raw = cfg.get("phase", "coeffs", fallback="")
        keymap = {"xx": ((2,), (0,)), "xt": ((1,), (1,)), "tt": ((0,), (2,))}
        coeffs = {}
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                key, val = tok.split(":")
                coeffs[keymap[key.strip()]] = float(val)
            except (ValueError, KeyError) as exc:
                raise ScenarioError(f"bad quadratic coefficient {tok!r}") from exc
        if not coeffs:
            raise ScenarioError("quadratic phase needs nonempty coeffs")
        return quadratic_generating(coeffs, n)
    raise ScenarioError(f"unknown generating kind: {gen!r}")


def _amplitude_string(cfg) -> str:
    if not cfg.has_section("symbol") or not cfg.has_option("symbol", "a"):
        raise ScenarioError("missing [symbol] a = <formula>")
    return cfg.get("symbol", "a")


def _grids(cfg):
    m = cfg.getint("grids", "M", fallback=256)
    r = cfg.getfloat("grids", "R", fallback=8.0)
    if m < 2 or r <= 0:
        raise ScenarioError("grids need M >= 2 and R > 0")
    x = GridSpec(1, r, m, dft_aligned=True)
    return x, x, x.dual()


def _write_json(out_dir: Path, name: str, payload: dict):
    (out_dir / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


def emit_plot_data(result, kind: str, path) -> None:
    """Two/three-column CSVs for the supported result kinds."""
    path = Path(path)
    if kind == "sigma-residuals":
        if not isinstance(result, OscIntegralResult):
            raise ValueError("sigma-residuals expects an oscillatory result")
        _write_csv(path, ["sigma", "residual_abs"],
                   [(float(s), float(r)) for s, r in result.sigma_residuals])
    elif kind == "singular-values":
        s = np.asarray(result, dtype=float)
        _write_csv(path, ["index", "singular_value"],
                   [(int(i), float(v)) for i, v in enumerate(s)])
    elif kind == "symbol-comparison":
        if not isinstance(result, PdoSymbolEstimate):
            raise ValueError("symbol-comparison expects a symbol estimate")
        rows = []
        for smp in result.samples:
            lam = float(np.sqrt(1.0 + smp.x ** 2 + smp.xi ** 2))
            rows.append((lam, float("nan") if smp.rel_error is None
                         else float(smp.rel_error)))
        _write_csv(path, ["lambda_base", "relative_error"], rows)
    else:
        raise ValueError(f"unsupported plot kind: {kind!r}")


# ---------------------------------------------------------------------------
# operations


def _discretize(cfg, ctx, xg, yg, tg) -> DiscreteOperator:
    """The scenario's operator on the given grids, by its [operator] route."""
    route = cfg.get("operator", "route", fallback="kernel").upper()
    if route not in Route.__members__:
        raise ScenarioError(f"unknown operator route {route!r}")
    taper = cfg.getboolean("operator", "taper", fallback=True)
    return discretize_fio(ctx["S"], ctx["a"], xg, yg, tg,
                          route=Route[route], taper=taper)


def _op_build_operator(cfg, ctx, out_dir: Path) -> dict:
    xg, yg, tg = ctx["grids"]
    F = _discretize(cfg, ctx, xg, yg, tg)
    ctx["F"] = F
    details = {"route": F.provenance["route"], "provenance": F.provenance}
    passed = True
    if cfg.getboolean("operator", "apply_check", fallback=False):
        rtol = cfg.getfloat("operator", "apply_rtol", fallback=1e-6)
        g = gaussian_samples(yg, width=4.0 * yg.spacing)
        err = float(np.linalg.norm(apply(F, g) - g)
                    / np.linalg.norm(g))
        details["apply_rel_error"] = err
        details["apply_rtol"] = rtol
        passed = err < rtol
    if cfg.getboolean("operator", "save", fallback=False):
        dest = out_dir / "operator.bin"
        save_operator(F, str(dest))
        details["saved"] = dest.name
    _write_json(out_dir, "build-operator", {"passed": passed, **details})
    return {"operation": "build-operator", "passed": passed, **details}


def _require_operator(cfg, ctx, out_dir):
    if "F" not in ctx:
        _op_build_operator(cfg, ctx, out_dir)
    return ctx["F"]


def _op_check_ffstar(cfg, ctx, out_dir: Path) -> dict:
    F = _require_operator(cfg, ctx, out_dir)
    S = ctx["S"]
    a = ctx["a"]
    ffstar = compose(F, adjoint(F))
    raw = cfg.get("ffstar", "samples", fallback="0 0")
    samples = []
    for tok in raw.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        try:
            x_s, t_s = tok.split()
            samples.append((float(x_s), float(t_s)))
        except ValueError as exc:
            raise ScenarioError(f"bad ffstar sample {tok!r}") from exc
    tol = cfg.getfloat("ffstar", "tol", fallback=0.05)
    est = compare_symbols(S, a, ffstar, samples, which=Which.FFSTAR)
    recorded = [s for s in est.samples if s.rel_error is not None]
    passed = all(s.rel_error <= tol for s in recorded)
    rows = [(s.x, s.xi, float(np.real(s.extracted)), float(np.imag(s.extracted)),
             s.predicted, "" if s.rel_error is None else repr(s.rel_error))
            for s in est.samples]
    _write_csv(out_dir / "ffstar_samples.csv",
               ["x", "xi", "extracted_re", "extracted_im", "predicted",
                "relative_error"], rows)
    emit_plot_data(est, "symbol-comparison", out_dir / "ffstar_errors.csv")
    details = {
        "tol": tol,
        "window": est.window,
        "recorded": len(recorded),
        "max_rel_error": est.max_rel_error,
        "samples": [{
            "x": s.x, "xi": s.xi, "extracted": _cfloat(s.extracted),
            "predicted": s.predicted, "rel_error": s.rel_error,
        } for s in est.samples],
    }
    _write_json(out_dir, "check-ffstar", {"passed": passed, **details})
    return {"operation": "check-ffstar", "passed": passed,
            "max_rel_error": est.max_rel_error, "tol": tol}


def _op_spectrum(cfg, ctx, out_dir: Path) -> dict:
    F = _require_operator(cfg, ctx, out_dir)
    count = cfg.getint("spectrum", "count", fallback=0) or None
    with _config_values("[spectrum]"):
        s = singular_values(F, count)
    emit_plot_data(s, "singular-values", out_dir / "spectrum.csv")
    details = {"count": len(s), "top": float(s[0]) if len(s) else 0.0}
    _write_json(out_dir, "spectrum", {"passed": True, **details})
    return {"operation": "spectrum", "passed": True, **details}


def _op_oscint(cfg, ctx, out_dir: Path) -> dict:
    if not cfg.has_section("oscint"):
        raise ScenarioError("missing [oscint] section")
    phi = special_phase(ctx["S"])
    a = _formula(cfg.get("oscint", "a", fallback="1"), phi.variables,
                 "[oscint] a")
    if not cfg.has_option("oscint", "f"):
        raise ScenarioError("[oscint] needs f = <formula in y>")
    f = _formula(cfg.get("oscint", "f"), phi.yvars, "[oscint] f")
    x = cfg.getfloat("oscint", "x", fallback=0.0)
    raw = cfg.get("oscint", "schedule", fallback="4,8,16,32,64")
    try:
        schedule = [float(t) for t in raw.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"bad [oscint] schedule {raw!r}") from exc
    if any(s2 <= s1 for s1, s2 in zip(schedule, schedule[1:])):
        raise ScenarioError(f"[oscint] schedule must be increasing: {raw!r}")
    kind = cfg.get("oscint", "cutoff", fallback="gaussian").strip().upper()
    try:
        cutoff = CutoffSpec(CutoffKind[kind])
    except KeyError as exc:
        raise ScenarioError(f"unknown cutoff kind {kind!r}") from exc
    try:
        res = regularized_fio_apply(a, phi, f, x, schedule=schedule,
                                    cutoff=cutoff)
        converged = True
    except ConvergenceError as exc:
        res, converged = exc.result, False
    emit_plot_data(res, "sigma-residuals", out_dir / "oscint_residuals.csv")
    passed = converged
    details = {
        "value": _cfloat(res.value),
        "cutoff": kind,
        "cutoff_gap": res.cutoff_gap,
        "sigma_residuals": [[float(s), float(r)]
                            for s, r in res.sigma_residuals],
        "truncation_radius": res.truncation_radius,
        "quadrature": res.quadrature,
    }
    expected = cfg.getfloat("oscint", "expected_re", fallback=None)
    if expected is not None and converged:
        rtol = cfg.getfloat("oscint", "rtol", fallback=1e-3)
        err = abs(res.value - expected) / max(abs(expected), 1e-300)
        details["expected_re"] = expected
        details["expected_rel_error"] = float(err)
        passed = passed and err < rtol
    _write_json(out_dir, "oscint", {"passed": passed, **details})
    return {"operation": "oscint", "passed": passed, "value": details["value"]}


def _op_verify_phase(cfg, ctx, out_dir: Path) -> dict:
    S = ctx["S"]
    phi = special_phase(S)
    reports = {
        "G2": verify_G2(S),
        "G3": verify_G3(S),
        "H2": verify_H2(phi),
        "H3": verify_H3(phi),
    }
    expect_pass = cfg.getboolean("verify", "expect_pass", fallback=True)
    all_pass = all(r.passed for r in reports.values())
    passed = all_pass == expect_pass
    details = {name: json.loads(r.to_json()) for name, r in reports.items()}
    _write_json(out_dir, "verify-phase", {"passed": passed, **details})
    return {"operation": "verify-phase", "passed": passed,
            "hypotheses": {k: r.passed for k, r in reports.items()}}


def _op_verify_symbol(cfg, ctx, out_dir: Path) -> dict:
    S = ctx["S"]
    weight_tag = cfg.get("symbol", "weight", fallback="const:1")
    rho = cfg.getfloat("symbol", "rho", fallback=0.0)
    radius = cfg.getfloat("symbol", "check_radius", fallback=8.0)
    points = cfg.getint("symbol", "check_points", fallback=17)
    max_order = cfg.getint("symbol", "max_order", fallback=2)
    estimates = {}
    with _config_values("[symbol]"):
        a_field = SymbolField.from_expr(ctx["a"], S.variables, rho=rho,
                                        weight=parse_weight(weight_tag, 2))
        grid = GridSpec(2, radius, points)
        for alpha in multi_indices(2, max_order):
            estimates["".join(map(str, alpha))] = \
                seminorm_estimate(a_field, alpha, grid)
    finite = all(np.isfinite(c) for c in estimates.values())
    _write_json(out_dir, "verify-symbol",
                {"passed": finite, "seminorms": estimates,
                 "weight": weight_tag, "rho": rho})
    return {"operation": "verify-symbol", "passed": finite,
            "seminorms": estimates}


def _op_cv_check(cfg, ctx, out_dir: Path) -> dict:
    if not cfg.has_section("cv") or not cfg.has_option("cv", "sigma"):
        raise ScenarioError("missing [cv] sigma = <formula in x, xi>")
    xxi = coord_symbols("x", 1) + (sympy.Symbol("xi", real=True),)
    sigma = SymbolField.from_expr(
        _formula(cfg.get("cv", "sigma"), xxi, "[cv] sigma"), xxi)
    k = cfg.getint("cv", "k", fallback=3)
    gamma = cfg.getfloat("cv", "gamma", fallback=1.0)
    radius = cfg.getfloat("cv", "radius", fallback=8.0)
    points = cfg.getint("cv", "points", fallback=33)
    with _config_values("[cv]"):
        q = cv_seminorm(sigma, k, GridSpec(2, radius, points))
    F = _require_operator(cfg, ctx, out_dir)
    with _config_values("[cv]"):
        report = cv_bound_check(F, q, gamma=gamma)
    details = {
        "k": k, "gamma": gamma, "Q_k": q.Q_k,
        "operator_norm": report.norm, "bound": report.bound,
        "ratio": report.ratio,
    }
    _write_json(out_dir, "cv-check", {"passed": report.passed, **details})
    return {"operation": "cv-check", "passed": report.passed, **details}


def _op_compactness(cfg, ctx, out_dir: Path) -> dict:
    xg, yg, tg = ctx["grids"]
    xf = GridSpec(1, xg.radius, 2 * xg.points, dft_aligned=True)
    coarse = ctx["F"] if "F" in ctx else _discretize(cfg, ctx, xg, yg, tg)
    fine = _discretize(cfg, ctx, xf, xf, xf.dual())
    tail_index = cfg.getint("compactness", "tail_index", fallback=0) or None
    with _config_values("[compactness]"):
        report = compactness_probe(coarse, fine, tail_index=tail_index)
    expected = cfg.get("compactness", "expected", fallback=None)
    passed = True if expected is None else (report.verdict == expected.strip())
    emit_plot_data(report.spectrum_coarse, "singular-values",
                   out_dir / "spectrum_coarse.csv")
    emit_plot_data(report.spectrum_fine, "singular-values",
                   out_dir / "spectrum_fine.csv")
    details = {
        "verdict": report.verdict,
        "expected": expected,
        "tail_index": report.tail_index,
        "tail_coarse": report.tail_coarse,
        "tail_fine": report.tail_fine,
        "plateau_coarse": report.plateau_coarse,
        "plateau_fine": report.plateau_fine,
    }
    _write_json(out_dir, "compactness", {"passed": passed, **details})
    return {"operation": "compactness", "passed": passed, **details}


_DISPATCH = {
    "build-operator": _op_build_operator,
    "check-ffstar": _op_check_ffstar,
    "spectrum": _op_spectrum,
    "oscint": _op_oscint,
    "verify-phase": _op_verify_phase,
    "verify-symbol": _op_verify_symbol,
    "cv-check": _op_cv_check,
    "compactness": _op_compactness,
}


def run_scenario(path, out_dir: Optional[str] = None,
                 overrides: Sequence[str] = ()) -> RunManifest:
    """Execute a scenario file; returns the manifest (also written to disk)."""
    t0 = time.perf_counter()
    cfg, digest = load_scenario(path, overrides)
    name = cfg.get("scenario", "name", fallback=Path(path).stem)
    dest = Path(out_dir if out_dir is not None
                else cfg.get("output", "dir", fallback=f"out_{name}"))
    dest.mkdir(parents=True, exist_ok=True)

    S = _build_generating(cfg)
    a_raw = _amplitude_string(cfg) if cfg.has_section("symbol") else "1"
    ctx = {"S": S, "a": _formula(a_raw, S.variables, "[symbol] a"),
           "grids": _grids(cfg)}
    xg, yg, tg = ctx["grids"]
    manifest = RunManifest(
        scenario_hash=digest,
        lambda_convention=DEFAULT_CONVENTION.value,
        module_versions={
            "fiolab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
        },
        grids={"x": xg.descriptor(), "y": yg.descriptor(),
               "theta": tg.descriptor()},
        out_dir=str(dest),
    )
    for op in _operation_list(cfg):
        try:
            outcome = _DISPATCH[op](cfg, ctx, dest)
        except (IterationError, NewtonError) as exc:
            # non-convergence is a failed check (exit 1), not an internal
            # error; the message goes into the operation's JSON
            error = f"{type(exc).__name__}: {exc}"
            _write_json(dest, op, {"passed": False, "error": error})
            outcome = {"operation": op, "passed": False, "error": error}
        manifest.outcomes.append(outcome)
    manifest.wall_clock_s = time.perf_counter() - t0
    (dest / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest
