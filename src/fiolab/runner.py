"""Scenario runner: parse a config, orchestrate the modules, persist results.

Scenarios are flat INI-style files with named sections and key=value
entries, in the format `_SCHEMA` declares.  Each operation reads the typed
values and returns (passed, details); `run_scenario` alone writes them, as
`<op>.json` = {"passed": passed, **details} (sorted keys, repr floats) and
as the manifest outcome {"operation": op, "passed": passed, **details}.  An
operation may also write plot-ready CSVs.  Rerunning a scenario
byte-reproduces every JSON/CSV; the manifest, which ties them to the
scenario hash and the effective config, also carries wall-clock time and
the process's peak resident set size.
"""
from __future__ import annotations

import configparser
import csv
import ctypes
import difflib
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np
import sympy

try:
    from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage
except ImportError:  # Windows has no getrusage
    getrusage = None

from . import __version__
from .grids import GridSpec
from .oscillatory import (ConvergenceError, CutoffKind, CutoffSpec,
                          regularized_fio_apply)
from .operators import (SVD_CAP, DiscreteOperator, IterationError,
                        ReflectionBlocks, Route, adjoint, apply, compose,
                        discretize_blocks, discretize_fio, gaussian_samples,
                        operator_norm, save_operator, singular_values)
from .pdo import (NewtonError, Which, compactness_probe, compare_symbols,
                  check_tail_index, cv_bound_check, cv_seminorm)
from .phases import (GeneratingFunction, quadratic_generating, special_phase,
                     verify_G2, verify_G3, verify_H2, verify_H3)
from .symbols import SymbolField, seminorm_estimate
from .weights import DEFAULT_CONVENTION, parse_weight
from .expressions import coord_symbols, multi_indices, parse_scalar_expr


class ScenarioError(Exception):
    """Configuration problem: parse failure or invalid reference."""


@dataclass
class RunManifest:
    scenario_hash: str
    lambda_convention: str
    module_versions: dict
    #: numpy's BLAS: name, version and thread count (`_blas_facts`)
    blas: dict
    grids: dict
    config: dict
    outcomes: List[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0
    peak_rss_mb: Optional[float] = None
    children_peak_rss_mb: Optional[float] = None
    out_dir: str = ""

    @property
    def passed(self) -> bool:
        return all(o["passed"] for o in self.outcomes)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _peak_rss_mb(children: bool = False) -> Optional[float]:
    """The peak resident set size in MB (2^20 bytes) of this process, or
    with children=True of its largest reaped child (0 when it forked none);
    None where the `resource` module is missing."""
    if getrusage is None:
        return None
    peak = getrusage(RUSAGE_CHILDREN if children else RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux
    return peak / 2.0 ** 20 if sys.platform == "darwin" else peak / 2.0 ** 10


def _blas_facts() -> dict:
    """numpy's BLAS: "name" and "version" from numpy's build configuration,
    and "threads", the thread count of the OpenBLAS library this process
    has loaded, asked through ctypes; each None where unknown (no
    /proc/self/maps, no OpenBLAS, no such symbol)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas["name"], blas["version"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode
        name = version = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
        library = ctypes.CDLL(next(line.split()[-1] for line in maps
                                   if "openblas" in line))
    except (OSError, StopIteration):
        library = None
    threads = None
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(library, symbol):
            get = getattr(library, symbol)
            get.argtypes, get.restype = [], ctypes.c_int
            threads = int(get())
            break
    return {"name": name, "version": version, "threads": threads}


def _cfloat(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


# converters: an entry's text to its typed value, or ValueError
def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _directory(text: str) -> str:
    if not text:  # Path("") is the working directory
        raise ValueError("must name a directory, not be empty")
    return text


def _samples(text: str) -> List[Tuple[float, float]]:
    pairs = [tok.split() for tok in text.split(";") if tok.strip()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{text!r} is not `x xi` pairs separated by `;`")
    return [(_float(x), _float(xi)) for x, xi in pairs]


def _coeffs(text: str) -> GeneratingFunction:
    keymap = {"xx": ((2,), (0,)), "xt": ((1,), (1,)), "tt": ((0,), (2,))}
    pairs = [tok.split(":") for tok in text.split(",") if tok.strip()]
    if not pairs or any(len(p) != 2 or p[0].strip() not in keymap
                        for p in pairs):
        raise ValueError(f"{text!r} is not xx|xt|tt:value pairs")
    return quadratic_generating(
        {keymap[key.strip()]: _float(value) for key, value in pairs}, 1)


def _weight(text: str) -> str:
    """The tag as given, which verify-symbol records, once it parses."""
    parse_weight(text, 2)
    return text


def _formula(text: str, variables) -> sympy.Expr:
    return parse_scalar_expr(text, variables)


def _generating(text: str, variables):
    if text == "quadratic" and len(variables) == 2:
        return text  # S is [phase] coeffs
    if not text.startswith("expr:"):
        raise ValueError(f"{text!r} is neither expr:<formula> nor, for "
                         f"n = 1, quadratic")
    return GeneratingFunction.from_expr(_formula(text[5:], variables),
                                        len(variables) // 2)


_REQUIRED = object()


class _Entry(NamedTuple):
    """`default`: a text, None (no value) or _REQUIRED; a `many` value is a
    list of items split at commas and spaces; a value or item must be one
    of `choices` if given; a formula is over the coordinates `over`."""
    convert: Callable
    default: object = None
    choices: Tuple[str, ...] = ()
    over: Tuple[str, ...] = ()
    many: bool = False


# ---------------------------------------------------------------------------
# operations: each returns (passed, details); `run_scenario` writes them


@contextmanager
def _config_values(where: str):
    """ValueError, or NotImplementedError for a dimension the 1-D grids do
    not support, from the library on config values, as a ScenarioError."""
    try:
        yield
    except (ValueError, NotImplementedError) as exc:
        raise ScenarioError(f"{where} {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _operator(cfg, ctx, x: Optional[GridSpec] = None) -> DiscreteOperator:
    """The scenario's operator, by its [operator] route, with x and y on the
    grid `x` and theta on its dual; on the scenario grid (the default), it
    is built once per run."""
    if x is not None:
        return discretize_fio(ctx["S"], cfg["symbol", "a"], x, x, x.dual(),
                              route=Route[cfg["operator", "route"]],
                              taper=cfg["operator", "taper"])
    if "F" not in ctx:
        ctx["F"] = _operator(cfg, ctx, ctx["x"])
    return ctx["F"]


def _op_build_operator(cfg, ctx, out_dir: Path):
    F = _operator(cfg, ctx)
    details = {"route": F.provenance["route"], "provenance": F.provenance}
    passed = True
    if cfg["operator", "apply_check"]:
        rtol = cfg["operator", "apply_rtol"]
        g = gaussian_samples(ctx["x"], width=4.0 * ctx["x"].spacing)
        err = float(np.linalg.norm(apply(F, g) - g) / np.linalg.norm(g))
        details.update(apply_rel_error=err, apply_rtol=rtol)
        passed = err < rtol
    if cfg["operator", "save"]:
        save_operator(F, str(out_dir / "operator.bin"))
        details["saved"] = "operator.bin"
    return passed, details


def _op_check_ffstar(cfg, ctx, out_dir: Path):
    F, tol = _operator(cfg, ctx), cfg["ffstar", "tol"]
    est = compare_symbols(ctx["S"], cfg["symbol", "a"], compose(F, adjoint(F)),
                          cfg["ffstar", "samples"], which=Which.FFSTAR)
    recorded = [s for s in est.samples if s.rel_error is not None]
    passed = all(s.rel_error <= tol for s in recorded)
    _write_csv(out_dir / "ffstar_samples.csv",
               ["x", "xi", "extracted_re", "extracted_im", "predicted",
                "relative_error"],
               [(s.x, s.xi, float(np.real(s.extracted)),
                 float(np.imag(s.extracted)), s.predicted,
                 "" if s.rel_error is None else repr(s.rel_error))
                for s in est.samples])
    _write_csv(out_dir / "ffstar_errors.csv",
               ["lambda_base", "relative_error"],
               [(float(np.sqrt(1.0 + s.x ** 2 + s.xi ** 2)),
                 float("nan") if s.rel_error is None else float(s.rel_error))
                for s in est.samples])
    return passed, {
        "tol": tol,
        "window": est.window,
        "recorded": len(recorded),
        "max_rel_error": est.max_rel_error,
        "samples": [{
            "x": s.x, "xi": s.xi, "extracted": _cfloat(s.extracted),
            "predicted": s.predicted, "rel_error": s.rel_error,
        } for s in est.samples],
    }


def _check_svd_cap(points: int, factor: int):
    """ValueError, before any build, when the SVD of a factor * M operator
    would pass `singular_values`' cap; the message names the largest M."""
    size = factor * points
    if size > SVD_CAP:
        raise ValueError(f"dense decomposition capped at {SVD_CAP}: "
                         f"grids.M = {points} needs a {size} x {size} SVD; "
                         f"the largest grids.M is {SVD_CAP // factor}")


def _op_spectrum(cfg, ctx, out_dir: Path):
    _check_svd_cap(ctx["x"].points, 1)
    F = _operator(cfg, ctx)
    s, record = singular_values(F, cfg["spectrum", "count"] or None)
    _write_csv(out_dir / "spectrum.csv", ["index", "singular_value"],
               enumerate(s.tolist()))
    return True, {"count": len(s), "top": float(s[0]), "svd": record}


def _op_oscint(cfg, ctx, out_dir: Path):
    kind = cfg["oscint", "cutoff"]
    try:
        res = regularized_fio_apply(
            cfg["oscint", "a"], special_phase(ctx["S"]), cfg["oscint", "f"],
            cfg["oscint", "x"], schedule=cfg["oscint", "schedule"],
            cutoff=CutoffSpec(CutoffKind[kind]))
        passed = True
    except ConvergenceError as exc:
        res, passed = exc.result, False
    details = {
        "value": _cfloat(res.value),
        "cutoff": kind,
        "cutoff_gap": res.cutoff_gap,
        "sigma_residuals": [[float(s), float(r)]
                            for s, r in res.sigma_residuals],
        "truncation_radius": res.truncation_radius,
        "quadrature": res.quadrature,
    }
    _write_csv(out_dir / "oscint_residuals.csv", ["sigma", "residual_abs"],
               details["sigma_residuals"])
    expected = cfg["oscint", "expected_re"]
    if expected is not None and passed:
        err = abs(res.value - expected) / max(abs(expected), 1e-300)
        details.update(expected_re=expected, expected_rel_error=float(err))
        passed = err < cfg["oscint", "rtol"]
    return passed, details


def _op_verify_phase(cfg, ctx, out_dir: Path):
    S, phi = ctx["S"], special_phase(ctx["S"])
    reports = {"G2": verify_G2(S), "G3": verify_G3(S),
               "H2": verify_H2(phi), "H3": verify_H3(phi)}
    all_pass = all(r.passed for r in reports.values())
    return all_pass == cfg["verify", "expect_pass"], {
        name: r.to_dict() for name, r in reports.items()}


def _op_verify_symbol(cfg, ctx, out_dir: Path):
    weight_tag, rho = cfg["symbol", "weight"], cfg["symbol", "rho"]
    a_field = SymbolField.from_expr(cfg["symbol", "a"], ctx["S"].variables,
                                    rho=rho,
                                    weight=parse_weight(weight_tag, 2))
    grid = GridSpec(2, cfg["symbol", "check_radius"],
                    cfg["symbol", "check_points"])
    estimates = {"".join(map(str, alpha)): seminorm_estimate(a_field, alpha,
                                                             grid)
                 for alpha in multi_indices(2, cfg["symbol", "max_order"])}
    finite = all(np.isfinite(c) for c in estimates.values())
    return finite, {"seminorms": estimates, "weight": weight_tag,
                    "rho": rho}


def _op_cv_check(cfg, ctx, out_dir: Path):
    sigma = SymbolField.from_expr(
        cfg["cv", "sigma"], coord_symbols("x", 1) + coord_symbols("xi", 1))
    k, gamma = cfg["cv", "k"], cfg["cv", "gamma"]
    q = cv_seminorm(sigma, k, GridSpec(2, cfg["cv", "radius"],
                                       cfg["cv", "points"]))
    report = cv_bound_check(_operator(cfg, ctx), q, gamma=gamma)
    return report.passed, {"k": k, "gamma": gamma, "Q_k": q.Q_k,
                           "operator_norm": report.norm,
                           "bound": report.bound, "ratio": report.ratio}


def _decomposed(cfg, ctx, x: Optional[GridSpec] = None
                ) -> Union[DiscreteOperator, ReflectionBlocks]:
    """What `compactness` decomposes on the grid `x` (the scenario grid by
    default): on the KERNEL route, the operator's reflection blocks when
    `discretize_blocks` builds them, else the operator (`_operator`), which
    `singular_values` decomposes whole.  A ValueError of the block build
    falls back to the full build, which reports it in its own words."""
    grid = ctx["x"] if x is None else x
    if cfg["operator", "route"] == Route.KERNEL.value:
        try:
            blocks = discretize_blocks(ctx["S"], cfg["symbol", "a"], grid,
                                       grid, grid.dual(),
                                       taper=cfg["operator", "taper"])
        except ValueError:
            blocks = None
        if blocks is not None:
            return blocks
    return _operator(cfg, ctx, x)


def _op_compactness(cfg, ctx, out_dir: Path):
    """`compactness_probe` of the operator on the scenario grid (M points)
    and on the grid of 2M points over the same radius.  Each side is built
    as its reflection blocks without the full matrix where
    `discretize_blocks` proves and measures the symmetry (an even M, a
    KERNEL kernel that is real and reflection-symmetric); otherwise, as
    for the SPECTRAL route, the chirp, an odd M or an amplitude the proof
    does not cover, it is the full operator, the scenario grid's built
    once per run, and decomposed whole.  The SVD cap and the tail index
    (0 < M values on the scenario grid) are checked before either
    build."""
    _check_svd_cap(ctx["x"].points, 2)
    tail = check_tail_index(ctx["x"].points,
                            cfg["compactness", "tail_index"] or None)
    coarse = _decomposed(cfg, ctx)
    fine = _decomposed(cfg, ctx, GridSpec(1, ctx["x"].radius,
                                          2 * ctx["x"].points,
                                          dft_aligned=True))
    report = compactness_probe(coarse, fine, tail_index=tail)
    expected = cfg["compactness", "expected"]
    passed = True if expected is None else report.verdict == expected
    for side, s in (("coarse", report.spectrum_coarse),
                    ("fine", report.spectrum_fine)):
        _write_csv(out_dir / f"spectrum_{side}.csv",
                   ["index", "singular_value"], enumerate(s.tolist()))
    return passed, {
        "verdict": report.verdict,
        "expected": expected,
        "tail_index": report.tail_index,
        "tail_coarse": report.tail_coarse,
        "tail_fine": report.tail_fine,
        "plateau_coarse": report.plateau_coarse,
        "plateau_fine": report.plateau_fine,
        "svd_coarse": report.svd_coarse,
        "svd_fine": report.svd_fine,
    }


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

#: the scenario format; see "Scenario files" in README.md
_SCHEMA = {
    ("scenario", "name"): _Entry(str),  # default: the file name's stem
    ("scenario", "operations"): _Entry(str, _REQUIRED, tuple(_DISPATCH),
                                       many=True),
    ("output", "dir"): _Entry(_directory),  # default: out_<name>
    ("phase", "n"): _Entry(int, "1"),  # precedes the formulas it sizes
    ("phase", "generating"): _Entry(_generating, _REQUIRED,
                                    over=("x", "theta")),
    ("phase", "coeffs"): _Entry(_coeffs, _REQUIRED),
    ("symbol", "a"): _Entry(_formula, "1", over=("x", "theta")),
    ("symbol", "weight"): _Entry(_weight, "const:1"),
    ("symbol", "rho"): _Entry(_float, "0"),
    ("symbol", "check_radius"): _Entry(_float, "8"),
    ("symbol", "check_points"): _Entry(int, "17"),
    ("symbol", "max_order"): _Entry(int, "2"),
    ("grids", "M"): _Entry(int, "256"),
    ("grids", "R"): _Entry(_float, "8"),
    ("operator", "route"): _Entry(str.upper, "KERNEL",
                                  tuple(Route.__members__)),
    ("operator", "taper"): _Entry(_bool, "true"),
    ("operator", "apply_check"): _Entry(_bool, "false"),
    ("operator", "apply_rtol"): _Entry(_float, "1e-6"),
    ("operator", "save"): _Entry(_bool, "false"),
    ("ffstar", "samples"): _Entry(_samples, "0 0"),
    ("ffstar", "tol"): _Entry(_float, "0.05"),
    ("spectrum", "count"): _Entry(int, "0"),
    ("oscint", "a"): _Entry(_formula, "1", over=("x", "y", "theta")),
    ("oscint", "f"): _Entry(_formula, _REQUIRED, over=("y",)),
    ("oscint", "x"): _Entry(_float, "0"),
    ("oscint", "schedule"): _Entry(_float, "4, 8, 16, 32, 64", many=True),
    ("oscint", "cutoff"): _Entry(str.upper, "GAUSSIAN",
                                 tuple(CutoffKind.__members__)),
    ("oscint", "expected_re"): _Entry(_float),
    ("oscint", "rtol"): _Entry(_float, "1e-3"),
    ("verify", "expect_pass"): _Entry(_bool, "true"),
    ("cv", "sigma"): _Entry(_formula, _REQUIRED, over=("x", "xi")),
    ("cv", "k"): _Entry(int, "3"),
    ("cv", "gamma"): _Entry(_float, "1"),
    ("cv", "radius"): _Entry(_float, "8"),
    ("cv", "points"): _Entry(int, "33"),
    ("compactness", "tail_index"): _Entry(int, "0"),
    ("compactness", "expected"): _Entry(str, None, (
        "COMPACT-CONSISTENT", "NONCOMPACT-CONSISTENT", "INCONCLUSIVE")),
}


class ScenarioConfig(dict):
    """Typed values by (section, key); an omitted required one raises when
    read.  `record` holds them by section, each non-JSON value as its text."""

    def __missing__(self, entry):
        raise ScenarioError(f"missing [{entry[0]}] {entry[1]}")


def _convert(section: str, key: str, text, cfg: ScenarioConfig):
    """`text` (None: no value) as the typed value of the `_SCHEMA` entry."""
    entry = _SCHEMA[section, key]
    if text is None:
        return None
    args = [[v for prefix in entry.over for v in coord_symbols(
        prefix, cfg["phase", "n"])]] if entry.over else []
    try:
        values = [entry.convert(item, *args) for item in (
            text.replace(",", " ").split() if entry.many else [text])]
        for value in values:
            if entry.choices and value not in entry.choices:
                raise ValueError(f"{value!r} is not one of "
                                 f"{', '.join(entry.choices)}")
        if not values:
            raise ValueError("names nothing")
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: {exc}") from exc
    return values if entry.many else values[0]


def load_scenario(path, overrides: Sequence[str] = ()):
    """Parse, override and convert every `_SCHEMA` entry; returns
    (ScenarioConfig, scenario hash).  An unknown entry is a ScenarioError."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") \
            from exc
    # no section header can name the empty default section, so [DEFAULT]
    # is an ordinary section here, and unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    given = {(section, key): value for section in parser.sections()
             for key, value in parser[section].items()}
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ScenarioError(
                f"override must look like section.key=value: {item}")
        given[section, key] = value.strip()
    sections = {section for section, _ in _SCHEMA}
    unknown = [f"{s}.{k}" for s, k in given if (s, k) not in _SCHEMA] + [
        f"[{s}]" for s in parser.sections() if s not in sections]
    if unknown:
        nearest = max((f"{s}.{k}" for s, k in _SCHEMA), key=lambda known:
                      difflib.SequenceMatcher(None, unknown[0].lower(),
                                              known.lower()).ratio())
        raise ScenarioError(f"unknown config entry {unknown[0]}; nearest "
                            f"known: {nearest}")
    given.setdefault(("scenario", "name"), path.stem)
    given.setdefault(("output", "dir"), f"out_{given['scenario', 'name']}")
    cfg = ScenarioConfig()
    cfg.record = {section: {} for section, _ in _SCHEMA}
    for (section, key), entry in _SCHEMA.items():
        raw = given.pop((section, key), entry.default)
        if raw is _REQUIRED:  # omitted: reading it raises
            raw = value = None
        else:
            value = cfg[section, key] = _convert(section, key, raw, cfg)
        cfg.record[section][key] = value if isinstance(
            value, (bool, int, float, str, list)) else raw
    digest = hashlib.sha256((text + "".join(sorted(overrides))).encode())
    return cfg, digest.hexdigest()


def run_scenario(path, out_dir: Optional[str] = None,
                 overrides: Sequence[str] = ()) -> RunManifest:
    """Execute a scenario file; returns the manifest (also written to disk)."""
    t0 = time.perf_counter()
    cfg, digest = load_scenario(path, overrides)
    dest = Path(cfg["output", "dir"] if out_dir is None
                else _convert("output", "dir", out_dir, cfg))
    try:
        dest.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {dest}: {exc}") \
            from exc

    with _config_values("[grids]"):
        xg = GridSpec(1, cfg["grids", "R"], cfg["grids", "M"],
                      dft_aligned=True)
    S = cfg["phase", "generating"]
    ctx = {"S": cfg["phase", "coeffs"] if S == "quadratic" else S, "x": xg}
    manifest = RunManifest(
        scenario_hash=digest,
        lambda_convention=DEFAULT_CONVENTION.value,
        module_versions={"fiolab": __version__, **{
            m.__name__: m.__version__ for m in (np, sympy)}},
        blas=_blas_facts(),
        grids={"x": xg.descriptor(), "y": xg.descriptor(),
               "theta": xg.dual().descriptor()},
        config=cfg.record,
        out_dir=str(dest),
    )
    for op in cfg["scenario", "operations"]:
        try:
            with _config_values(f"[{op}]"):
                passed, details = _DISPATCH[op](cfg, ctx, dest)
        except (IterationError, NewtonError) as exc:
            # non-convergence is a failed check (exit 1), not an internal
            # error; the message goes into the operation's JSON
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        (dest / f"{op}.json").write_text(json.dumps(
            {"passed": passed, **details}, sort_keys=True, indent=2) + "\n")
        manifest.outcomes.append({"operation": op, "passed": passed,
                                  **details})
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.peak_rss_mb = _peak_rss_mb()
    manifest.children_peak_rss_mb = _peak_rss_mb(children=True)
    (dest / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest
