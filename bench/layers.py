"""The layers of fiolab as the traced run sees them.

`install` wraps each call into a layer's public functions at the name the
caller looks up (for example `fiolab.runner.discretize_fio` and
`fiolab.pdo.singular_values`), plus the sympy boundary fiolab uses:
`sympy.diff`, `sympy.lambdify` and the callables lambdify returns.
`layer_metrics` turns the recorded spans into the per-layer metrics.
Nothing under src/ is changed.
"""
from __future__ import annotations

import inspect
import math
from pathlib import Path

LAYERS = ("expressions", "oscillatory", "operators", "pdo", "phases",
          "runner")

#: bundled scenarios, in `bundled_scenarios()` order
SCENARIOS = ("chirp_phase", "compact_decay", "ffstar_gaussian",
             "fourier_inversion", "multiplier_norm", "noncompact_identity",
             "oscint_gaussian")

#: (k, R) of the integration-by-parts calls of acceptance criterion 3
IBP_CALLS = tuple((k, R) for k in (0, 2, 4) for R in (12.0, 24.0))


def _bind(fn, args, kwargs) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _is_ibp_term(args, kwargs) -> bool:
    # the k-fold transposed term is the one lambdified against the chi atoms
    modules = kwargs.get("modules", args[2] if len(args) > 2 else None)
    return isinstance(modules, list) and any(
        isinstance(m, dict) and "chi0" in m for m in modules)


def install(tracer, useful_points=None) -> None:
    """Wrap fiolab's layer boundaries.

    useful_points(Y, T) -> int, when given, counts the points of one
    evaluation of the k-fold IBP term that have omega_partition < 1.
    """
    import numpy as np
    import sympy

    from fiolab import cli, oscillatory, pdo, runner

    def points(*args, **kwargs):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        return {"points": math.prod(shape)}

    def lambdified(rec, fn, args, kwargs):
        if rec is not None:
            rec["attrs"]["code_chars"] = len(inspect.getsource(fn))
        hook = None
        if useful_points is not None and _is_ibp_term(args, kwargs):
            def hook(rec, out, call_args, call_kwargs):
                if rec is not None:
                    rec["attrs"]["useful"] = int(useful_points(*call_args))
                return out
        return tracer.wrap(fn, "lambdified", "expressions", attrs=points,
                           result=hook)

    tracer.patch(sympy, "diff", "sympy.diff", "expressions")
    tracer.patch(sympy, "lambdify", "sympy.lambdify", "expressions",
                 result=lambdified)

    def ibp_call(*args, **kwargs):
        call = _bind(oscillatory.fio_apply_ibp, args, kwargs)
        return {"k": int(call["k"]), "R": float(call["R"])}

    def route(*args, **kwargs):
        return {"route": _bind(runner.discretize_fio, args, kwargs)[
            "route"].value}

    def flops(A, B):
        (m, k), n = A.matrix.shape, B.matrix.shape[1]
        return {"flops": 8 * m * k * n}

    tracer.patch(oscillatory, "fio_apply_ibp", "fio_apply_ibp",
                 "oscillatory", attrs=ibp_call)
    tracer.patch(oscillatory, "choose_eps0", "choose_eps0", "oscillatory")
    tracer.patch(oscillatory.CutoffSpec, "__call__", "cutoff", "oscillatory",
                 attrs=lambda self, pts: {
                     "points": math.prod(np.shape(pts)[:-1])})
    for owner in (oscillatory, runner):
        tracer.patch(owner, "regularized_fio_apply", "regularized_fio_apply",
                     "oscillatory")

    tracer.patch(runner, "discretize_fio", "discretize_fio", "operators",
                 attrs=route)
    tracer.patch(runner, "compose", "compose", "operators", attrs=flops)
    tracer.patch(runner, "apply", "apply", "operators")
    for owner in (runner, pdo):
        tracer.patch(owner, "operator_norm", "operator_norm", "operators")
        tracer.patch(owner, "singular_values", "singular_values",
                     "operators")

    for name in ("compare_symbols", "compactness_probe", "cv_seminorm",
                 "cv_bound_check"):
        tracer.patch(runner, name, name, "pdo")
    for name in ("verify_G2", "verify_G3", "verify_H2", "verify_H3"):
        tracer.patch(runner, name, name, "phases")

    tracer.patch(cli, "run_scenario", "run_scenario", "runner",
                 attrs=lambda path, *a, **kw: {"scenario": Path(path).stem})


def per_layer_names() -> list:
    """Every per-layer metric name, in report order (see README.md)."""
    return list(layer_metrics([], 0, 0.0))


def layer_metrics(spans: list, artifact_bytes: int,
                  overhead_s: float) -> dict:
    """name -> (value, unit) from the spans of one traced pass."""
    def of(name, **match):
        return [r for r in spans if r["name"] == name and all(
            r["attrs"].get(k) == v for k, v in match.items())]

    def self_s(name, **match):
        return sum(r["self_s"] for r in of(name, **match))

    def total(name, key, **match):
        return sum(r["attrs"].get(key, 0) for r in of(name, **match))

    out = {}
    out["expressions.diff_s"] = (self_s("sympy.diff"), "s")
    out["expressions.diff_calls"] = (len(of("sympy.diff")), "count")
    out["expressions.lambdify_s"] = (self_s("sympy.lambdify"), "s")
    out["expressions.lambdify_calls"] = (len(of("sympy.lambdify")), "count")
    out["expressions.code_chars"] = (total("sympy.lambdify", "code_chars"),
                                     "chars")
    eval_s, points = self_s("lambdified"), total("lambdified", "points")
    out["expressions.eval_s"] = (eval_s, "s")
    out["expressions.eval_points"] = (points, "count")
    out["expressions.eval_ns_per_point"] = (
        1e9 * eval_s / points if points else 0.0, "ns/point")

    for k, R in IBP_CALLS:
        calls = of("fio_apply_ibp", k=k, R=R)
        out[f"oscillatory.fio_apply_ibp.k{k}.R{R:g}_s"] = (
            sum(r["dur_s"] for r in calls), "s")
    out["oscillatory.fio_apply_ibp.self_s"] = (self_s("fio_apply_ibp"), "s")
    out["oscillatory.choose_eps0_s"] = (self_s("choose_eps0"), "s")
    terms = [r for r in of("lambdified") if "useful" in r["attrs"]]
    evaluated = sum(r["attrs"]["points"] for r in terms)
    out["oscillatory.ibp_useful_ratio"] = (
        sum(r["attrs"]["useful"] for r in terms) / evaluated
        if evaluated else 0.0, "ratio")
    out["oscillatory.regularized_fio_apply.self_s"] = (
        self_s("regularized_fio_apply"), "s")
    out["oscillatory.cutoff_s"] = (self_s("cutoff"), "s")
    out["oscillatory.cutoff_points"] = (total("cutoff", "points"), "count")

    for route in ("KERNEL", "SPECTRAL"):
        out[f"operators.discretize_fio.{route}_s"] = (
            self_s("discretize_fio", route=route), "s")
    out["operators.discretize_fio.calls"] = (len(of("discretize_fio")),
                                             "count")
    out["operators.compose_s"] = (self_s("compose"), "s")
    out["operators.compose_flops"] = (total("compose", "flops"), "flop")
    out["operators.operator_norm_s"] = (self_s("operator_norm"), "s")
    out["operators.singular_values_s"] = (self_s("singular_values"), "s")
    out["operators.singular_values_calls"] = (len(of("singular_values")),
                                              "count")
    out["operators.apply_s"] = (self_s("apply"), "s")

    for name in ("compare_symbols", "compactness_probe", "cv_seminorm",
                 "cv_bound_check"):
        out[f"pdo.{name}_s"] = (self_s(name), "s")
    for name in ("verify_G2", "verify_G3", "verify_H2", "verify_H3"):
        out[f"phases.{name}_s"] = (self_s(name), "s")

    for name in SCENARIOS:
        out[f"runner.run_scenario.{name}_s"] = (
            sum(r["dur_s"] for r in of("run_scenario", scenario=name)), "s")
    out["runner.self_s"] = (self_s("run_scenario"), "s")
    out["runner.artifact_bytes"] = (artifact_bytes, "bytes")

    for layer in LAYERS:
        out[f"{layer}.errors"] = (sum(
            1 for r in spans if r["layer"] == layer and r["error"]), "count")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
