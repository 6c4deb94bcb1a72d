"""One benchmark pass in a fresh interpreter.

bench/run.py starts this script once per pass, and once per scenario in a
`scenarios` pass, because every CLI or notebook user pays sympy's caches
and `lambdify` once per process.  It times the import of fiolab (setup_s),
then the pass from after import until its last result is checked (wall_s),
runs the checks, and writes one JSON result file:

    python3 bench/worker.py ibp --scale 1 --result r.json [--trace]
    python3 bench/worker.py regularized --scale 1 --result r.json [--trace]
    python3 bench/worker.py scenario --scenario NAME --out-dir DIR \
        --result r.json
    python3 bench/worker.py reference --out-dir DIR --result r.json
    python3 bench/worker.py facts --result r.json
    python3 bench/worker.py setup|setup-cli --result r.json

`reference` runs every bundled scenario through the CLI in one interpreter,
to give the artifacts a `scenarios` pass must reproduce byte for byte.
`facts` records the library versions; `setup` and `setup-cli` only import
fiolab or fiolab.cli, for more setup_s samples.  fiolab must be
importable (the benchmark sets PYTHONPATH to src/).
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys
import time
from pathlib import Path

F_GAUSS = "exp(-y**2/2)"


def check(name, passed, error=None, tol=None, detail=""):
    return {"name": name, "passed": bool(passed), "error": error, "tol": tol,
            "detail": detail}


def failed(name, exc) -> dict:
    return check(name, False, detail=f"{type(exc).__name__}: {exc}")


def _phase():
    from fiolab.phases import GeneratingFunction, special_phase
    return special_phase(GeneratingFunction.from_expr("x*theta", 1))


def ibp_pass(amp: str):
    """Acceptance criterion 3 with amplitude a = s; exact value s f(0) = s."""
    from fiolab import oscillatory
    from layers import IBP_CALLS
    s = float(amp)
    phi = _phase()
    got, errors = {}, {}
    for k, R in IBP_CALLS:
        try:
            got[k, R] = oscillatory.fio_apply_ibp(amp, phi, F_GAUSS, 0.0,
                                                  k=k, R=R)
        except Exception as exc:  # an exception is a failed check
            errors[k, R] = exc
    checks = []
    for (k, R) in IBP_CALLS:
        name = f"ibp.exact.k{k}.R{R:g}"
        if (k, R) in errors:
            checks.append(failed(name, errors[k, R]))
            continue
        err = abs(got[k, R].value - s) / s
        checks.append(check(name, err < 1e-6, err, 1e-6))
    if errors:
        first = next(iter(errors.values()))
        checks.append(failed("ibp.agreement", first))
        checks += [failed(f"ibp.slope.k{k}", first) for k in (2, 4)]
    else:
        ref = got[0, 24.0].value
        err = max(abs(r.value - ref) / abs(ref) for r in got.values())
        checks.append(check("ibp.agreement", err < 1e-6, err, 1e-6))
        for k in (2, 4):
            slope = math.log2(got[k, 12.0].tail_mass / got[k, 24.0].tail_mass)
            err, tol = abs(slope - (k - 1)), 0.2 * (k - 1)
            checks.append(check(f"ibp.slope.k{k}", err <= tol, err, tol,
                                f"slope {slope!r}"))
    values = {f"k{k}.R{R:g}": [repr(r.value), repr(r.tail_mass)]
              for (k, R), r in got.items()}
    return checks, values


def regularized_pass(amp: str):
    """The call of test_identity_off_origin with a = s; exact s e^{-1/2}."""
    from fiolab import oscillatory
    s = float(amp)
    try:
        res = oscillatory.regularized_fio_apply(
            amp, _phase(), F_GAUSS, 1.0, schedule=(16, 32, 64, 128, 256),
            cutoff=oscillatory.CutoffSpec(oscillatory.CutoffKind.GAUSSIAN),
            compute_gap=True)
    except Exception as exc:  # an exception is a failed check
        return [failed(n, exc) for n in ("regularized.value",
                                         "regularized.cutoff_gap",
                                         "regularized.monotone")], {}
    exact = s * math.exp(-0.5)
    err = abs(res.value - exact) / exact
    # the problem is linear in a: the gap of a = s is s times that of a = 1
    gap = res.cutoff_gap / s
    residuals = [r for _, r in res.sigma_residuals]
    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))
    checks = [check("regularized.value", err < 1e-5, err, 1e-5),
              check("regularized.cutoff_gap", gap < 1e-3, gap, 1e-3),
              check("regularized.monotone", monotone,
                    detail=f"residuals {residuals!r}")]
    values = {"value": repr(res.value), "cutoff_gap": repr(res.cutoff_gap),
              "residuals": [repr(r) for r in residuals]}
    return checks, values


#: (operation, error key, tolerance key) of the numeric checks whose error
#: and tolerance a scenario records in its result JSON; a tolerance key of
#: None means the error is a ratio with limit 1
_ARTIFACT_ERRORS = (("build-operator", "apply_rel_error", "apply_rtol"),
                    ("check-ffstar", "max_rel_error", "tol"),
                    ("cv-check", "ratio", None))


def scenario_pass(name: str, out_dir: Path):
    """`fiolab run NAME` as the CLI runs it, then its recorded results."""
    from fiolab import cli
    try:
        rc = cli.main(["run", name, "--out-dir", str(out_dir)])
    except Exception as exc:  # an exception is a failed check
        return [failed(f"{name}.exit", exc)], {}
    checks = [check(f"{name}.exit", rc == 0, detail=f"exit code {rc}")]
    manifest = out_dir / "manifest.json"
    outcomes = json.loads(manifest.read_text())["outcomes"] \
        if manifest.exists() else []
    checks.append(check(f"{name}.outcomes",
                        outcomes and all(o["passed"] for o in outcomes),
                        detail=json.dumps(outcomes)[:300]))
    for op, err_key, tol_key in _ARTIFACT_ERRORS:
        path = out_dir / f"{op}.json"
        if not path.exists():
            continue
        result = json.loads(path.read_text())
        if err_key not in result:
            continue
        err, tol = result[err_key], result[tol_key] if tol_key else 1.0
        checks.append(check(f"{name}.{op}.{err_key}", err <= tol, err, tol))
    return checks, {}


def reference_pass(out_dir: Path):
    from fiolab import cli
    bundled = list(cli.bundled_scenarios())
    codes = {name: cli.main(["run", name, "--out-dir", str(out_dir / name)])
             for name in bundled}
    return [], {"bundled": bundled, "exit_codes": codes}


def facts() -> dict:
    """Library versions and the BLAS library's own thread setting."""
    import ctypes
    import os

    import numpy as np
    import scipy
    import sympy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for line in Path("/proc/self/maps").read_text().splitlines():
        if "openblas" in line:
            lib = ctypes.CDLL(line.split()[-1])
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getattr(lib, sym).restype = ctypes.c_int
                    threads = getattr(lib, sym)()
                    break
            break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("ibp", "regularized", "scenario",
                                         "reference", "facts", "setup",
                                         "setup-cli"))
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--scale", default="1")
    parser.add_argument("--scenario")
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    module = "fiolab.cli" if args.kind in ("scenario", "reference",
                                           "setup-cli") else "fiolab"
    t0 = time.perf_counter()
    importlib.import_module(module)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from layers import install
        from spans import Tracer
        tracer = Tracer()
        install(tracer, useful_points=_useful_points()
                if args.kind == "ibp" else None)

    t1 = time.perf_counter()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    if args.kind == "ibp":
        checks, values = ibp_pass(args.scale)
    elif args.kind == "regularized":
        checks, values = regularized_pass(args.scale)
    elif args.kind == "scenario":
        checks, values = scenario_pass(args.scenario, args.out_dir)
    elif args.kind == "reference":
        checks, values = reference_pass(args.out_dir)
    elif args.kind == "facts":
        checks, values = [], facts()
    else:
        checks, values = [], {}
    wall_s = time.perf_counter() - t1
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,
        # diagnostics: where wall time went, and page faults
        "user_s": cpu1.ru_utime - cpu0.ru_utime,
        "sys_s": cpu1.ru_stime - cpu0.ru_stime,
        "minor_faults": cpu1.ru_minflt - cpu0.ru_minflt,
        "checks": checks, "values": values,
        "spans": tracer.finished() if tracer else None,
    }
    args.result.write_text(json.dumps(result))
    return 0


def _useful_points():
    """Counter for oscillatory.ibp_useful_ratio: points of one evaluation of
    the k-fold term where omega_partition < 1, i.e. where the term is used.
    The tracer runs it paused, so its cost is outside every span."""
    import numpy as np

    from fiolab import oscillatory
    state = {}

    def count(Y, T) -> int:
        if not state:
            state["phi"] = _phase()
            state["eps0"] = oscillatory.choose_eps0(state["phi"], 0.0)
        Y, T = np.broadcast_arrays(Y, T)
        pts = np.stack([np.zeros(Y.size), Y.ravel(), T.ravel()], axis=-1)
        omega = oscillatory.omega_partition(state["phi"], state["eps0"], pts)
        return int(np.count_nonzero(omega < 1.0))
    return count


if __name__ == "__main__":
    raise SystemExit(main())
