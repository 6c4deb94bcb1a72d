"""The benchmark's own tests: span self time, and tracing changes no result."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import layer_metrics, per_layer_names  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Tracer  # noqa: E402


class Clock:
    """A clock that reads the times it is given, in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def by_name(tracer):
    return {rec["name"]: rec for rec in tracer.finished()}


def test_self_time_subtracts_direct_children():
    tracer = Tracer(Clock(0.0, 1.0, 4.0, 5.0, 5.2, 5.7, 6.0, 10.0))
    with tracer.span("outer", "a"):
        with tracer.span("first", "a"):
            pass
        with tracer.span("second", "a"):
            with tracer.span("inner", "a"):
                pass
    spans = by_name(tracer)
    assert spans["outer"]["dur_s"] == 10.0
    assert spans["outer"]["self_s"] == pytest.approx(6.0)
    assert spans["second"]["self_s"] == pytest.approx(0.5)
    assert spans["inner"]["parent"] == spans["second"]["id"]
    assert sum(r["self_s"] for r in spans.values()) == pytest.approx(10.0)


def test_nested_callable_is_counted_once():
    # the chi-transition callable runs inside the k-fold integrand: the
    # integrand's self time must not contain the chi time again
    tracer = Tracer(Clock(0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0, 12.0))
    chi = tracer.wrap(lambda t: t, "lambdified", "expressions")

    def integrand(t):
        chi(t)
        return chi(t)

    integrand = tracer.wrap(integrand, "lambdified", "expressions")
    ibp = tracer.wrap(lambda: integrand(1.0), "fio_apply_ibp", "oscillatory",
                      attrs=lambda: {"k": 4, "R": 12.0})
    ibp()
    spans = tracer.finished()
    call, term = spans[0], spans[1]
    assert call["dur_s"] == 12.0 and term["dur_s"] == 8.0
    assert term["self_s"] == pytest.approx(8.0 - 1.0 - 3.0)
    metrics = layer_metrics(spans, 0, 0.0)
    assert metrics["expressions.eval_s"][0] == pytest.approx(8.0)
    assert metrics["expressions.eval_s"][0] <= call["dur_s"]
    assert metrics["oscillatory.fio_apply_ibp.k4.R12_s"][0] == 12.0
    assert metrics["oscillatory.fio_apply_ibp.self_s"][0] == pytest.approx(4.0)


def test_paused_bookkeeping_leaves_every_open_span():
    tracer = Tracer(Clock(0.0, 1.0, 2.0, 2.5, 6.5, 10.0))

    def count(rec, out, args, kwargs):
        rec["attrs"]["useful"] = 1
        return out

    inner = tracer.wrap(lambda: 0, "lambdified", "expressions",
                        result=count)
    with tracer.span("outer", "a"):
        inner()
    outer, rec = tracer.finished()
    assert rec["attrs"]["useful"] == 1
    assert rec["dur_s"] == 1.0
    # 2.5 .. 6.5 was bookkeeping: out of the outer span's time too
    assert outer["dur_s"] == pytest.approx(6.0)
    assert outer["self_s"] == pytest.approx(5.0)


def test_exception_marks_span_and_propagates():
    tracer = Tracer(Clock(0.0, 1.0))

    def boom():
        raise ValueError("bad")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "compose", "operators")()
    assert layer_metrics(tracer.finished(), 0, 0.0)["operators.errors"][0] == 1


def test_patch_wraps_the_name_callers_look_up():
    class Owner:
        @staticmethod
        def fn(x):
            return x + 1

    tracer = Tracer()
    tracer.patch(Owner, "fn", "fn", "a")
    assert Owner.fn(1) == 2
    assert [r["name"] for r in tracer.finished()] == ["fn"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in END_TO_END]
    units = {name: unit for name, (_, unit) in
             layer_metrics([], 0, 0.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


# ---------------------------------------------------------------------------
# tracing changes no result: each side runs in its own fresh interpreter

_IBP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import fiolab
from fiolab import oscillatory
import worker
if sys.argv[2] == "1":
    from layers import install
    from spans import Tracer
    tracer = Tracer()
    install(tracer, useful_points=worker._useful_points())
res = oscillatory.fio_apply_ibp("1.3", worker._phase(), worker.F_GAUSS, 0.0,
                                k=2, R=12.0)
if sys.argv[2] == "1":
    assert any("useful" in r["attrs"] for r in tracer.finished())
print(repr(res.value), repr(res.tail_mass))
"""


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_traced_ibp_values_are_bit_identical():
    out = [subprocess.run([sys.executable, "-c", _IBP_SCRIPT, str(BENCH),
                           trace], env=_env(), capture_output=True,
                          text=True, check=True).stdout
           for trace in ("0", "1")]
    assert out[0] == out[1] and out[0].strip()


@pytest.mark.parametrize("name", ["chirp_phase", "fourier_inversion"])
def test_traced_scenario_artifacts_are_bit_identical(name, tmp_path):
    files = []
    for trace in ([], ["--trace"]):
        dest = tmp_path / f"out{len(files)}"
        result = tmp_path / f"result{len(files)}.json"
        subprocess.run([sys.executable, str(BENCH / "worker.py"), "scenario",
                        "--scenario", name, "--out-dir", str(dest),
                        "--result", str(result), *trace],
                       env=_env(), cwd=tmp_path, check=True,
                       capture_output=True)
        res = json.loads(result.read_text())
        assert all(c["passed"] for c in res["checks"])
        assert (res["spans"] is not None) == bool(trace)
        files.append({p.name: p.read_bytes() for p in dest.iterdir()
                      if p.name != "manifest.json"})
    assert files[0] == files[1] and files[0]
