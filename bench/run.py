"""fiolab benchmark: time, check and trace the three workloads.

    python3 bench/run.py --workload ibp --seed 0 --seconds 10 --trace 0

Workloads (bench/README.md says why each was chosen):
  ibp          the six fio_apply_ibp calls of acceptance criterion 3
  regularized  regularized_fio_apply at x = 1, sigma up to 256, with gap
  scenarios    the seven bundled scenarios, each through `fiolab run` in
               its own interpreter
  all          the three above, one after another

Every pass runs in a fresh interpreter started from bench/worker.py, one at
a time.  A run repeats passes until --seconds have gone by; a pass is never
cut, so an ibp run always measures one whole pass.  The seed picks only the
constant amplitude a = s of ibp and regularized (seed 0 gives s = 1).

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
then makes one traced pass and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed, 1 when one failed, 2 when fiolab's sources are not next
to the benchmark and 3 when a pass ran too long.  Everything the run writes
goes under bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import SCENARIOS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("ibp", "regularized", "scenarios")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("err_over_tol", "ratio"))
#: recorded per pass next to the metrics, to explain wall_s
DIAGNOSTICS = ("user_s", "sys_s", "minor_faults")
#: setup_s is the median of at least this many cold imports per run
SETUP_SAMPLES = 5
#: passes per run at the least; a regularized pass (about 12 s) is short
#: enough to take the median of two within the run budget
MIN_PASSES = {"ibp": 1, "regularized": 2, "scenarios": 1}
#: no interpreter may run longer, so that a run ends within 180 s
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def scale_for(seed: int) -> str:
    """The amplitude s in [0.5, 2], as the formula string given to fiolab."""
    s = 1.0 if seed == 0 else random.Random(seed).uniform(0.5, 2.0)
    return f"{s:.6g}"


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "error": None, "tol": None,
            "detail": "" if passed else detail}


def _artifacts(directory: Path) -> dict:
    """file name -> (size, sha256) of every artifact but manifest.json."""
    if not directory.is_dir():
        return {}
    return {p.name: (p.stat().st_size,
                     hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "manifest.json"}


class Runner:
    """Starts worker interpreters in a scratch directory under bench/out/."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))

    def worker(self, kind: str, *args: str, trace: bool = False) -> dict:
        """The worker's result; a crash becomes one failed check."""
        self.count += 1
        result = self.tmp / f"result-{self.count}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), kind, *args,
               "--result", str(result)] + (["--trace"] if trace else [])
        try:
            proc = subprocess.run(cmd, cwd=self.tmp, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(
                f"{kind} worker ran past {WORKER_TIMEOUT_S:g} s") from exc
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"crashed": True, "checks": [_check(
                f"{kind}.worker", False,
                f"exit {proc.returncode}: {tail[0]}")]}
        return json.loads(result.read_text())


def machine_facts(runner: Runner, seed: int) -> dict:
    res = runner.worker("facts")
    if res.get("crashed"):
        raise BenchError(f"cannot import fiolab: {res['checks'][0]['detail']}")
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), None)
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except FileNotFoundError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".cfg") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, **res["values"], "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


class Workload:
    """The passes of one workload in one run, and every check they made."""

    def __init__(self, name: str, scale: str, runner: Runner):
        self.name = name
        self.scale = scale
        self.runner = runner
        self.checks: list = []
        self.reference: dict = {}
        self.passes = 0

    def prepare(self) -> None:
        """scenarios: the reference artifacts, from one interpreter."""
        if self.name != "scenarios":
            return
        ref = self.runner.tmp / "reference"
        res = self.runner.worker("reference", "--out-dir", str(ref))
        self.checks += res["checks"]
        if res.get("crashed"):
            return
        bundled = res["values"]["bundled"]
        self.checks.append(_check("scenarios.bundled", bundled ==
                                  list(SCENARIOS), f"bundled: {bundled}"))
        for name, code in res["values"]["exit_codes"].items():
            self.checks.append(_check(f"{name}.reference_exit", code == 0,
                                      f"exit code {code}"))
        self.reference = {name: _artifacts(ref / name) for name in bundled}

    def one_pass(self, trace: bool = False) -> dict | None:
        """Samples of one pass, or None if a worker crashed."""
        self.passes += 1
        if self.name != "scenarios":
            res = self.runner.worker(self.name, "--scale", self.scale,
                                     trace=trace)
            self.checks += res["checks"]
            if res.get("crashed"):
                return None
            return {"wall_s": res["wall_s"], "setup": [res["setup_s"]],
                    "peak_rss_mb": res["peak_rss_mb"],
                    **{k: res[k] for k in DIAGNOSTICS},
                    "err_over_tol": _err_over_tol(res["checks"]),
                    "values": res["values"],
                    "spans": _tagged(res["spans"], self.name),
                    "artifact_bytes": 0}
        out = {"wall_s": 0.0, "setup": [], "peak_rss_mb": 0.0, "values": {},
               "spans": [], "artifact_bytes": 0,
               **{k: 0 for k in DIAGNOSTICS}}
        checks, crashed = [], False
        for name in SCENARIOS:
            dest = self.runner.tmp / f"pass-{self.passes}" / name
            res = self.runner.worker("scenario", "--scenario", name,
                                     "--out-dir", str(dest), trace=trace)
            checks += res["checks"]
            if res.get("crashed"):
                crashed = True
                continue
            for key in ("wall_s",) + DIAGNOSTICS:
                out[key] += res[key]
            out["setup"].append(res["setup_s"])
            out["peak_rss_mb"] = max(out["peak_rss_mb"], res["peak_rss_mb"])
            out["spans"] += _tagged(res["spans"], name)
            got = out["values"][name] = _artifacts(dest)
            out["artifact_bytes"] += sum(size for size, _ in got.values())
            want = self.reference.get(name, {})
            differ = sorted(f for f in set(got) | set(want)
                            if got.get(f) != want.get(f))
            checks.append(_check(f"{name}.artifacts", want and not differ,
                                 f"differ from the reference: {differ}"))
        self.checks += checks
        out["err_over_tol"] = _err_over_tol(checks)
        return None if crashed else out

    def setup_sample(self) -> float | None:
        """One cold import of the module the workload's passes import."""
        kind = "setup-cli" if self.name == "scenarios" else "setup"
        res = self.runner.worker(kind)
        self.checks += res["checks"]
        return None if res.get("crashed") else res["setup_s"]


def _tagged(spans: list | None, process: str) -> list:
    """Spans of one worker interpreter share its trace id."""
    return [{"trace": process, **rec} for rec in spans or []]


def _err_over_tol(checks: list) -> float | None:
    ratios = [c["error"] / c["tol"] for c in checks
              if c["error"] is not None and c["tol"]]
    return max(ratios) if ratios else None


def summary(samples: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (None below eleven samples), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": int(100 * (n - 10) / n),
                "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 runner: Runner) -> dict:
    work = Workload(name, scale_for(seed), runner)
    work.prepare()
    passes = []
    start = time.perf_counter()
    while (work.passes < MIN_PASSES[name]
           or time.perf_counter() - start < seconds):
        passes.append(work.one_pass())
    done = [p for p in passes if p is not None]
    setup = [x for p in done for x in p["setup"]]
    while not trace and len(setup) < SETUP_SAMPLES:
        sample = work.setup_sample()
        if sample is None:
            break
        setup.append(sample)

    samples = {"wall_s": [p["wall_s"] for p in done], "setup_s": setup,
               "peak_rss_mb": [p["peak_rss_mb"] for p in done],
               "err_over_tol": [p["err_over_tol"] for p in done
                                if p["err_over_tol"] is not None],
               **{k: [p[k] for p in done] for k in DIAGNOSTICS}}
    record = {"workload": name, "scale": work.scale, "passes": work.passes,
              "samples": samples,
              "end_to_end": {m: {"unit": unit, **summary(samples[m])}
                             for m, unit in END_TO_END if samples[m]}}
    if trace:
        traced = work.one_pass(trace=True)
        if traced is not None and done:
            work.checks.append(_check(
                "trace.identical", traced["values"] == done[-1]["values"],
                "traced values or artifacts differ from the untraced pass"))
            overhead = traced["wall_s"] - statistics.median(
                samples["wall_s"])
            record["per_layer"] = {
                m: {"value": v, "unit": unit} for m, (v, unit) in
                layer_metrics(traced["spans"], traced["artifact_bytes"],
                              overhead).items()}
            record["spans"] = traced["spans"]
    record["checks"] = work.checks
    record["attempted"] = len(work.checks)
    record["failed"] = sum(1 for c in work.checks if not c["passed"])
    return record


def metrics_of(record: dict, trace: bool) -> dict:
    if trace:
        return dict(record.get("per_layer", {}))
    return {m: {"value": s["median"], "unit": s["unit"]}
            for m, s in record["end_to_end"].items()}


def print_report(record: dict) -> None:
    amplitude = "" if record["workload"] == "scenarios" \
        else f"a = {record['scale']}, "
    print(f"\n== {record['workload']}  ({amplitude}{record['passes']} passes)")
    for m, s in record["end_to_end"].items():
        tail = (f"p{s['tail']['percentile']} {s['tail']['value']:.6g}"
                if s["tail"] else "no tail percentile below 11 samples")
        print(f"  {m:<44} median {s['median']:<12.6g} {s['unit']:<6} "
              f"n={s['n']:<3} {tail}")
    attempted, failed = record["attempted"], record["failed"]
    rate = failed / attempted if attempted else 1.0
    print(f"  {'fail_rate':<44} {rate:<19.6g} ratio  "
          f"({failed} of {attempted} checks failed)")
    for m, v in record.get("per_layer", {}).items():
        print(f"  {m:<44} {v['value']:<19.6g} {v['unit']}")
    for c in record["checks"]:
        if not c["passed"]:
            numbers = "" if c["error"] is None else \
                f"error {c['error']:.3g} against tolerance {c['tol']:.3g} "
            print(f"  FAILED {c['name']}: {numbers}{c['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fiolab benchmark", epilog="see bench/README.md")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fiolab" / "__init__.py").is_file():
        print(f"bench: no fiolab sources at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
            runner = Runner(Path(tmp))
            facts = machine_facts(runner, args.seed)
            print("machine " + json.dumps(facts))
            records = [run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), runner)
                       for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    metrics = {}
    for record in records:
        print_report(record)
        stem = f"{record['workload']}-seed{args.seed}-trace{args.trace}"
        spans = record.pop("spans", None)
        if spans is not None:
            (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
        (OUT / f"{stem}.json").write_text(json.dumps(
            {"machine": facts, **record}, indent=1))
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for m, v in metrics_of(record, bool(args.trace)).items():
            metrics[prefix + m] = v
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
