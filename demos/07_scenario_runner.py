"""The deterministic scenario runner.

Every experiment is described by a plain .cfg file; running it produces
JSON/CSV artifacts plus a manifest recording the scenario hash, grid
descriptors and pass/fail outcomes.  Re-running a scenario reproduces every
result file byte for byte (the manifest records wall-clock time and is the
one exception).  The same machinery backs the `fiolab` command-line tool.
"""
import json
import pathlib
import tempfile

from fiolab.cli import bundled_scenarios, main
from fiolab.runner import run_scenario

print("bundled scenarios:")
for name, path in bundled_scenarios().items():
    print(f"  {name}")

with tempfile.TemporaryDirectory() as tmp:
    work = pathlib.Path(tmp)

    # -- library API --------------------------------------------------------
    path = str(bundled_scenarios()["ffstar_gaussian"])
    manifest = run_scenario(path, out_dir=str(work / "api_run"))
    print(f"\nscenario hash: {manifest.scenario_hash[:12]}...")
    for outcome in manifest.outcomes:
        print(f"  {outcome['operation']}: passed = {outcome['passed']}")
    print("artifacts:", sorted(p.name for p in (work / "api_run").iterdir()))

    # -- determinism --------------------------------------------------------
    run_scenario(path, out_dir=str(work / "again"))
    for f in sorted(p.name for p in (work / "api_run").iterdir()):
        if f == "manifest.json":
            continue
        same = ((work / "api_run" / f).read_bytes()
                == (work / "again" / f).read_bytes())
        print(f"byte-identical {f}: {same}")

    # -- command-line interface (exit 0 ok / 1 check failed / 2 config) ----
    rc = main(["run", "oscint_gaussian", "--out-dir", str(work / "cli_run")])
    print(f"\ncli exit code: {rc}")
    data = json.loads((work / "cli_run" / "manifest.json").read_text())
    print(f"recorded lambda convention: {data['lambda_convention']}")

    rc = main(["check-ffstar", "ffstar_gaussian", "--out-dir",
               str(work / "strict"), "--override", "ffstar.tol=1e-9"])
    print(f"with an unreachable tolerance the exit code becomes: {rc}")
