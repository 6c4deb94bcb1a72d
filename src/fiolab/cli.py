"""Command-line entry point.

Exit codes: 0 all checks pass, 1 numeric check failure, 2 configuration
error, 3 internal error.
"""
from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .runner import ScenarioError, run_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3

#: subcommands that run a scenario restricted to a single operation
_SINGLE_OPS = {
    "oscint": "oscint",
    "build-operator": "build-operator",
    "check-ffstar": "check-ffstar",
    "spectrum": "spectrum",
}


def bundled_scenarios() -> dict:
    """name -> filesystem path of every packaged scenario config."""
    out = {}
    root = resources.files("fiolab") / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-len(".cfg")]] = str(entry)
    return out


def _resolve_scenario(token: str) -> str:
    if Path(token).exists():
        return token
    bundled = bundled_scenarios()
    if token in bundled:
        return bundled[token]
    raise ScenarioError(f"no such scenario file or bundled name: {token}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiolab",
        description="Numerical laboratory for oscillatory-integral operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_like(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario",
                       help="path to a .cfg file or a bundled scenario name")
        p.add_argument("--out-dir", default=None,
                       help="output directory (defaults to the scenario's)")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        return p

    add_run_like("run", "run every operation of a scenario")
    for name in _SINGLE_OPS:
        add_run_like(name, f"run only the {name} operation of a scenario")
    sub.add_parser("list-scenarios", help="list bundled scenario configs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name, path in bundled_scenarios().items():
            print(f"{name}\t{path}")
        return EXIT_OK
    try:
        overrides = list(args.override)
        if args.command in _SINGLE_OPS:
            overrides.append(
                f"scenario.operations={_SINGLE_OPS[args.command]}")
        path = _resolve_scenario(args.scenario)
        manifest = run_scenario(path, out_dir=args.out_dir,
                                overrides=overrides)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    for outcome in manifest.outcomes:
        status = "pass" if outcome["passed"] else "FAIL"
        print(f"[{status}] {outcome['operation']}")
    print(f"results in {manifest.out_dir} (scenario "
          f"{manifest.scenario_hash[:12]})")
    return EXIT_OK if manifest.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
