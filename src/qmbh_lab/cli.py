"""qmbh command line: list, run, run-all, report.

`qmbh run <id> --key value ...` is `run-all` of that one experiment with the
overrides `<id>.key = value`. Both write under --out (default ./qmbh-out).
Config files are plain `key = value` lines.

Every command ends in SystemExit with one rule for its status: 0 when every
selected experiment passes, else the number that failed; 2 for a usage error
(a bad argument, config path, config line or override), reported on one line
of stderr before anything is run or written; 1 from `report` for a missing or
unreadable record.
"""

import argparse
import json
import sys
from pathlib import Path

from .experiments import (EXPERIMENTS, ExperimentReport, parse_config,
                          resolve_parameters, run_all, split_overrides,
                          summary_lines)


class UsageError(Exception):
    """A bad argument, config or override: exit status 2, nothing run."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked_run_all(out_root, overrides, only):
    """`run_all` once every override has been split and resolved: a bad key or
    value is a usage error that runs nothing and touches no directory, also
    one for an experiment that `only` leaves out."""
    if not out_root:
        raise UsageError("--out must name a directory")
    try:
        for exp_id, given in split_overrides(overrides).items():
            try:
                resolve_parameters(EXPERIMENTS[exp_id], given)
            except ValueError as exc:
                raise UsageError(f"{exp_id}: {exc}") from exc
        return run_all(out_root, overrides=overrides, only=only)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _list(args):
    width = max(len(i) for i in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.id:<{width}}  {exp.description}")
    return 0


def _run(args):
    tokens = list(args.params)
    params = {}
    while tokens:
        key = tokens.pop(0)
        if not key.startswith("--") or not tokens:
            raise UsageError(f"expected `--key value` pairs, got {key!r}")
        name = key[2:].replace("-", "_")
        if name in params:
            raise UsageError(f"parameter {name!r} given twice")
        params[name] = tokens.pop(0)
    if args.experiment_id not in EXPERIMENTS:
        raise UsageError(f"unknown experiment id {args.experiment_id!r}")
    overrides = {f"{args.experiment_id}.{name}": value for name, value in params.items()}
    (report,), failures = _checked_run_all(args.out, overrides, [args.experiment_id])
    for c in report.claims:
        print(f"  [{'pass' if c.passed else 'FAIL'}] {c.id}: "
              f"computed={c.computed:.6g} reference={c.reference:.6g}")
    if report.error:
        print(f"  error: {report.error}")
    print(f"{report.id}: {report.status}")
    return failures


def _run_all(args):
    overrides = {}
    only = None
    try:
        pairs = parse_config(args.config) if args.config is not None else {}
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    for key, value in pairs.items():
        if key == "only":
            only = [tok.strip() for tok in value.split(",") if tok.strip()]
        elif "." in key:
            overrides[key] = value
        else:
            raise UsageError(f"unrecognized config key {key!r}")
    reports, failures = _checked_run_all(args.out, overrides, only)
    if not reports:
        print("warning: registry filter selected zero experiments", file=sys.stderr)
    for line in summary_lines(reports):
        print(line)
    return failures


def _report(args):
    directory = Path(args.directory)
    if not directory.is_dir():
        raise UsageError(f"{args.directory!r} is not a directory")
    reports = []
    for path in sorted(directory.glob("*/report.json")):
        try:
            reports.append(ExperimentReport.from_dict(
                json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"qmbh report: error: {path}: not a readable report record "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)
            return 1
    if not reports:
        print("no report records found", file=sys.stderr)
        return 1
    for line in summary_lines(reports):
        print(line)
    return 0


def _build_parser():
    parser = _Parser(prog="qmbh", allow_abbrev=False,
                     description="Workbench of Compton-scale vortex, lattice, "
                                 "Dirac-packet, and Kerr-Newman experiments with "
                                 "machine-readable reports.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text):
        sub = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        sub.set_defaults(handler=handler)
        return sub

    command("list", _list, "List registered experiment ids.")
    run = command("run", _run, "Run one experiment: qmbh run <id> [--key value ...]; "
                               "exit status 0 if it passes, 1 if it fails.")
    run.add_argument("experiment_id")
    run_all = command("run-all", _run_all,
                      "Run every registered experiment; exit status = number of "
                      "failures.")
    run_all.add_argument("--config", help="Plain-text `key = value` configuration file.")
    for sub in (run, run_all):
        sub.add_argument("--out", default="qmbh-out", help="Output root directory.")
    command("report", _report, "Summarize the report records under an output "
                               "directory.").add_argument("directory")
    return parser


# built at import, with the `locale` import that argparse's gettext calls
# make, so that the first command pays for neither
_PARSER = _build_parser()


def main(argv=None, standalone_mode=True):
    """Run the command line on `argv` (default: sys.argv[1:]) and end in
    SystemExit with the status of the module docstring's rule. With
    `standalone_mode` false, a usage error is raised as UsageError instead of
    printed."""
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if args.command == "run":
            args.params = extra
        elif extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        status = args.handler(args)
    except UsageError as exc:
        if not standalone_mode:
            raise
        print(f"qmbh: error: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    main()
