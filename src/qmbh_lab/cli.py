"""qmbh command line: list, run, run-all, report.

`qmbh run <id> --key value ...` is `run-all` of that one experiment with the
overrides `<id>.key = value`. Both write under --out (default ./qmbh-out).
Config files are plain `key = value` lines.
"""

import sys
from pathlib import Path

import click

from .experiments import (EXPERIMENTS, ExperimentReport, parse_config,
                          resolve_parameters, run_all, split_overrides,
                          summary_lines)

_out_option = click.option("--out", "out_root", default="qmbh-out",
                           help="Output root directory.")


def _checked_run_all(out_root, overrides, only):
    """`run_all` once every override has been split and resolved: a bad key or
    value is a usage error (exit status 2) that runs nothing and touches no
    directory, also one for an experiment that `only` leaves out."""
    try:
        for exp_id, given in split_overrides(overrides).items():
            try:
                resolve_parameters(EXPERIMENTS[exp_id], given)
            except ValueError as exc:
                raise click.UsageError(f"{exp_id}: {exc}") from exc
        return run_all(out_root, overrides=overrides, only=only)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main():
    """Workbench of Compton-scale vortex, lattice, Dirac-packet, and
    Kerr-Newman experiments with machine-readable reports."""


@main.command("list")
def list_experiments():
    """List registered experiment ids."""
    width = max(len(i) for i in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        click.echo(f"{exp.id:<{width}}  {exp.description}")


@main.command("run", context_settings={"ignore_unknown_options": True,
                                       "allow_extra_args": True})
@click.argument("experiment_id")
@_out_option
@click.pass_context
def run_one(ctx, experiment_id, out_root):
    """Run one experiment: qmbh run <id> [--key value ...]; exit status 0 if
    it passes, 1 if it fails, 2 on a usage error, as for run-all."""
    tokens = list(ctx.args)
    params = {}
    while tokens:
        key = tokens.pop(0)
        if not key.startswith("--") or not tokens:
            raise click.UsageError(f"expected `--key value` pairs, got {key!r}")
        name = key[2:].replace("-", "_")
        if name in params:
            raise click.UsageError(f"parameter {name!r} given twice")
        params[name] = tokens.pop(0)
    if experiment_id not in EXPERIMENTS:
        raise click.UsageError(f"unknown experiment id {experiment_id!r}")
    overrides = {f"{experiment_id}.{name}": value for name, value in params.items()}
    (report,), failures = _checked_run_all(out_root, overrides, [experiment_id])
    for c in report.claims:
        click.echo(f"  [{'pass' if c.passed else 'FAIL'}] {c.id}: "
                   f"computed={c.computed:.6g} reference={c.reference:.6g}")
    if report.error:
        click.echo(f"  error: {report.error}")
    click.echo(f"{report.id}: {report.status}")
    sys.exit(failures)


@main.command("run-all")
@click.option("--config", "config_path", default=None,
              help="Plain-text `key = value` configuration file.")
@_out_option
def run_all_cmd(config_path, out_root):
    """Run every registered experiment; exit status = number of failures.

    A bad config, including an out-of-domain override for any experiment,
    selected by `only` or not, is a usage error (exit status 2): nothing
    runs and no directory is touched.
    """
    overrides = {}
    only = None
    try:
        pairs = parse_config(config_path) if config_path else {}
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    for key, value in pairs.items():
        if key == "only":
            only = [tok.strip() for tok in value.split(",") if tok.strip()]
        elif "." in key:
            overrides[key] = value
        else:
            raise click.UsageError(f"unrecognized config key {key!r}")
    reports, failures = _checked_run_all(out_root, overrides, only)
    if not reports:
        click.echo("warning: registry filter selected zero experiments", err=True)
    for line in summary_lines(reports):
        click.echo(line)
    sys.exit(failures)


@main.command("report")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
def report_cmd(directory):
    """Summarize the report records under an output directory; an unreadable
    record exits with status 1 and names its file."""
    import json

    reports = []
    for path in sorted(Path(directory).glob("*/report.json")):
        try:
            reports.append(ExperimentReport.from_dict(
                json.loads(path.read_text(encoding="utf-8"))))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise click.ClickException(
                f"{path}: not a readable report record ({type(exc).__name__}: {exc})"
            ) from exc
    if not reports:
        click.echo("no report records found", err=True)
        sys.exit(1)
    for line in summary_lines(reports):
        click.echo(line)
    sys.exit(0)


if __name__ == "__main__":
    main()
