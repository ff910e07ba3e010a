"""qmbh command line: list, run, run-all, report.

Output root resolution: --out flag, else the QMBH_OUT environment variable,
else ./qmbh-out. Config files are plain `key = value` lines; command-line
flags override file values.
"""

import os
import sys
from pathlib import Path

import click

from .experiments import (EXPERIMENTS, ExperimentSpec, parse_config,
                          resolve_parameters, run, run_all, split_overrides,
                          summary_lines, ExperimentReport)

OUT_ENV_VAR = "QMBH_OUT"


def _default_out(flag_value, config_value=None):
    if flag_value:
        return Path(flag_value)
    if config_value:
        return Path(config_value)
    return Path(os.environ.get(OUT_ENV_VAR, "qmbh-out"))


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
@click.option("--out", "out_flag", default=None, help="Output root directory.")
@click.pass_context
def run_one(ctx, experiment_id, out_flag):
    """Run one experiment: qmbh run <id> [--key value ...].

    An unknown, repeated or out-of-domain parameter is a usage error (exit
    status 2) that leaves the output directory untouched.
    """
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
    try:
        resolve_parameters(EXPERIMENTS[experiment_id], params)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    out_root = _default_out(out_flag)
    report = run(ExperimentSpec(experiment_id, params, out_root / experiment_id))
    for c in report.claims:
        click.echo(f"  [{'pass' if c.passed else 'FAIL'}] {c.id}: "
                   f"computed={c.computed:.6g} reference={c.reference:.6g}")
    if report.error:
        click.echo(f"  error: {report.error}")
    click.echo(f"{report.id}: {report.status}")
    sys.exit(0 if report.status == "pass" else 1)


@main.command("run-all")
@click.option("--config", "config_path", default=None,
              help="Plain-text `key = value` configuration file.")
@click.option("--out", "out_flag", default=None, help="Output root directory.")
def run_all_cmd(config_path, out_flag):
    """Run every registered experiment; exit status = number of failures.

    A bad config, including an out-of-domain override for any experiment,
    selected by `only` or not, is a usage error (exit status 2): nothing
    runs and no directory is touched.
    """
    overrides = {}
    only = None
    config_out = None
    try:
        if config_path:
            pairs = parse_config(config_path)
            for key, value in pairs.items():
                if key == "out":
                    config_out = value
                elif key == "only":
                    only = [tok.strip() for tok in value.split(",") if tok.strip()]
                elif "." in key:
                    overrides[key] = value
                else:
                    raise click.UsageError(f"unrecognized config key {key!r}")
        out_root = _default_out(out_flag, config_out)
        for exp_id, given in split_overrides(overrides).items():
            try:
                resolve_parameters(EXPERIMENTS[exp_id], given)
            except ValueError as exc:
                raise click.UsageError(f"{exp_id}: {exc}") from exc
        reports, failures = run_all(out_root, overrides=overrides, only=only)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
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
