"""Command-line harness: run experiments, fit slopes, run acceptance suites.

Outputs land in --output (default: current directory), overridable with the
LDPBANDITS_OUTPUT_DIR environment variable.
"""

import os
import sys
from contextlib import contextmanager

import click

from . import harness
from .errors import LdpBanditsError
from .harness import ExperimentConfig, emit, fit_slope, output_dir, parse_trace_csv


@click.group()
def main():
    """Locally private bandit experiments."""


@contextmanager
def _reported():
    """A library error becomes a one-line message and exit status 1."""
    try:
        yield
    except LdpBanditsError as exc:
        raise click.ClickException(str(exc))


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", default=None, help="Output directory (default: cwd or "
              f"${harness.OUTPUT_DIR_ENV}).")
@click.option("--jobs", "-j", default=None, type=int, help="Parallel replications.")
@click.option("--prefix", default="trace", help="Output file stem.")
@_reported()
def run(config_path, output, jobs, prefix):
    """Run the experiment described by a JSON config; writes CSV + JSON."""
    with open(config_path) as fh:
        config = ExperimentConfig.from_json(fh.read())
    out_dir = output or output_dir()
    if config.algorithm == "bai":
        result = harness.run_bai(config, n_jobs=jobs)
        path = emit(result, os.path.join(out_dir, f"{prefix}_bai.json"), "json")
        click.echo(f"success_rate={result['success_rate']} mean_pulls={result['mean_pulls']:.1f}")
        click.echo(path)
        return
    trace = harness.run_experiment(config, n_jobs=jobs)
    csv_path = emit(trace, os.path.join(out_dir, f"{prefix}.csv"), "csv")
    json_path = emit(trace, os.path.join(out_dir, f"{prefix}.json"), "json")
    click.echo(f"final mean regret: {float(trace.mean[-1])!r} "
               f"({trace.n_replications} replications, {trace.wall_clock:.1f}s)")
    click.echo(csv_path)
    click.echo(json_path)


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--last", default=10, show_default=True, help="Checkpoints in the fit window.")
@click.option("--output", "-o", default=None, help="Optional path for the fit (json).")
@_reported()
def slope(trace_path, last, output):
    """Fit the log-log regret exponent of an emitted trace CSV."""
    with open(trace_path) as fh:
        checkpoints, mean, _, _ = parse_trace_csv(fh.read())
    fit = fit_slope((checkpoints, mean), last=last)
    click.echo(f"exponent={fit.exponent:.4f} intercept={fit.intercept:.4f} "
               f"residual={fit.residual:.2e} window={fit.window}")
    if output:
        emit(fit, output, "json")
        click.echo(output)


@main.command()
@click.argument("ids", nargs=-1)
@click.option("--jobs", "-j", default=None, type=int, help="Parallel replications.")
@_reported()
def suite(ids, jobs):
    """Run acceptance criteria by id (e.g. 1 2 9) or 'all'.

    Exits nonzero if any executed criterion fails.
    """
    from . import suites  # only this command loads the acceptance suite
    jobs = harness.default_jobs() if jobs is None else jobs  # a bad LDPBANDITS_JOBS fails first
    try:
        results = suites.run_suite(ids or ("all",), n_jobs=jobs)
    except KeyError as exc:
        raise click.UsageError(str(exc))
    except ModuleNotFoundError as exc:
        raise click.ClickException(str(exc))
    failed = [r for r in results if not r.passed]
    for result in results:
        click.echo(result.report_line())
    click.echo(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
