"""CLI entry point: ``python -m repro.experiments [options] [figure ...]``.

Figure names: fig01, fig02, fig03, fig04, fig08, fig09, fig10, fig11,
fig12, fig13, fig14, ablation_params, ablation_adaptive,
ext_stlb_prefetch, or ``all``.  With ``--csv-dir DIR`` each reproduced
figure is also written to ``DIR/<figure>.csv``.  ``--workers N`` fans
the simulations of each figure over N processes (default: all cores);
``--cache-dir DIR`` reuses previously computed simulation results.

Fault tolerance (see ``docs/robustness.md``): ``--failure-policy
fail-fast|continue`` (continue finishes the whole matrix and reports the
failed cells instead of aborting on the first), ``--max-retries N``
re-runs failed or timed-out cells, and ``--cell-timeout SECONDS`` bounds
each cell's wall clock.  A run with failed cells prints the per-cell
``MatrixReport`` and exits non-zero.
"""

from __future__ import annotations

import os
import sys
import time

from ..kernel import resolve_engine
from . import (
    ablation_adaptive,
    ablation_params,
    ext_stlb_prefetch,
    fig01_itlb_cost,
    fig02_stlb_impki,
    fig03_probabilistic,
    fig04_mpki_breakdown,
    fig08_main_comparison,
    fig09_mpki_latency,
    fig10_stlb_breakdown,
    fig11_llc_sensitivity,
    fig12_itlb_sensitivity,
    fig13_large_pages,
    fig14_split_stlb,
)
from .export import write_csv
from ..fabric import (
    FAILURE_POLICIES,
    ConfigurationError,
    MatrixError,
    ParallelRunner,
    set_default_runner,
)
from .reporting import format_figure


def _results(value):
    """Normalise run() return types to a list of FigureResult."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


RUNNERS = {
    "fig01": fig01_itlb_cost.run,
    "fig02": fig02_stlb_impki.run,
    "fig03": fig03_probabilistic.run,
    "fig04": fig04_mpki_breakdown.run,
    "fig08": fig08_main_comparison.run,
    "fig09": fig09_mpki_latency.run,
    "fig10": fig10_stlb_breakdown.run,
    "fig11": fig11_llc_sensitivity.run,
    "fig12": fig12_itlb_sensitivity.run,
    "fig13": fig13_large_pages.run,
    "fig14": fig14_split_stlb.run,
    "ablation_params": lambda: [ablation_params.run_nm(), ablation_params.run_k()],
    "ablation_adaptive": ablation_adaptive.run,
    "ext_stlb_prefetch": ext_stlb_prefetch.run,
}


class _OptionError(Exception):
    pass


def _take_option(argv, name):
    """Pop ``name VALUE`` from argv, returning VALUE (or None if absent)."""
    if name not in argv:
        return None
    index = argv.index(name)
    try:
        value = argv[index + 1]
    except IndexError:
        raise _OptionError(f"{name} needs an argument") from None
    del argv[index:index + 2]
    return value


def main(argv) -> int:
    argv = list(argv)
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    try:
        csv_dir = _take_option(argv, "--csv-dir")
        workers = _take_option(argv, "--workers")
        cache_dir = _take_option(argv, "--cache-dir")
        failure_policy = _take_option(argv, "--failure-policy")
        max_retries = _take_option(argv, "--max-retries")
        cell_timeout = _take_option(argv, "--cell-timeout")
        if failure_policy is not None and failure_policy not in FAILURE_POLICIES:
            raise _OptionError(
                f"--failure-policy takes one of {', '.join(FAILURE_POLICIES)}, "
                f"got {failure_policy!r}"
            )
        if max_retries is not None and not max_retries.isdigit():
            raise _OptionError(f"--max-retries takes a count, got {max_retries!r}")
        if cell_timeout is not None:
            try:
                float(cell_timeout)
            except ValueError:
                raise _OptionError(
                    f"--cell-timeout takes seconds, got {cell_timeout!r}"
                ) from None
        if workers is None:
            workers = os.cpu_count() or 1
        elif not (workers.isdigit() or workers == "auto"):
            raise _OptionError(f"--workers takes a count or 'auto', got {workers!r}")
        try:
            # Jobs resolve their engine lazily; a bad REPRO_ENGINE value
            # should fail here with a usage error, not mid-matrix.
            resolve_engine(None)
        except ValueError as exc:
            raise _OptionError(str(exc)) from None
    except _OptionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    names = argv or ["all"]
    if names == ["all"]:
        names = list(RUNNERS)
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(RUNNERS)} or 'all'", file=sys.stderr)
        return 2
    try:
        runner = ParallelRunner(
            workers=workers, cache_dir=cache_dir, progress=True,
            policy=failure_policy,
            max_retries=None if max_retries is None else int(max_retries),
            timeout=None if cell_timeout is None else float(cell_timeout),
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    previous = set_default_runner(runner)
    failed_figures = []
    try:
        for name in names:
            start = time.time()
            try:
                figures = _results(RUNNERS[name]())
            except MatrixError as exc:
                # Collect-and-continue: the matrix finished, some cells
                # failed.  Report them and move on to the next figure.
                failed_figures.append(name)
                print(exc.report.summary(), file=sys.stderr)
                print(f"[{name}: FAILED — {exc}]\n", file=sys.stderr)
                continue
            for figure in figures:
                print(format_figure(figure))
                print()
                if csv_dir is not None:
                    path = write_csv(figure, csv_dir)
                    print(f"[wrote {path}]")
            print(f"[{name}: {time.time() - start:.0f}s]\n")
    finally:
        set_default_runner(previous)
    if failed_figures:
        print(f"failed figures: {', '.join(failed_figures)}", file=sys.stderr)
        return 1
    return 0


def cli() -> None:
    """Console-script entry point (``repro-experiments``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
