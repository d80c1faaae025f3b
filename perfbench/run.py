"""saddlekit benchmark: time to a verified saddle, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``, the default) a run sets the workload up several
times and reports the median as ``setup_s``, then runs units of work for
``--seconds`` seconds (default: ``run_seconds`` of BENCHMARK.json), and
at least the workload's ``min_units``.  A unit is one search on the Morse
workloads, one grid scan on ``doa_grid`` and a block of searches on
``sphere_geodesic``.  Every search is timed from the call into
``saddlekit.run`` until it returns.  ``search_s_p50`` is the median over
units of the unit's mean search time, and ``searches_per_s`` the median
over units of the unit's searches per second: a few stalled or cycling
searches move one unit, not the run.  ``--workload all`` (the default)
runs every workload of BENCHMARK.json one after another, each in a child
process of its own, so that ``peak_rss_mb`` is that workload's peak.

Traced (``--trace 1``) a run ignores ``--seconds``: it executes the
workload's fixed number of units (``trace_units``) three times, so that
its counts repeat exactly: traced, untraced
(the wall difference is the tracing overhead) and traced again (counts and
terminal points must match the first pass).  It reports the per-layer
metrics named in BENCHMARK.json.

Each run checks the outputs of every search and prints a verdict.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a check
fails.  Per-search records, the environment and (traced) the spans go to
``.bench_out/`` in the checkout.
"""

import sys

from env import bootstrap


def main():
    try:
        bootstrap()
    except ImportError as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    import measure

    return measure.main(sys.argv[1:], __doc__.split("\n\n")[0])


if __name__ == "__main__":
    sys.exit(main())
