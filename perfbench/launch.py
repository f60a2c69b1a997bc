"""Child process of the benchmark: one ``repro`` command, or one set-up.

    python perfbench/launch.py [--seed N] [--spans DIR] -- ARGV...
    python perfbench/launch.py --setup WORKLOAD --seed N

The first form runs ``repro.__main__.main(ARGV)``, the code path of
``python -m repro ARGV``. The figure commands take no seed on the
command line, so for them ``--seed`` (and, for fig8, the benchmark
subset ``workloads.FIG8_BENCHMARKS``) is bound into the figure function
the CLI dispatches to; everything else is untouched. With ``--spans
DIR`` the span tracer (``spans.py``) wraps each layer's entry points
before the command runs and writes every process's spans under DIR;
without it nothing is wrapped.

The second form is the set-up the benchmark times from outside: import
the CLI, build the network of the workload's first point, exit.
"""

from __future__ import annotations

import argparse
import functools
import sys


def _parse(argv):
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup", default=None, metavar="WORKLOAD")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args


def _setup(workload: str, seed: int) -> int:
    import repro.__main__  # noqa: F401  (what ``python -m repro`` imports)
    from repro.harness.experiment import build_network

    from workloads import first_config
    build_network(first_config(workload, seed))
    return 0


def _command(args) -> int:
    tracer = frame = None
    if args.spans is not None:
        from spans import Tracer
        tracer = Tracer(args.spans)
        frame = tracer.begin("process.import")
    from repro import __main__ as cli
    from repro.harness import figures
    if tracer is not None:
        tracer.end(frame)
    name = args.argv[0] if args.argv else None
    if name in cli.ALL_FIGURES and args.seed is not None:
        kwargs = {"seed": args.seed}
        if name == "fig8":
            from workloads import FIG8_BENCHMARKS
            kwargs["benchmarks"] = FIG8_BENCHMARKS
        cli.ALL_FIGURES[name] = functools.partial(getattr(figures, name),
                                                  **kwargs)
    if tracer is None:
        return cli.main(args.argv)
    tracer.install()
    try:
        return cli.main(args.argv)
    finally:
        tracer.uninstall()
        tracer.flush()


def main(argv=None) -> int:
    """Dispatch to the set-up or the command form."""
    args = _parse(argv)
    if args.setup is not None:
        return _setup(args.setup, args.seed if args.seed is not None else 1)
    return _command(args)


if __name__ == "__main__":
    sys.exit(main())
