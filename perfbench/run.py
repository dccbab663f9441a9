"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_dse --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``paper_dse``, ``sweep_cache``, ``detailed_sweep``, ``pool_mixed``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and its tracing overhead.  The last
line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it holds the
environment block, the raw samples and the output digest.

Other modes:

* ``--steadiness N``: run the workload N times in fresh processes with
  seeds ``seed .. seed+N-1`` and print each metric's median, quartiles
  and (q3 - q1) / median, marking spreads over their bound;
* ``--record``: run one repetition and store its output digests for
  ``--seed`` in ``perfbench/digests.json``.

The measured process runs with every ``REPRO_*`` variable removed and
BLAS / OpenMP thread pools pinned to one thread; the script re-executes
itself under that environment before importing NumPy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
_PINNED = "PERFBENCH_PINNED"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import harness

    if os.environ.get(_PINNED) != "1":
        env = harness.pinned_env(os.environ)
        env[_PINNED] = "1"
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)

    source = harness.ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    try:
        if args.steadiness:
            return harness.steadiness(Path(__file__).resolve(), args.workload,
                                      args.seed, args.steadiness,
                                      args.seconds, bool(args.trace))
        return harness.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), record=args.record)
    finally:
        harness.stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
