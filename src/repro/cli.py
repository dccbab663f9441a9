"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-benchmarks``
    The twelve synthetic SPEC CPU 2000 workloads.
``list-experiments``
    Every registered paper table/figure driver and ablation.
``simulate``
    Run one (benchmark, configuration) pair and print trace summaries
    with sparklines.
``run-experiment``
    Execute one experiment driver and print its tables.
``sweep``
    Run a train/test design-space sweep through the execution engine
    (optionally parallel and cached) and report timing.
``dse``
    Search the design space against scenario criteria: a one-shot
    predictive search over a fixed LHS training sample, or — with
    ``--active`` — the closed-loop active-learning search whose model
    uncertainty picks each next simulation batch (``--budget``,
    ``--batch-size``, ``--strategy``, ``--seed``).
``cache``
    Inspect (``stats``), garbage-collect (``gc``) or empty (``clear``)
    the on-disk simulation result cache.
``simpoint``
    Representative-interval selection for a benchmark.
``config``
    Print every run setting of :mod:`repro.settings`, resolved, with its
    source (``flag``, ``env`` or ``default``); takes the engine flags.
    A set ``REPRO_*`` variable that names no setting is listed after
    them as ``ignored``.

Each engine flag of ``run-experiment``, ``sweep``, ``dse`` and
``config`` sets one row of :mod:`repro.settings`, beating its
``REPRO_*`` variable; an out-of-range value is a usage error.  A CLI
run never mutates ``os.environ``, so embedding callers that invoke
:func:`main` repeatedly see their environment untouched.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import settings
from repro.uarch.params import VARIED_PARAMETERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workload-dynamics-aware microarchitecture DSE "
                    "(MICRO 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-benchmarks", help="list the synthetic workloads")
    sub.add_parser("list-experiments", help="list paper-figure experiments")

    sim = sub.add_parser("simulate", help="simulate one benchmark/config")
    sim.add_argument("benchmark")
    sim.add_argument("--samples", type=int, default=128)
    sim.add_argument("--backend", choices=("interval", "detailed"),
                     default="interval")
    sim.add_argument("--dvm", action="store_true",
                     help="enable dynamic vulnerability management")
    sim.add_argument("--dvm-threshold", type=float, default=0.3)
    for name in VARIED_PARAMETERS:
        sim.add_argument(f"--{name.replace('_', '-')}", type=int,
                         default=None, dest=name)

    exp = sub.add_parser("run-experiment", help="run one experiment driver")
    exp.add_argument("experiment_id")
    exp.add_argument("--scale", choices=("paper", "quick"), default=None,
                     help="experiment scale (default: REPRO_SCALE, else "
                          "quick)")
    _add_engine_arguments(exp)

    sweep = sub.add_parser(
        "sweep", help="run a design-space sweep through the engine")
    sweep.add_argument("benchmark")
    sweep.add_argument("--n-train", type=int, default=200)
    sweep.add_argument("--n-test", type=int, default=50)
    sweep.add_argument("--samples", type=int, default=128)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default=None, metavar="PREFIX",
                       help="save datasets to PREFIX.train.npz / PREFIX.test.npz")
    _add_engine_arguments(sweep)

    dse = sub.add_parser(
        "dse", help="search the design space against scenario criteria")
    dse.add_argument("benchmark")
    dse.add_argument("--objective", action="append", default=None,
                     metavar="DOMAIN:REDUCER[:max]",
                     help="objective term, e.g. cpi:mean (default) or "
                          "power:p99; append ':max' to maximize; repeat "
                          "for multi-objective Pareto search")
    dse.add_argument("--constraint", action="append", default=None,
                     metavar="DOMAIN:REDUCER<=BOUND",
                     help="scenario constraint, e.g. 'power:max<=100' or "
                          "'cpi:min>=0.5'; repeatable")
    dse.add_argument("--samples", type=int, default=128,
                     help="trace resolution per simulation")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--active", action="store_true",
                     help="closed-loop active learning: ensemble "
                          "uncertainty picks each next simulation batch "
                          "instead of a fixed up-front LHS sample")
    dse.add_argument("--budget", type=int, default=None,
                     help="total simulation budget for --active "
                          "(default: 160)")
    dse.add_argument("--batch-size", type=int, default=None,
                     help="simulations per acquisition round (--active; "
                          "default: 16)")
    dse.add_argument("--n-init", type=int, default=None,
                     help="initial LHS design size (--active; default: 40)")
    dse.add_argument("--strategy", choices=("ei", "ucb", "max_variance"),
                     default=None,
                     help="acquisition strategy (--active; default: ei)")
    dse.add_argument("--n-train", type=int, default=None,
                     help="fixed LHS training sample (without --active; "
                          "default: 200)")
    dse.add_argument("--limit", type=int, default=None,
                     help="predictive-search candidate budget (without "
                          "--active; default: 4096)")
    _add_engine_arguments(dse)

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry / segment / byte counts for the cache "
                      "directory")
    cache_gc = cache_sub.add_parser(
        "gc", help="delete stale files and shrink to a byte target")
    cache_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                          help="evict oldest segments (by mtime) until "
                               "the cache holds at most N bytes")
    cache_gc.add_argument("--checkpoint-ttl-hours", type=float, default=168.0,
                          metavar="H",
                          help="also sweep checkpoint snapshots older than H "
                               "hours (plus stale-version and corrupt ones; "
                               "default: 168 = 7 days)")
    cache_clear = cache_sub.add_parser(
        "clear", help="remove every cached simulation result")
    for sub_parser in (cache_stats, cache_gc, cache_clear):
        sub_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                                help="cache directory (default: "
                                     "REPRO_CACHE_DIR)")

    config = sub.add_parser(
        "config", help="print every resolved run setting and its source")
    _add_engine_arguments(config)

    sp = sub.add_parser("simpoint", help="pick a representative interval")
    sp.add_argument("benchmark")
    sp.add_argument("--intervals", type=int, default=64)
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    def setting(name: str, help: str, metavar: Optional[str] = None):
        # One flag per settings row, checked by the row's own parser so
        # a malformed value is a usage error; bool rows get --no-<flag>.
        knob = settings.BY_NAME[name]

        def parse(text: str):
            try:
                return knob.parse(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        kwargs = ({"action": argparse.BooleanOptionalAction}
                  if isinstance(knob.default, bool)
                  else {"type": parse, "metavar": metavar})
        parser.add_argument("--" + name.replace("_", "-"), default=None,
                            help=f"{help} [{knob.variable}]", **kwargs)

    setting("jobs", "worker processes for sweep execution (default: "
                    "in-process)", "N")
    setting("cache_dir", "on-disk simulation result cache directory", "DIR")
    setting("cache_max_bytes", "byte cap for the disk cache (mtime-LRU "
                               "eviction of whole segments)", "N")
    parser.add_argument("--progress", action="store_true",
                        help="print jobs-done / cache-hit progress during "
                             "sweeps")
    setting("shm", "zero-copy shared-memory result transport for parallel "
                   "sweeps (default: on)")
    setting("checkpoint_every", "detailed backend: snapshot simulation "
                                "state every N intervals so killed sweeps "
                                "resume mid-benchmark", "N")
    setting("jit", "numba-compile the interval kernel's persistence scan "
                   "(default: off; silently falls back to the "
                   "bit-identical NumPy scan when numba is unavailable)")


def _cmd_list_benchmarks(out) -> int:
    from repro.workloads.spec2000 import list_benchmarks

    for model in list_benchmarks():
        out.write(f"{model.name:10s} {model.n_phases} phases  "
                  f"{model.description}\n")
    return 0


def _cmd_list_experiments(out) -> int:
    from repro.experiments import get_experiment, list_experiments

    for eid in list_experiments():
        reg = get_experiment(eid)
        out.write(f"{eid:15s} {reg.paper_reference:12s} {reg.title}\n")
    return 0


def _cmd_simulate(args, out) -> int:
    from repro.analysis.render import sparkline
    from repro.uarch.params import baseline_config
    from repro.uarch.simulator import Simulator

    overrides = {name: getattr(args, name) for name in VARIED_PARAMETERS
                 if getattr(args, name) is not None}
    config = baseline_config(**overrides)
    if args.dvm:
        config = config.with_dvm(True, args.dvm_threshold)
    sim = Simulator(backend=args.backend)
    result = sim.run(args.benchmark, config, n_samples=args.samples)
    out.write(f"{args.benchmark} on:\n{config.describe()}\n\n")
    for domain in ("cpi", "power", "avf", "iq_avf"):
        trace = result.trace(domain)
        out.write(f"{domain:>7s} mean {trace.mean():8.3f}  "
                  f"[{trace.min():8.3f}, {trace.max():8.3f}]  "
                  f"|{sparkline(trace[:96])}|\n")
    return 0


def _progress_printer(out, every: int = 25):
    """An engine ``on_result`` callback printing periodic progress lines."""
    state = {"done": 0, "hits": 0}

    def on_result(index, job, result, from_cache):
        state["done"] += 1
        state["hits"] += int(from_cache)
        if state["done"] % every == 0:
            out.write(f"progress: {state['done']} jobs done "
                      f"({state['hits']} cache hits)\n")

    return on_result


def _engine_flags(args) -> dict:
    """The settings rows given as flags, which argparse stores under
    their field names."""
    return {knob.name: getattr(args, knob.name) for knob in settings.KNOBS
            if hasattr(args, knob.name)}


def _make_engine(args, out=None):
    from repro.engine import create_engine

    flags = _engine_flags(args)
    # The scan reads the JIT row deep in the call stack, so that flag
    # becomes a process-wide override (forked workers inherit it).
    if flags.get("jit") is not None:
        settings.set_override("jit", flags["jit"])
    on_result = None
    if getattr(args, "progress", False):
        on_result = _progress_printer(out or sys.stdout)
    # The rest become explicit engine configuration that rides inside
    # the jobs to pool workers (--checkpoint-every 0 beats the env).
    return create_engine(on_result=on_result,
                         **settings.resolve(**flags).engine_options())


def _cmd_config(args, out) -> int:
    flags = _engine_flags(args)
    for knob in settings.KNOBS:
        value, source = settings.lookup(knob.name, flags)
        shown = "-" if value is None else str(value)
        out.write(f"{knob.variable:24s} {shown:28s} {source}\n")
    # A set REPRO_* variable that names no setting (a typo, or a knob
    # since removed) would otherwise be dropped without a word.
    known = {knob.variable for knob in settings.KNOBS}
    for name, value in sorted(os.environ.items()):
        if name.startswith("REPRO_") and name not in known and value.strip():
            out.write(f"{name:24s} {value:28s} ignored\n")
    return 0


def _cmd_run_experiment(args, out) -> int:
    from repro.experiments import run_experiment
    from repro.experiments.context import ExperimentContext, Scale

    if args.scale is None:
        scale = Scale.from_env(default="quick")
    else:
        scale = Scale.paper() if args.scale == "paper" else Scale.quick()
    ctx = ExperimentContext(scale, engine=_make_engine(args, out))
    result = run_experiment(args.experiment_id, ctx)
    out.write(result.render() + "\n")
    return 0


def _cmd_sweep(args, out) -> int:
    import time

    from repro.dse.runner import SweepPlan, SweepRunner
    from repro.dse.space import paper_design_space

    engine = _make_engine(args, out)
    plan = SweepPlan(space=paper_design_space(), n_train=args.n_train,
                     n_test=args.n_test, seed=args.seed)
    runner = SweepRunner(n_samples=args.samples, engine=engine)
    start = time.perf_counter()
    train, test = runner.run_train_test(args.benchmark, plan)
    elapsed = time.perf_counter() - start
    n_runs = train.n_configs + test.n_configs
    where = f"{getattr(engine.executor, 'max_workers', 1)} worker(s)"
    out.write(f"{args.benchmark}: {n_runs} simulations "
              f"({train.n_configs} train + {test.n_configs} test, "
              f"{args.samples} samples) in {elapsed:.2f}s "
              f"[{where}]\n")
    if engine.cache is not None:
        out.write(f"cache: {engine.cache.stats.describe()}\n")
    if args.out:
        train.save(f"{args.out}.train.npz")
        test.save(f"{args.out}.test.npz")
        out.write(f"saved {args.out}.train.npz and {args.out}.test.npz\n")
    return 0


def _parse_objective(spec: str):
    from repro.dse.explorer import Objective
    from repro.errors import ModelError

    parts = spec.split(":")
    if not 1 <= len(parts) <= 3:
        raise ModelError(
            f"objective spec must be DOMAIN[:REDUCER[:max]], got {spec!r}"
        )
    maximize = False
    if len(parts) == 3:
        if parts[2] not in ("max", "maximize"):
            raise ModelError(
                f"third objective field must be 'max', got {parts[2]!r}"
            )
        maximize = True
    reducer = parts[1] if len(parts) > 1 else "mean"
    return Objective(parts[0], reducer, maximize=maximize)


def _parse_constraint(spec: str):
    from repro.dse.explorer import Constraint
    from repro.errors import ModelError

    for op in ("<=", ">="):
        if op in spec:
            left, _, bound = spec.partition(op)
            domain, _, reducer = left.partition(":")
            try:
                value = float(bound)
            except ValueError:
                raise ModelError(
                    f"constraint bound must be a number, got {bound!r}"
                ) from None
            return Constraint(domain.strip(), (reducer or "max").strip(),
                              op, value)
    raise ModelError(
        f"constraint spec must look like 'power:max<=100', got {spec!r}"
    )


def _cmd_dse(args, out) -> int:
    from repro.dse.active import ActiveSearchSettings
    from repro.dse.explorer import PredictiveExplorer
    from repro.dse.runner import SweepRunner
    from repro.dse.space import paper_design_space
    from repro.core.predictor import WaveletNeuralPredictor

    from repro.errors import ModelError

    objectives = [_parse_objective(s) for s in (args.objective or ["cpi:mean"])]
    constraints = [_parse_constraint(s) for s in (args.constraint or [])]
    if len(objectives) > 1 and not args.active:
        raise ModelError(
            "multiple --objective terms require --active (Pareto search "
            "is part of the closed-loop mode); the one-shot predictive "
            "search optimizes a single objective"
        )
    # Mode-mismatched flags fail loudly instead of being silently
    # ignored: forgetting --active with --budget 20 would otherwise run
    # a 200-simulation fixed sweep the user believed they had capped.
    active_only = ("budget", "batch_size", "n_init", "strategy")
    oneshot_only = ("n_train", "limit")
    wrong = [name for name in (oneshot_only if args.active else active_only)
             if getattr(args, name) is not None]
    if wrong:
        flags = ", ".join("--" + name.replace("_", "-") for name in wrong)
        mode = "with" if args.active else "without"
        raise ModelError(f"{flags} do(es) not apply {mode} --active")
    space = paper_design_space()
    runner = SweepRunner(n_samples=args.samples,
                         engine=_make_engine(args, out))

    if args.active:
        search = ActiveSearchSettings(
            budget=args.budget if args.budget is not None else 160,
            batch_size=(args.batch_size if args.batch_size is not None
                        else 16),
            n_init=args.n_init if args.n_init is not None else 40,
            strategy=args.strategy or "ei", seed=args.seed)
        result = runner.run_active(
            args.benchmark,
            objectives if len(objectives) > 1 else objectives[0],
            constraints=constraints, settings=search, space=space)
        out.write(f"{'round':>5s}  {'strategy':<12s} {'sims':>5s}  "
                  f"{'feasible':>8s}  {'best':>10s}\n")
        for record in result.rounds:
            best = ("-" if record.best_score == float("inf")
                    else f"{record.best_score:.4f}")
            out.write(f"{record.round_index:>5d}  {record.strategy:<12s} "
                      f"{record.n_simulations:>5d}  "
                      f"{record.n_feasible:>8d}  {best:>10s}\n")
        out.write("\n" + result.describe() + "\n")
        if result.pareto:
            out.write("\nPareto front (lower is better per objective):\n")
            for point in result.pareto:
                scores = ", ".join(f"{s:.4f}" for s in point.scores)
                out.write(f"  [{scores}]  "
                          f"{dict(point.config.varied_values())}\n")
        elif result.best_config is not None:
            out.write("\n" + result.best_config.describe() + "\n")
        return 0

    from repro.dse.lhs import sample_train_configs

    n_train = args.n_train if args.n_train is not None else 200
    train_cfgs = sample_train_configs(space, n_train, seed=args.seed)
    dataset = runner.run_configs(args.benchmark, train_cfgs, space)
    domains = {o.domain for o in objectives} | {c.domain for c in constraints}
    models = {
        domain: WaveletNeuralPredictor().fit(dataset.design_matrix(),
                                             dataset.domain(domain))
        for domain in domains
    }
    explorer = PredictiveExplorer(space, models)
    result = explorer.search(
        objectives[0], constraints=constraints,
        limit=args.limit if args.limit is not None else 4096,
        seed=args.seed)
    out.write(f"trained on {dataset.n_configs} simulations; evaluated "
              f"{result.n_evaluated} candidate configurations, "
              f"{result.n_feasible} feasible\n")
    if result.best_config is None:
        out.write("no feasible configuration under the constraints\n")
        return 0
    out.write(f"best predicted {objectives[0].describe()}: "
              f"{result.best_score:.4f}\n")
    out.write(result.best_config.describe() + "\n")
    return 0


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def _cmd_cache(args, out) -> int:
    from repro.engine import ResultCache
    from repro.errors import EngineError

    resolved = settings.resolve(cache_dir=args.cache_dir)
    cache_dir = resolved.cache_dir
    if cache_dir is None:
        raise EngineError(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR"
        )
    cache = ResultCache(cache_dir=cache_dir, memory_items=0)
    if args.cache_command == "stats":
        info = cache.describe()
        out.write(f"cache dir:   {info['cache_dir']}\n")
        out.write(f"key version: {info['key_version']}\n")
        out.write(f"entries:     {info['disk_entries']}\n")
        out.write(f"segments:    {info['disk_segments']}\n")
        out.write(f"bytes:       {info['disk_bytes']} "
                  f"({_human_bytes(info['disk_bytes'])})\n")
        return 0
    if args.cache_command == "gc":
        from repro.uarch.detailed import sweep_checkpoints

        stale_files, stale_bytes = cache.gc_versions()
        out.write(f"stale files: removed {stale_files} files "
                  f"({_human_bytes(stale_bytes)})\n")
        if args.max_bytes is not None:
            entries = len(cache)
            segments, freed = cache.gc(max_bytes=args.max_bytes)
            out.write(f"size gc: removed {segments} segments "
                      f"({entries - len(cache)} entries, "
                      f"{_human_bytes(freed)}), "
                      f"{_human_bytes(cache.disk_bytes())} retained\n")
        # Orphaned snapshots: the cache's and the configured directory.
        ttl = args.checkpoint_ttl_hours * 3600.0
        ckpt_dirs = dict.fromkeys((
            settings.default_checkpoint_dir(cache_dir),
            resolved.checkpoint_dir))
        ckpt_files = ckpt_bytes = 0
        for directory in ckpt_dirs:
            files, freed = sweep_checkpoints(directory, ttl_seconds=ttl)
            ckpt_files += files
            ckpt_bytes += freed
        out.write(f"checkpoints: removed {ckpt_files} snapshots "
                  f"({_human_bytes(ckpt_bytes)})\n")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        out.write(f"cleared {removed} entries from {cache_dir}\n")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_simpoint(args, out) -> int:
    from repro.workloads.simpoint import pick_simpoint
    from repro.workloads.spec2000 import get_benchmark

    result = pick_simpoint(get_benchmark(args.benchmark),
                           n_intervals=args.intervals)
    out.write(f"{args.benchmark}: representative interval "
              f"{result.representative_interval} of {args.intervals} "
              f"({result.n_clusters} phases, dominant cluster weight "
              f"{result.cluster_weights[result.dominant_cluster]:.2f})\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


_COMMANDS = {
    "list-benchmarks": lambda args, out: _cmd_list_benchmarks(out),
    "list-experiments": lambda args, out: _cmd_list_experiments(out),
    "simulate": _cmd_simulate, "run-experiment": _cmd_run_experiment,
    "sweep": _cmd_sweep, "dse": _cmd_dse, "cache": _cmd_cache,
    "simpoint": _cmd_simpoint, "config": _cmd_config,
}
