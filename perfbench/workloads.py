"""The benchmark's four workloads.

Each workload is one class.  ``setup()`` builds a repetition's inputs
(the timed set-up), ``run()`` is the measured phase, ``operations()``
turns a repetition's outputs into digest-checked operations, and
``cleanup()`` removes what the repetition left on disk.  Every
repetition starts from cold process-level memos (see
:func:`reset_memos`), as a fresh ``repro`` process would.

Deliberately not measured, by any workload:

* ``DistributedExecutor``: a loopback TCP server plus its own pool on a
  2-CPU machine would measure the scheduler, not the executor; its gate
  stays in ``benchmarks/bench_remote_executor.py``.
* The compiled numba paths: numba is not a dependency, so every
  workload measures the interpreter and NumPy paths (the environment
  block records whether numba was importable).
"""

from __future__ import annotations

import importlib
import os
import shutil
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from checks import Operation, digest_of, quantized

#: Modules every workload's set-up imports (the import cost is set-up).
MODULES = (
    "repro.engine", "repro.engine.kernel", "repro.dse.runner",
    "repro.dse.lhs", "repro.dse.explorer", "repro.core.predictor",
    "repro.experiments.context", "repro.analysis.stats",
    "repro.uarch.interval_model", "repro.uarch.detailed",
    "repro.uarch.pipeline", "repro.workloads.generator",
    "repro.power.wattch", "repro.reliability.avf",
)

DOMAINS = ("cpi", "power", "avf", "iq_avf")


def import_program() -> None:
    for name in MODULES:
        importlib.import_module(name)


def reset_memos() -> None:
    """Drop the program's process-level memos between repetitions."""
    from repro.power import wattch
    from repro.workloads import generator, spec2000

    generator.clear_trace_memo()
    wattch._interval_constants.cache_clear()
    spec2000._CACHE.clear()


def _rows_digest(dataset, rows: Sequence[int]) -> str:
    return digest_of(*(dataset.domain(d)[list(rows)] for d in DOMAINS))


def _dataset_digest(dataset) -> str:
    return digest_of(dataset.design_matrix(),
                     *(dataset.domain(d) for d in DOMAINS))


class Workload:
    name = ""
    #: Simulation jobs one repetition serves (hits and simulations).
    jobs_per_rep = 0
    #: Detailed-backend instructions one repetition simulates, in kinst.
    kinst_per_rep = 0.0
    #: Whether the measured phase is reported in reference seconds
    #: (scaled by the host-speed spin, see :mod:`harness`).
    host_scaled = True

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def operations(self, outputs) -> List[Operation]:
        raise NotImplementedError

    def cleanup(self, inputs) -> None:
        pass

    def cache_stats(self, outputs) -> Dict[str, float]:
        totals = dict(memory_hits=0, disk_hits=0, misses=0, bytes_written=0)
        for engine in outputs.get("engines", ()):
            stats = engine.cache.stats
            for field in totals:
                totals[field] += getattr(stats, field)
        return totals

    def accuracy(self, outputs) -> Dict[str, float]:
        return {}


class PaperDSE(Workload):
    """``paper_dse``: the paper pipeline as users reproduce Figure 8.

    In-process (``LocalExecutor``, the default memory cache, no cache
    directory).  The 12 SPEC benchmarks' 200-train / 50-test LHS
    interval sweeps run as one streamed batch, a 16-coefficient
    ``WaveletNeuralPredictor`` is fitted per benchmark and domain (cpi,
    power, avf) and scored on the test set, exactly as
    ``ExperimentContext.errors_by_benchmark`` does for Figure 8.  Two
    benchmarks (gcc and mcf) then run ``PredictiveExplorer.search`` over
    4,096 candidates: minimise mean CPI under a max-power constraint.

    Loads the predictor (fit is about 90% of the time) and the explorer;
    the engine layers carry a small share, so an engine change should
    not move this workload.  The Figure 8 sampling plan is the paper's
    fixed plan, so the accuracy headline repeats exactly for every seed
    and any move in it is a change in behaviour; the seed draws the
    exploration queries (candidate pool and power bound).
    """

    name = "paper_dse"
    jobs_per_rep = 12 * 250
    # The pure-Python spin swings more than the BLAS-bound fits do: on
    # the same five seeds the wall ranged 12.5-13.5 s raw but 11.5-13.6
    # s scaled by the spin.
    host_scaled = False
    search_benchmarks = ("gcc", "mcf")

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = np.random.default_rng([seed, 1])
        self.bound_quantiles = [float(q) for q in rng.uniform(
            0.3, 0.7, len(self.search_benchmarks))]
        self.candidate_seed = int(rng.integers(2 ** 31))

    def setup(self):
        from repro.engine import create_engine
        from repro.experiments.context import ExperimentContext, Scale

        return ExperimentContext(scale=Scale.paper(), engine=create_engine())

    def run(self, ctx):
        from repro.analysis.stats import domain_summary
        from repro.dse.explorer import Constraint, Objective, PredictiveExplorer
        from repro.experiments.context import EVAL_DOMAINS

        errors = {d: ctx.errors_by_benchmark(d) for d in EVAL_DOMAINS}
        medians = {d: domain_summary(d, errors[d]).overall_median
                   for d in EVAL_DOMAINS}
        searches = []
        for bench, q in zip(self.search_benchmarks, self.bound_quantiles):
            train, _ = ctx.dataset(bench)
            bound = float(np.quantile(train.domain("power").max(axis=1), q))
            explorer = PredictiveExplorer(
                ctx.space, {d: ctx.model(bench, d) for d in ("cpi", "power")})
            result = explorer.search(
                Objective("cpi", "mean"),
                [Constraint("power", "max", "<=", bound)],
                limit=4096, seed=self.candidate_seed)
            searches.append((bench, bound, result))
        return dict(ctx=ctx, errors=errors, medians=medians,
                    searches=searches, engines=[ctx.engine])

    def operations(self, out):
        ctx = out["ctx"]
        ops = []
        for bench in ctx.scale.benchmarks:
            train, test = ctx.dataset(bench)
            ops.append(Operation(
                f"dataset/{bench}", len(train.configs) + len(test.configs),
                digest_of(_dataset_digest(train), _dataset_digest(test)),
                shared=True))
            for domain, errors in out["errors"].items():
                predicted = ctx.model(bench, domain).predict(
                    test.design_matrix())
                values = np.asarray(errors[bench])
                ops.append(Operation(
                    f"fit/{bench}/{domain}", 1,
                    digest_of(quantized(values), quantized(predicted)),
                    ok=bool(np.all(np.isfinite(values)) and values.min() >= 0),
                    shared=True))
        for i, (bench, bound, result) in enumerate(out["searches"]):
            ranked = [ctx.space.encode(config) for config, _ in result.ranked]
            scores = np.array([score for _, score in result.ranked])
            ops.append(Operation(
                f"search/{i}", 1,
                digest_of(bench, quantized(np.array([bound])),
                          result.n_feasible, np.array(ranked),
                          quantized(scores)),
                ok=result.n_evaluated == 4096 and result.n_feasible > 0))
        return ops

    def accuracy(self, out):
        return {f"mse_{d}_median_pct": float(v)
                for d, v in out["medians"].items()}


class SweepCache(Workload):
    """``sweep_cache``: two ``repro sweep --cache-dir`` processes in a row.

    In-process ``SweepRunner.run_configs`` over all 12 benchmarks with a
    disk ``ResultCache`` in a fresh directory.  Pass 1 sweeps config set
    A (50 LHS configs per benchmark) cold into the empty cache.  Pass 2
    uses a fresh engine on the same directory, as the next process
    would, and sweeps half of A plus as many new configs, so disk reads
    run beside writes and simulation (1,200 jobs in all).

    Loads the layers above the kernel: job keys, the cache tiers, the
    in-process executor, the batched interval kernel and dataset
    materialization.  Runs no predictor or detailed code.  Because
    reads and writes share one repetition, a store policy that speeds
    pass 1 by skipping writes pays for that in pass 2.  The cache
    directory lives inside the checkout (the benchmark writes nowhere
    else); the environment block records its filesystem type.  After
    each repetition the directory is removed and the filesystem synced,
    so one repetition's writeback does not land in the next.
    """

    name = "sweep_cache"
    n_configs = 50
    jobs_per_rep = 12 * 2 * 50

    def setup(self):
        from repro.dse.lhs import sample_test_configs, sample_train_configs
        from repro.dse.space import paper_design_space

        space = paper_design_space()
        first = sample_train_configs(space, self.n_configs, seed=self.seed)
        known = set(first)
        fresh = [c for c in sample_test_configs(
            space, self.n_configs, seed=self.seed + 1) if c not in known]
        fresh = fresh[:self.n_configs // 2]
        second = [c for pair in zip(first[::2], fresh) for c in pair]
        self.scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = self.scratch / f"cache-{self.seed}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir()
        return dict(space=space, passes=(first, second), cache_dir=cache_dir)

    def run(self, inputs):
        from repro.dse.runner import SweepRunner
        from repro.engine import create_engine
        from repro.workloads.spec2000 import BENCHMARK_NAMES

        passes, engines = [], []
        for configs in inputs["passes"]:
            engine = create_engine(cache_dir=inputs["cache_dir"])
            runner = SweepRunner(engine=engine)
            passes.append([runner.run_configs(bench, configs, inputs["space"])
                           for bench in BENCHMARK_NAMES])
            engines.append(engine)
        return dict(passes=passes, engines=engines,
                    configs=inputs["passes"])

    def cleanup(self, inputs):
        shutil.rmtree(inputs["cache_dir"], ignore_errors=True)
        os.sync()

    def operations(self, out):
        first, second = out["passes"]
        configs = out["configs"]
        overlap = len(configs[0][::2])
        reread = {a.benchmark: _rows_digest(b, range(0, 2 * overlap, 2))
                  == _rows_digest(a, range(0, len(a.configs), 2))
                  for a, b in zip(first, second)}
        # (misses, disk hits) each pass must see: pass 2 reads half of
        # pass 1 back from disk and simulates the new configs.
        expected = [(12 * len(configs[0]), 0),
                    (12 * (len(configs[1]) - overlap), 12 * overlap)]
        ops = []
        for index, (datasets, engine, (misses, hits)) in enumerate(
                zip(out["passes"], out["engines"], expected)):
            stats = engine.cache.stats
            cache_ok = (stats.misses, stats.disk_hits,
                        stats.memory_hits) == (misses, hits, 0)
            for dataset in datasets:
                ops.append(Operation(
                    f"pass{index + 1}/{dataset.benchmark}",
                    len(dataset.configs),
                    digest_of(_dataset_digest(dataset)),
                    ok=cache_ok and (index == 0 or reread[dataset.benchmark])))
        return ops


class DetailedSweep(Workload):
    """``detailed_sweep``: the cycle-level backend, in-process.

    ``SweepRunner`` with the detailed simulator over 4 benchmarks, each
    swept over its own quarter of an 8-point LHS design (2 configs x 32
    intervals of 1,000 instructions per benchmark).  The cycle-level
    core, trace synthesis and the Wattch / AVF post-processing do nearly
    all the work; the engine layers almost none.  Without numba the
    interpreter engine runs.  One 8-point LHS, rather than configs
    shared by every benchmark, keeps the simulated work per repetition
    nearly the same from seed to seed.
    """

    name = "detailed_sweep"
    benchmarks = ("gcc", "mcf", "swim", "twolf")
    n_samples = 32
    jobs_per_rep = 8
    kinst_per_rep = 8 * 32 * 1000 / 1000.0

    def setup(self):
        from repro.dse.lhs import sample_train_configs
        from repro.dse.space import paper_design_space

        space = paper_design_space()
        design = sample_train_configs(space, self.jobs_per_rep,
                                      seed=self.seed)
        n = len(self.benchmarks)
        return dict(space=space, sweeps=[
            (bench, design[i::n]) for i, bench in enumerate(self.benchmarks)])

    def run(self, inputs):
        from repro.dse.runner import SweepRunner
        from repro.engine import create_engine
        from repro.uarch.simulator import Simulator

        engine = create_engine()
        runner = SweepRunner(simulator=Simulator(backend="detailed"),
                             n_samples=self.n_samples, engine=engine)
        datasets = [runner.run_configs(bench, configs, inputs["space"])
                    for bench, configs in inputs["sweeps"]]
        return dict(datasets=datasets, engines=[engine])

    def operations(self, out):
        ops = []
        for dataset in out["datasets"]:
            for row in range(len(dataset.configs)):
                cpi = dataset.domain("cpi")[row]
                ops.append(Operation(
                    f"job/{dataset.benchmark}/{row}", 1,
                    _rows_digest(dataset, [row]),
                    ok=bool(np.all(np.isfinite(cpi)) and cpi.min() > 0)))
        return ops


class PoolMixed(Workload):
    """``pool_mixed``: one streamed validation-style batch through a pool.

    A 2-worker ``ParallelExecutor`` (default shared-memory transport)
    receives one ``submit`` holding 2,400 interval jobs (12 benchmarks x
    200 LHS configs, each under a millisecond) plus 12 detailed jobs
    (one per benchmark, 32 intervals each, on a 12-point LHS design),
    consumed with ``as_completed``.  Pool start and shutdown are part of
    the measured phase, as every ``repro sweep --jobs 2`` pays them.

    The only workload where chunk planning, pool dispatch and the shm
    transport run, so the pool cost model and the transport paths show
    here and nowhere else.  Only parent-side layers are traced; worker
    kernel time appears as ``engine.executor.wait_s``.
    """

    name = "pool_mixed"
    n_interval = 200
    n_samples_detailed = 32
    jobs_per_rep = 12 * (200 + 1)
    kinst_per_rep = 12 * 32 * 1000 / 1000.0

    def setup(self):
        from repro.dse.lhs import sample_train_configs
        from repro.dse.space import paper_design_space
        from repro.engine import make_jobs
        from repro.workloads.spec2000 import BENCHMARK_NAMES

        space = paper_design_space()
        interval = sample_train_configs(space, self.n_interval, seed=self.seed)
        detailed = sample_train_configs(space, len(BENCHMARK_NAMES),
                                        seed=self.seed + 1)
        jobs = []
        for bench, config in zip(BENCHMARK_NAMES, detailed):
            jobs += make_jobs(bench, interval)
            jobs += make_jobs(bench, [config], backend="detailed",
                              n_samples=self.n_samples_detailed)
        return dict(jobs=jobs)

    def run(self, inputs):
        from repro.engine import create_engine

        jobs = inputs["jobs"]
        engine = create_engine(jobs=2)
        results = [None] * len(jobs)
        try:
            for index, result in engine.submit(jobs).as_completed():
                results[index] = result
        finally:
            engine.executor.close()
        return dict(jobs=jobs, results=results, engines=[engine])

    def operations(self, out):
        groups: Dict[str, List[int]] = {}
        for i, job in enumerate(out["jobs"]):
            groups.setdefault(f"{job.backend}/{job.benchmark}", []).append(i)
        return [Operation(name, len(rows), results_digest(
                    [out["results"][i] for i in rows]))
                for name, rows in groups.items()]

    def reference(self, inputs) -> Dict[str, str]:
        """In-process digests of every interval group and one detailed job.

        Computed once per run, outside the measured phase: the pool and
        its shared-memory transport must return the same bits as the
        in-process kernel.
        """
        from repro.engine.kernel import run_jobs

        jobs = inputs["jobs"]
        results = [None] * len(jobs)
        interval = [i for i, job in enumerate(jobs) if job.backend == "interval"]
        for i, result in zip(interval, run_jobs([jobs[i] for i in interval])):
            results[i] = result
        first = next(i for i, job in enumerate(jobs)
                     if job.backend == "detailed")
        results[first] = jobs[first].run()
        ops = self.operations(dict(jobs=jobs, results=results))
        return {op.name: op.digest for op in ops if op.digest is not None}


def results_digest(results) -> str:
    if any(result is None for result in results):
        return None
    return digest_of(*(result.trace(d) for result in results
                       for d in DOMAINS))


WORKLOADS = {cls.name: cls for cls in
             (PaperDSE, SweepCache, DetailedSweep, PoolMixed)}
