"""Optional numba acceleration for the kernel's scalar recurrences.

The batched interval kernel (:mod:`repro.uarch.interval_model`) is
NumPy end-to-end except for one genuinely sequential piece: the
persistence-smoothing EWMA scan, whose time steps depend on each other.
The batch path already amortizes it across configs (one vector op per
time step instead of one Python iteration per element), but for very
large batches a compiled scan still wins.  This module provides that
scan with three interchangeable implementations:

* a **numba** ``@njit`` kernel (used when numba is importable *and* JIT
  is enabled) — compiled without ``fastmath``, so IEEE semantics are
  preserved and the output is bit-identical to the NumPy path;
* the **NumPy** fallback (one vector op across batch rows per time
  step) — always available, used whenever numba is absent or JIT is
  off;
* both proven bit-identical in ``tests/test_kernel_batch.py``.

JIT is opt-in, resolved in priority order:

1. an explicit ``jit=`` argument to :func:`ewma_scan`;
2. the process-wide override set by :func:`set_jit` (the CLI's
   ``--jit`` flag uses this — the environment is never mutated);
3. the ``REPRO_JIT`` environment variable (``1``/``true``/``on``).

numba is an *optional* dependency: when it is not installed every path
silently uses the NumPy fallback, and requesting JIT is a no-op rather
than an error (``jit_available()`` reports which case you are in).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import numpy as np

#: Process-wide JIT override set by :func:`set_jit` (``None`` = consult
#: the ``REPRO_JIT`` environment).
_JIT_OVERRIDE: Optional[bool] = None

#: Process-wide thread-count override set by :func:`set_jit_threads`
#: (``None`` = consult the ``REPRO_JIT_THREADS`` environment).
_THREADS_OVERRIDE: Optional[int] = None

#: Lazily-resolved compiled scan: ``None`` = not attempted yet,
#: ``False`` = numba unavailable (or compilation failed), otherwise the
#: dispatcher-wrapped function.
_NUMBA_SCAN = None

_TRUE_STRINGS = ("1", "true", "on", "yes")


def set_jit(enabled: Optional[bool]) -> None:
    """Set the process-wide JIT preference (``None`` restores env lookup).

    Used by the CLI's ``--jit`` flag so enabling JIT never mutates
    ``os.environ`` (pool workers inherit the environment; an in-process
    override keeps the decision local to the dispatching process, and
    jobs shipped to workers re-resolve it from *their* environment).
    """
    global _JIT_OVERRIDE
    _JIT_OVERRIDE = enabled if enabled is None else bool(enabled)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_JIT", "").strip().lower() in _TRUE_STRINGS


def jit_requested() -> bool:
    """Whether JIT is *requested* (override or environment), ignoring
    whether numba can actually honor the request."""
    if _JIT_OVERRIDE is not None:
        return _JIT_OVERRIDE
    return _env_enabled()


def set_jit_threads(n: Optional[int]) -> None:
    """Set the process-wide kernel thread count (``None`` restores env
    lookup).

    Used by the CLI's ``--jit-threads`` flag; like :func:`set_jit`, this
    is module state rather than an environment mutation, so the decision
    stays local to the dispatching process and never leaks into pool
    workers (which re-resolve ``REPRO_JIT_THREADS`` from *their*
    environment).
    """
    global _THREADS_OVERRIDE
    if n is None:
        _THREADS_OVERRIDE = None
        return
    n = int(n)
    if n < 1:
        raise ValueError(f"jit threads must be >= 1, got {n}")
    _THREADS_OVERRIDE = n


def jit_threads() -> int:
    """Threads the batched detailed kernel may ``prange`` across.

    Resolution order: :func:`set_jit_threads` override, then the
    ``REPRO_JIT_THREADS`` environment, then **1**.  The conservative
    default matters: executors already run one worker per CPU, so a
    worker quietly spawning a thread team would oversubscribe the
    machine — multi-threaded stepping is for single-process batched
    runs that ask for it.  Thread count never changes results: batch
    rows are fully independent (see
    :mod:`repro.uarch.pipeline_kernel`), so this is a speed knob only.
    """
    if _THREADS_OVERRIDE is not None:
        return _THREADS_OVERRIDE
    raw = os.environ.get("REPRO_JIT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JIT_THREADS must be an integer >= 1, got {raw!r}"
        )
    return max(1, n)


def apply_jit_threads() -> int:
    """Apply :func:`jit_threads` to numba's runtime; returns the count
    actually in force (clamped to numba's launch-time maximum, 1 when
    numba is absent)."""
    n = jit_threads()
    try:
        import numba

        n = max(1, min(n, int(numba.config.NUMBA_NUM_THREADS)))
        numba.set_num_threads(n)
        return n
    except Exception:
        return 1


def jit_cache_dir() -> Optional[str]:
    """Directory for numba's persistent on-disk compilation cache.

    ``REPRO_JIT_CACHE_DIR`` wins; else ``$REPRO_CACHE_DIR/numba-cache``
    when a result-cache root is configured; else ``None`` (in-memory
    compilation only).  With a directory pinned, every process —
    including forked pool workers — loads the detailed-pipeline
    mega-function from disk instead of recompiling it, which is the
    difference between milliseconds and tens of seconds of warm-up per
    worker.
    """
    explicit = os.environ.get("REPRO_JIT_CACHE_DIR", "").strip()
    if explicit:
        return explicit
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return str(Path(cache_dir) / "numba-cache") if cache_dir else None


#: Compiled-dispatcher cache for :func:`compile_njit`, keyed by
#: ``(function, jit flags)`` — one compilation per distinct signature,
#: however often :func:`set_jit` toggles.
_NJIT_CACHE: dict = {}


def compile_njit(fn, parallel: bool = False):
    """``numba.njit(fn)``, compiled lazily once per ``(fn, flags)``.

    Returns the dispatcher-wrapped function, or ``False`` when numba is
    not importable (or compilation fails) — callers then fall back to
    their pure-Python path, which is the same arithmetic.  Compiled
    without ``fastmath`` so IEEE ordering (and therefore bit-identical
    output) is preserved; shared by the EWMA scan and the detailed
    pipeline kernel (:mod:`repro.uarch.pipeline_kernel`).

    The dispatcher is memoized under ``(fn, parallel)``: :func:`set_jit`
    toggling only changes *dispatch*, never re-triggers compilation.  When :func:`jit_cache_dir` resolves
    a directory, compilation also lands in numba's on-disk cache there
    (``cache=True``), so fresh processes skip the compile entirely.
    """
    key = (fn, parallel)
    cached = _NJIT_CACHE.get(key)
    if cached is None:
        try:
            import numba

            cache_dir = jit_cache_dir()
            use_cache = False
            if cache_dir:
                try:
                    Path(cache_dir).mkdir(parents=True, exist_ok=True)
                    # Programmatic pin (numba reads this at cache-file
                    # resolution time); the environment is never mutated.
                    numba.config.CACHE_DIR = cache_dir
                    use_cache = True
                except OSError:
                    pass  # unwritable cache root: compile in memory
            cached = numba.njit(cache=use_cache, parallel=parallel)(fn)
        except Exception:
            cached = False
        _NJIT_CACHE[key] = cached
    return cached


def _resolve_numba_scan():
    """Compile the scan once through :func:`compile_njit`."""
    global _NUMBA_SCAN
    if _NUMBA_SCAN is None:
        # No fastmath: the compiled loop must keep strict IEEE
        # ordering so its output is bit-identical to the NumPy scan.
        _NUMBA_SCAN = compile_njit(_ewma_scan_loop)
    return _NUMBA_SCAN


def jit_available() -> bool:
    """Whether the compiled scan can be used (numba importable)."""
    return bool(_resolve_numba_scan())


def jit_enabled(jit: Optional[bool] = None) -> bool:
    """Resolve the effective JIT decision for one call."""
    requested = jit_requested() if jit is None else bool(jit)
    return requested and jit_available()


def _ewma_scan_loop(traces, alpha):
    """Reference scan: row-wise first-order IIR, strict IEEE ordering.

    Plain nested loops on purpose — this exact function body is what
    numba compiles, so the JIT and no-JIT paths share one definition of
    the arithmetic (``alpha * x + (1 - alpha) * acc`` per element, in
    time order).
    """
    n_rows, n_cols = traces.shape
    out = np.empty_like(traces)
    beta = 1.0 - alpha
    for row in range(n_rows):
        acc = traces[row, 0]
        for col in range(n_cols):
            acc = alpha * traces[row, col] + beta * acc
            out[row, col] = acc
    return out


def _ewma_scan_numpy(traces: np.ndarray, alpha: float) -> np.ndarray:
    """NumPy scan: one vector op across batch rows per time step.

    Bit-identical to :func:`_ewma_scan_loop`: every element sees the
    same ``alpha * x + (1 - alpha) * acc`` float64 operations in the
    same order; only the loop structure (time-major instead of
    row-major) differs.
    """
    out = np.empty_like(traces)
    acc = traces[:, 0].copy()
    beta = 1.0 - alpha
    for col in range(traces.shape[1]):
        acc = alpha * traces[:, col] + beta * acc
        out[:, col] = acc
    return out


def ewma_scan(traces: np.ndarray, alpha: float,
              jit: Optional[bool] = None) -> np.ndarray:
    """Forward EWMA scan over the last axis of a ``(rows, samples)`` array.

    ``out[r, t] = alpha * traces[r, t] + (1 - alpha) * out[r, t-1]``
    with the accumulator seeded from ``traces[r, 0]`` (matching the
    interval model's historical per-element loop).  Dispatches to the
    numba kernel when JIT is enabled and available, else to the NumPy
    fallback; the two are bit-identical.
    """
    traces = np.asarray(traces)
    if traces.ndim != 2:
        raise ValueError(
            f"ewma_scan expects a (rows, samples) array, got shape "
            f"{traces.shape}"
        )
    if traces.shape[1] == 0:
        return np.empty_like(traces)
    if jit_enabled(jit):
        compiled = _resolve_numba_scan()
        if compiled:
            return compiled(np.ascontiguousarray(traces), alpha)
    return _ewma_scan_numpy(traces, alpha)
