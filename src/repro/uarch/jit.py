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

JIT is opt-in: an explicit ``jit=`` argument to :func:`ewma_scan`, else
the ``jit`` row of :mod:`repro.settings` (:func:`set_jit`, else
``REPRO_JIT``).

numba is an *optional* dependency: when it is not installed every path
silently uses the NumPy fallback, and requesting JIT is a no-op rather
than an error (``jit_available()`` reports which case you are in).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro import settings

#: Lazily-resolved compiled scan: ``None`` = not attempted yet,
#: ``False`` = numba unavailable (or compilation failed), otherwise the
#: dispatcher-wrapped function.
_NUMBA_SCAN = None


def set_jit(enabled: Optional[bool]) -> None:
    """Set the process-wide JIT override (``None`` restores env lookup).

    The CLI's ``--jit`` flag uses this, so enabling JIT never mutates
    ``os.environ``; see :func:`repro.settings.set_override`.
    """
    settings.set_override("jit", enabled)


def jit_requested() -> bool:
    """Whether JIT is *requested* (override or environment), ignoring
    whether numba can actually honor the request."""
    return settings.get("jit")


def set_jit_threads(n: Optional[int]) -> None:
    """Set the process-wide kernel thread count (``None`` restores env
    lookup; below 1 raises :class:`~repro.errors.ConfigurationError`).

    The CLI's ``--jit-threads`` flag uses this, like :func:`set_jit`.
    """
    settings.set_override("jit_threads", n)


def jit_threads() -> int:
    """Threads the batched detailed kernel may ``prange`` across.

    The conservative default of **1** matters: executors already run one worker per CPU, so a
    worker quietly spawning a thread team would oversubscribe the
    machine — multi-threaded stepping is for single-process batched
    runs that ask for it.  Thread count never changes results: batch
    rows are fully independent (see
    :mod:`repro.uarch.pipeline_kernel`), so this is a speed knob only.
    """
    return settings.get("jit_threads")


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
    """Directory for numba's persistent on-disk compilation cache, or
    ``None`` to compile in memory only.  With a directory pinned, every
    process —
    including forked pool workers — loads the detailed-pipeline
    mega-function from disk instead of recompiling it, which is the
    difference between milliseconds and tens of seconds of warm-up per
    worker.
    """
    return settings.get("jit_cache_dir")


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
