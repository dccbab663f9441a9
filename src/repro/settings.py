"""Run settings: every ``REPRO_*`` variable, parsed, defaulted and checked.

:data:`KNOBS` is the one table: a row per :class:`Settings` field, with
its variable, parser and default.  A setting resolves as flag (a keyword
of :func:`resolve`) > process-wide override (:func:`set_override`) >
environment (empty = unset) > default, every value through its row's
parser, so a bad one raises :class:`~repro.errors.ConfigurationError`
naming its source.  Hot-path readers call :func:`get` for their own
field; it reads ``os.environ`` (never writes it) on each call.

>>> s = resolve(environ={}, jobs=2, cache_dir="/tmp/rc")
>>> s.jobs, s.checkpoint_every, s.checkpoint_dir
(2, 0, '/tmp/rc/checkpoints')
>>> lookup("checkpoint_every", environ={"REPRO_CHECKPOINT_EVERY": "4"})
(4, 'env')
>>> lookup("shm", environ={"REPRO_SHM": "flase"})
Traceback (most recent call last):
...
repro.errors.ConfigurationError: REPRO_SHM must be one of 1/true/on/yes/0/false/off/no, got 'flase'
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def _bool(raw) -> bool:
    text = str(raw).strip().lower()
    if text not in _TRUE + _FALSE:
        raise ValueError(f"must be one of {'/'.join(_TRUE + _FALSE)}, "
                         f"got {raw!r}")
    return text in _TRUE


def _int_at_least(low: int) -> Callable[[object], int]:
    def parse(raw) -> int:
        text = str(raw).strip()
        if isinstance(raw, bool) or not text.removeprefix("-").isdigit() \
                or int(text) < low:
            raise ValueError(f"must be an integer >= {low}, got {raw!r}")
        return int(text)

    return parse


def _scale(raw) -> str:
    name = str(raw).strip().lower()
    if name not in ("paper", "quick"):
        raise ValueError(f"must be 'paper' or 'quick', got {raw!r}")
    return name


def default_checkpoint_dir(cache_dir: Optional[str]) -> str:
    """Where snapshots land unless a directory is configured."""
    return (str(Path(cache_dir) / "checkpoints") if cache_dir
            else ".repro-checkpoints")


@dataclass(frozen=True)
class Knob:
    """One table row.  ``parse`` maps a variable's text or a typed flag
    value to the checked value (``ValueError`` otherwise); a callable
    ``default`` derives the default from ``get(other_field)``."""

    name: str
    variable: str
    parse: Callable[[object], object]
    default: object


KNOBS: Tuple[Knob, ...] = (
    Knob("scale", "REPRO_SCALE", _scale, "paper"),
    Knob("jobs", "REPRO_JOBS", _int_at_least(1), None),
    Knob("cache_dir", "REPRO_CACHE_DIR", str, None),
    Knob("cache_max_bytes", "REPRO_CACHE_MAX_BYTES", _int_at_least(1), None),
    Knob("checkpoint_every", "REPRO_CHECKPOINT_EVERY", _int_at_least(0), 0),
    Knob("checkpoint_dir", "REPRO_CHECKPOINT_DIR", str,
         lambda get: default_checkpoint_dir(get("cache_dir"))),
    Knob("shm", "REPRO_SHM", _bool, True),
    Knob("batch_kernel", "REPRO_BATCH_KERNEL", _bool, True),
    Knob("jit", "REPRO_JIT", _bool, False),
    Knob("jit_cache_dir", "REPRO_JIT_CACHE_DIR", str,
         lambda get: (str(Path(get("cache_dir")) / "numba-cache")
                      if get("cache_dir") else None)),
    Knob("trace_memo", "REPRO_TRACE_MEMO", _bool, True),
)

#: The table's rows by field name.
BY_NAME: Dict[str, Knob] = {knob.name: knob for knob in KNOBS}

#: Process-wide overrides by field name (see :func:`set_override`).
_OVERRIDES: Dict[str, object] = {}


@dataclass(frozen=True)
class Settings:
    """Every run setting, resolved once: one field per :data:`KNOBS` row."""

    scale: str
    jobs: Optional[int]
    cache_dir: Optional[str]
    cache_max_bytes: Optional[int]
    checkpoint_every: int
    checkpoint_dir: str
    shm: bool
    batch_kernel: bool
    jit: bool
    jit_cache_dir: Optional[str]
    trace_memo: bool

    def engine_options(self) -> Dict[str, object]:
        """Keyword arguments for :func:`repro.engine.create_engine`."""
        return {"jobs": self.jobs, "cache_dir": self.cache_dir,
                "cache_max_bytes": self.cache_max_bytes, "shm": self.shm,
                "checkpoint_every": self.checkpoint_every,
                "checkpoint_dir": self.checkpoint_dir}


def check(name: str, raw, source: Optional[str] = None):
    """``raw`` parsed by the row of field ``name``; a malformed value
    raises :class:`ConfigurationError` naming ``source`` (or ``name``)."""
    try:
        return BY_NAME[name].parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{source or name} {exc}") from None


def lookup(name: str, flags: Optional[Mapping[str, object]] = None,
           environ: Optional[Mapping[str, str]] = None,
           ) -> Tuple[object, str]:
    """``(value, source)`` of one setting, ``source`` being ``"flag"``
    (a flag or the override), ``"env"`` or ``"default"``.  ``flags`` maps
    field names to values (``None`` = unset); ``environ`` defaults to
    ``os.environ``."""
    knob = BY_NAME[name]
    if flags and flags.get(name) is not None:
        return check(name, flags[name]), "flag"
    if name in _OVERRIDES:
        return _OVERRIDES[name], "flag"
    raw = (os.environ if environ is None else environ).get(
        knob.variable, "").strip()
    if raw:
        return check(name, raw, knob.variable), "env"
    if callable(knob.default):
        return knob.default(
            lambda other: lookup(other, flags, environ)[0]), "default"
    return knob.default, "default"


def get(name: str):
    """The value of one setting: override, else environment, else default."""
    return lookup(name)[0]


def resolve(environ: Optional[Mapping[str, str]] = None,
            **flags) -> Settings:
    """Every setting, ``flags`` (field name → value or ``None``) first."""
    unknown = sorted(set(flags) - set(BY_NAME))
    if unknown:
        raise ConfigurationError(f"unknown settings {unknown}")
    return Settings(**{knob.name: lookup(knob.name, flags, environ)[0]
                       for knob in KNOBS})


def set_override(name: str, value) -> None:
    """Set (``None``: clear) the process-wide override of one setting.

    It is module state, never an ``os.environ`` write, so pool workers
    started later resolve from their own environment.
    """
    if value is None:
        _OVERRIDES.pop(name, None)
    else:
        _OVERRIDES[name] = check(name, value)
