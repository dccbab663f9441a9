"""The run-settings table: every ``REPRO_*`` row parsed, defaulted and
checked in one place, and every reader wired to its own row."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro import settings
from repro.engine import ParallelExecutor
from repro.engine.kernel import batch_kernel_enabled
from repro.engine.shm import shm_from_env
from repro.errors import ConfigurationError
from repro.experiments.context import Scale
from repro.uarch import jit
from repro.uarch.detailed import resolve_checkpoint_settings
from repro.workloads.generator import _memo_enabled

README = Path(__file__).resolve().parent.parent / "README.md"

#: Per row: default, an environment text and the value it parses to, an
#: override value, and a rejected text (``None`` for path rows, whose
#: every non-empty text is a valid path).
ROWS = {
    "scale": ("paper", " QUICK ", "quick", "paper", "huge"),
    "jobs": (None, "3", 3, 2, "0"),
    "cache_dir": (None, " /tmp/rc ", "/tmp/rc", "/tmp/flag", None),
    "cache_max_bytes": (None, "4096", 4096, 10, "-5"),
    "checkpoint_every": (0, "8", 8, 0, "-3"),
    "checkpoint_dir": (".repro-checkpoints", "/tmp/ck", "/tmp/ck",
                       "/tmp/flag", None),
    "shm": (True, "off", False, True, "flase"),
    "batch_kernel": (True, "0", False, True, "maybe"),
    "jit": (False, "yes", True, False, "ture"),
    "jit_threads": (1, "3", 3, 2, "0"),
    "jit_cache_dir": (None, "/tmp/nc", "/tmp/nc", "/tmp/flag", None),
    "trace_memo": (True, "no", False, True, "2"),
}

KNOB_IDS = [knob.variable for knob in settings.KNOBS]


@pytest.fixture
def clear_override():
    """Clear every override a test sets, even when it fails."""
    yield
    for knob in settings.KNOBS:
        settings.set_override(knob.name, None)


def test_table_rows_match_settings_fields():
    names = [knob.name for knob in settings.KNOBS]
    assert names == [f.name for f in fields(settings.Settings)] == list(ROWS)
    assert KNOB_IDS == ["REPRO_" + name.upper() for name in names]


@pytest.mark.parametrize("knob", settings.KNOBS, ids=KNOB_IDS)
def test_default(knob):
    default = ROWS[knob.name][0]
    assert settings.lookup(knob.name, environ={}) == (default, "default")
    # An empty variable is unset (CI sets REPRO_JIT to '').
    blank = {knob.variable: "  "}
    assert settings.lookup(knob.name, environ=blank) == (default, "default")


@pytest.mark.parametrize("knob", settings.KNOBS, ids=KNOB_IDS)
def test_env_value_parsed(knob):
    _, text, value, _, _ = ROWS[knob.name]
    assert settings.lookup(knob.name, environ={knob.variable: text}) == (
        value, "env")


@pytest.mark.parametrize("knob", settings.KNOBS, ids=KNOB_IDS)
def test_flag_and_override_beat_env(knob, clear_override):
    _, text, _, override, _ = ROWS[knob.name]
    env = {knob.variable: text}
    assert settings.lookup(knob.name, {knob.name: override}, env) == (
        override, "flag")
    settings.set_override(knob.name, override)
    assert settings.lookup(knob.name, environ=env) == (override, "flag")
    # An explicit flag beats the override too.
    value = ROWS[knob.name][2]
    assert settings.lookup(knob.name, {knob.name: value}, env) == (
        value, "flag")
    settings.set_override(knob.name, None)
    assert settings.lookup(knob.name, environ=env)[1] == "env"


REJECTING = [knob for knob in settings.KNOBS if ROWS[knob.name][4]]


@pytest.mark.parametrize("knob", REJECTING,
                         ids=[knob.variable for knob in REJECTING])
def test_rejected_value(knob, clear_override):
    bad = ROWS[knob.name][4]
    with pytest.raises(ConfigurationError, match=knob.variable):
        settings.lookup(knob.name, environ={knob.variable: bad})
    with pytest.raises(ConfigurationError, match=knob.name):
        settings.resolve(environ={}, **{knob.name: bad})
    with pytest.raises(ConfigurationError, match=knob.name):
        settings.set_override(knob.name, bad)
    assert settings.lookup(knob.name, environ={})[1] == "default"


def test_int_rows_reject_non_integers():
    for bad in ("2.5", "two", 2.0, True):
        with pytest.raises(ConfigurationError, match="integer >= 1"):
            settings.check("jit_threads", bad)


def test_derived_defaults_follow_the_cache_dir():
    env = {"REPRO_CACHE_DIR": "/tmp/rc"}
    s = settings.resolve(environ=env)
    assert s.checkpoint_dir == str(Path("/tmp/rc") / "checkpoints")
    assert s.jit_cache_dir == str(Path("/tmp/rc") / "numba-cache")
    s = settings.resolve(environ=env, cache_dir="/tmp/flag")
    assert s.checkpoint_dir == str(Path("/tmp/flag") / "checkpoints")
    assert s.jit_cache_dir == str(Path("/tmp/flag") / "numba-cache")
    assert settings.lookup("checkpoint_dir", environ=env)[1] == "default"


def test_resolve_rejects_unknown_flags():
    with pytest.raises(ConfigurationError, match="unknown settings"):
        settings.resolve(environ={}, workers=2)


def test_engine_options_carry_the_engine_fields():
    s = settings.resolve(environ={}, jobs=2, checkpoint_every=4)
    assert s.engine_options() == {
        "jobs": 2, "cache_dir": None, "cache_max_bytes": None, "shm": True,
        "checkpoint_every": 4, "checkpoint_dir": ".repro-checkpoints"}


@pytest.mark.parametrize("reader, name, text, expected", [
    (shm_from_env, "shm", "0", False),
    (lambda: ParallelExecutor(max_workers=2).shm, "shm", "0", False),
    (batch_kernel_enabled, "batch_kernel", "off", False),
    (_memo_enabled, "trace_memo", "0", False),
    (jit.jit_requested, "jit", "on", True),
    (jit.jit_threads, "jit_threads", "3", 3),
    (jit.jit_cache_dir, "jit_cache_dir", "/tmp/nc", "/tmp/nc"),
    (lambda: Scale.from_env().name, "scale", "quick", "quick"),
    (lambda: resolve_checkpoint_settings()[0], "checkpoint_every", "8", 8),
], ids=["shm_from_env", "ParallelExecutor.shm", "batch_kernel_enabled",
        "_memo_enabled", "jit_requested", "jit_threads", "jit_cache_dir",
        "Scale.from_env", "resolve_checkpoint_settings"])
def test_reader_follows_its_row(reader, name, text, expected, monkeypatch):
    variable = settings.BY_NAME[name].variable
    monkeypatch.delenv(variable, raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert reader() == ROWS[name][0]
    monkeypatch.setenv(variable, text)
    assert reader() == expected


def test_scale_from_env_default_applies_only_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert Scale.from_env().name == "paper"
    assert Scale.from_env(default="quick").name == "quick"
    monkeypatch.setenv("REPRO_SCALE", "paper")
    assert Scale.from_env(default="quick").name == "paper"


def test_set_jit_threads_writes_the_override(clear_override, monkeypatch):
    monkeypatch.setenv("REPRO_JIT_THREADS", "3")
    jit.set_jit_threads(2)
    assert jit.jit_threads() == 2
    assert 1 <= jit.apply_jit_threads() <= 2
    jit.set_jit_threads(None)
    assert jit.jit_threads() == 3
    with pytest.raises(ConfigurationError, match="jit_threads"):
        jit.set_jit_threads(0)


def test_readme_lists_exactly_the_table_variables():
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", README.read_text(),
                      flags=re.MULTILINE)
    assert rows == KNOB_IDS
