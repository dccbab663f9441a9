"""The names the benchmark harness binds to in the package still exist.

``perfbench/tracing.py`` resolves its ``LAYER_TARGETS`` by module path
and attribute name, and ``perfbench/harness.py:env_block`` imports
package knobs by name.  A rename or deletion in the package would only
surface when the benchmark runs; resolving them here makes it a tier-1
failure instead.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("target", tracing.LAYER_TARGETS,
                         ids=lambda t: f"{t.module}:{t.qualname}")
def test_layer_target_resolves_to_a_callable(target):
    # The same lookup tracing.install makes: methods are replaced on
    # the class that defines them, so they must not be inherited.
    owner, attr = tracing._resolve(target)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    assert callable(getattr(raw, "__func__", raw))


def test_env_block_reads_the_package_knobs():
    block = harness.env_block()
    assert isinstance(block["batch_kernel"], bool)
    assert isinstance(block["shm"], bool)
    assert isinstance(block["jit"], bool)
    assert isinstance(block["trace_memo"], bool)
