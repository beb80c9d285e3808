"""The dotted vidseg names the benchmark hooks must exist.

perfbench/worker.py reads per-layer numbers from the span records of
functions it names as strings, and perfbench/tracer.py picks out a few
methods by name. A renamed function leaves its record missing, so its
per-layer metric silently reads 0; this test makes that rename fail here.
"""

import ast
import functools
from pathlib import Path

import vidseg
import vidseg.cli  # noqa: F401 - imports every module, as the benchmark does

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the benchmark still reads whose code is gone; their per-layer
# metrics read 0 by design
RETIRED = {
    "sampling.augment_frame",  # one frame; replaced by sampling.augment_frames
    "trainer.sample_losses",  # one sample; replaced by trainer.batch_losses
}


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def hooked_names(source):
    """Every string passed as the name of field(table, name, index),
    both(name, index) or ms(name), or compared by name == "..."."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            position = {"field": 1, "both": 0, "ms": 0}.get(node.func.id)
            if position is not None and len(node.args) > position:
                names.add(_string(node.args[position]))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
              and node.left.id == "name"
              and all(isinstance(op, ast.Eq) for op in node.ops)):
            names.update(_string(side) for side in node.comparators)
    names.discard(None)
    return names


def resolves(name):
    try:
        functools.reduce(getattr, name.split("."), vidseg)
    except AttributeError:
        return False
    return True


def test_hooked_names_resolve_to_vidseg_attributes():
    names = set()
    for script in ("worker.py", "tracer.py"):
        names |= hooked_names((PERFBENCH / script).read_text())
    # the collector sees the hooks at all: a step root and a bank method
    assert {"trainer.train_step", "memory.MemoryBank.enqueue"} <= names
    assert RETIRED <= names
    assert sorted(name for name in names if not resolves(name)) == sorted(RETIRED)
