"""The benchmark's tracer finds every layer function it declares.

``perfbench/tracer.py`` wraps each name in ``LAYER_FUNCTIONS`` by looking it
up on ``pairinfer.<layer>``; a renamed or moved function would stop a traced
benchmark run.  The tracer module is loaded from its file and only read.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layer_functions():
    # executed from its source text, so no bytecode cache is written there
    namespace = {"__name__": "_perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYER_FUNCTIONS"]


def test_traced_layer_functions_exist():
    layers = _layer_functions()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"pairinfer.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
