"""The benchmark's tracer finds every layer function it declares, and its
set-up launch loads only the dataset layer, without numpy or dataclasses.

``perfbench/tracer.py`` wraps each name in ``LAYER_FUNCTIONS`` by looking it
up on ``pairinfer.<layer>``; a renamed or moved function would stop a traced
benchmark run.  The tracer module is loaded from its file and only read.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pairinfer

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(pairinfer.__file__).resolve().parents[1]


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


def _loaded_modules(code):
    """The pairinfer, numpy, dataclasses and inspect modules a fresh
    interpreter has loaded after ``code``."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; "
              "print(' '.join(m for m in sys.modules "
              "if m.partition('.')[0] in "
              "('pairinfer', 'numpy', 'dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_setup_launch_loads_only_the_dataset_layer():
    loaded = _loaded_modules("import pairinfer; "
                             "pairinfer.load_bundled('nongender'); "
                             "pairinfer.load_bundled('gender')")
    # the counts and the scalar solver need only math; numpy's import
    # would be most of the launch, and dataclasses loads inspect, ast, dis
    # and tokenize
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert loaded == {"pairinfer", "pairinfer.errors", "pairinfer.model",
                      "pairinfer.dataset", "pairinfer.data"}


def test_cli_import_loads_every_traced_layer():
    loaded = _loaded_modules("import pairinfer.cli")
    assert {f"pairinfer.{layer}" for layer in _layer_functions()} <= loaded
