"""Guard for the per-layer benchmark run (``perfbench/run.py --trace 1``).

The traced run wraps ``repro`` boundaries by name (``perfbench/layers.py``).
A renamed or removed boundary would break only that run, so this test
installs every wrapper and puts the originals back: renaming a wrapped
boundary fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache in the benchmark's tree
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_layer_wrappers_install_and_uninstall():
    from repro.comm.group import ProcessGroup

    saved = {n: sys.modules.get(n) for n in ("tracer", "layers")}
    original = ProcessGroup.__dict__["rendezvous"]
    try:
        tracer_mod = _load("tracer")  # layers.py imports it as ``tracer``
        layers = _load("layers")
        tracer = tracer_mod.LayerTracer()
        try:
            layers.install(tracer)
            patched = len(tracer._patches)
            assert patched > 0
            assert ProcessGroup.__dict__["rendezvous"] is not original
        finally:
            tracer.uninstall()
        assert ProcessGroup.__dict__["rendezvous"] is original
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
