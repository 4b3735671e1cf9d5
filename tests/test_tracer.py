"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` patches the package's functions and methods by
name, so deleting or renaming one of them breaks a traced benchmark run.
This loads the tracer from its file, installs it, runs one traced task and
restores it.
"""

import importlib.util
import pathlib
import sys

from ssetkit import cli

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings(class_methods):
    """Every name bound in a package module, and every traced method."""
    bindings = {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "ssetkit" or name.startswith("ssetkit.")
        for key, value in list(vars(mod).items())
    }
    for layer, cls_name, methods in class_methods:
        cls = getattr(sys.modules["ssetkit." + layer], cls_name)
        bindings.update({(cls_name, m): cls.__dict__[m] for m in methods})
    return bindings


def test_tracer_installs_and_restores(capsys):
    tracer_module = _load_tracer()
    before = _package_bindings(tracer_module.CLASS_METHODS)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_task("homology")
        assert cli.main(["homology", "simplex2"]) == 0
        tracer.end_task()
    finally:
        tracer.restore()
    assert capsys.readouterr().out == "H_0 = Z\nH_1 = 0\nH_2 = 0\n"
    assert tracer.calls["simplicial_chains.normalized_chains"] == 1
    after = _package_bindings(tracer_module.CLASS_METHODS)
    assert [k for k in before if after.get(k) is not before[k]] == []
