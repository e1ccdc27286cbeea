"""The benchmark's layer tracer (bench/layers.py) still fits the package.

Every target it patches must exist, every result hook must read what it
expects, and unpatching must put every original attribute back.
"""

import importlib
import pathlib
import pkgutil
import sys

import megalie

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def megalie_bindings():
    """{(module, attribute): value} of every megalie module, and of the classes defined in them."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "megalie" or name.startswith("megalie.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[name, f"{attr}.{member}"] = inner
    return out


def test_every_target_is_present_and_restored(m5, sl2d, monkeypatch):
    # Recorder.patch looks targets up in sys.modules only, so import them all
    for info in pkgutil.iter_modules(megalie.__path__):
        importlib.import_module(f"megalie.{info.name}")
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import LayerTrace

    from megalie.analysis import analyze

    before = megalie_bindings()
    trace = LayerTrace()
    trace.patch()
    try:
        traced = sys.modules["megalie.analysis"].analyze
        assert traced is not analyze
        for g in (m5, sl2d):
            traced(g)
    finally:
        trace.unpatch()
    assert trace.recorder.absent == []
    assert trace.recorder.summary()["analysis.analyze"]["calls"] == 2
    after = megalie_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
