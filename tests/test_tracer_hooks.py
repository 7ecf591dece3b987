"""perfbench/tracer.py hooks hssr by module attribute name, and its `patch`
and `span` skip a name they cannot find. Every name `install()` looks up
must therefore exist, or a rename in hssr silently zeroes a span."""

import importlib
from types import SimpleNamespace

from hssr.model import ConvLayer

from helpers import load_module

tracer = load_module("perfbench/tracer.py")

# already gone from hssr; retargeting these hooks is ROADMAP item 1, and the
# test keeps passing once they are retargeted
RETARGETED = {
    ("cli", "mc_infer"), ("cli", "uncertainty"),
    ("model", "sample_hard"), ("evaluate", "forward"),
}


class _Recording:
    """Stands in for one hssr module and records every attribute looked up
    on it; what `install()` sets lands on the stand-in, not the module."""

    def __init__(self, module, seen):
        self._module, self._seen = module, seen

    def __getattr__(self, attr):
        self._seen.add((self._module.__name__.rpartition(".")[2], attr))
        return getattr(self._module, attr)


def test_every_hooked_name_exists(monkeypatch):
    seen = set()
    monkeypatch.setattr(tracer, "importlib", SimpleNamespace(
        import_module=lambda name: _Recording(importlib.import_module(name), seen)))
    # the one hook set on a real class; restored even if install() fails midway
    monkeypatch.setattr(ConvLayer, "apply", ConvLayer.apply)
    tracer.install(tracer.Tracer())()
    assert seen, "install() looked up no hssr attribute through the stand-ins"
    missing = {(mod, attr) for mod, attr in seen
               if not hasattr(importlib.import_module(f"hssr.{mod}"), attr)}
    assert missing <= RETARGETED, f"hooked names hssr lacks: {sorted(missing - RETARGETED)}"
