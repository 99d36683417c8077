import importlib
import pkgutil

import pytest

import zenolab

# zenolab.__main__ runs the CLI on import, so it is left out.
MODULES = ["zenolab"] + [
    f"zenolab.{info.name}" for info in pkgutil.iter_modules(zenolab.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_channel_values_are_exported():
    # the two cases of the Zeno sweep's mixing map, from the package and their modules
    from zenolab import channels, zeno

    assert zenolab.Attenuator is channels.Attenuator and "Attenuator" in channels.__all__
    assert zenolab.GappedChannel is zeno.GappedChannel and "GappedChannel" in zeno.__all__
