import importlib

import bergercmc


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from bergercmc import *", ns)
    assert len(set(bergercmc.__all__)) == len(bergercmc.__all__)
    assert [name for name in bergercmc.__all__ if name not in ns] == []
    assert ns["__version__"] == bergercmc.__version__


def test_exported_names_are_the_objects_of_their_defining_modules():
    for name in bergercmc.__all__:
        if name == "__version__":
            continue
        obj = getattr(bergercmc, name)
        assert obj.__module__.startswith("bergercmc."), name
        assert obj.__name__ == name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
