"""Every name a ``repro`` module exports in ``__all__`` exists.

A stale ``__all__`` entry fails only on ``from module import *``, so
deleting a public name must delete its export too."""
import importlib
import pkgutil

import repro


def test_public_names_resolve():
    modules = [
        importlib.import_module(m.name)
        for m in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    missing = [f"{m.__name__}.{n}" for m in exporting for n in m.__all__ if not hasattr(m, n)]
    assert not missing
