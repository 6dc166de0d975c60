import importlib
import pkgutil

import cvcompare


def test_every_public_name_resolves():
    # a name deleted from a module but still listed in its __all__ breaks
    # `from module import *` and every tool that walks the public API
    missing = []
    for info in pkgutil.iter_modules(cvcompare.__path__):
        module = importlib.import_module(f"cvcompare.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
