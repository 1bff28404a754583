"""Every name a kyfan_tilt module lists in __all__ exists, so that
`from kyfan_tilt.<module> import *` works after a name is deleted."""
from __future__ import annotations

import importlib
import pkgutil

import kyfan_tilt


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.iter_modules(kyfan_tilt.__path__):
        module = importlib.import_module(f"kyfan_tilt.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
