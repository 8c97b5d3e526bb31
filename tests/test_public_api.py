"""Every name a ``repro`` subpackage lists in ``__all__`` resolves.

``repro.obs`` resolves some exports lazily (PEP 562), so an ``__all__``
entry whose module was deleted fails only when something accesses it; this
walks every export so such a stale entry fails here.
"""

import pkgutil
from importlib import import_module

import pytest

import repro

PACKAGES = [
    name
    for name in sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    )
    if hasattr(import_module(name), "__all__")
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    pkg = import_module(package)
    missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
    assert not missing, f"{package}.__all__ names unresolvable exports: {missing}"
