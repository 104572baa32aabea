"""Every ``repro`` package's ``__all__`` is consistent with the package.

A name listed in ``__all__`` must resolve on the package, and no name
may be listed twice -- so deleting a module or a definition cannot
leave a stale export behind.
"""

import collections
import importlib
import pkgutil

import pytest

import repro


def _exporting_packages():
    """``repro`` and every subpackage that defines ``__all__``."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return sorted(
        name for name in names
        if hasattr(importlib.import_module(name), "__all__")
    )


@pytest.mark.parametrize("name", _exporting_packages())
def test_all_resolves_without_duplicates(name):
    package = importlib.import_module(name)
    exported = package.__all__
    missing = [n for n in exported if not hasattr(package, n)]
    assert missing == [], "%s.__all__ lists unknown names" % name
    twice = sorted(
        n for n, count in collections.Counter(exported).items()
        if count > 1
    )
    assert twice == [], "%s.__all__ lists names twice" % name
