"""Test-suite settings shared by every test module.

Hypothesis runs under one registered profile: examples are derived from
each test's name rather than drawn at random (``derandomize``), so a
run is reproducible; no per-example deadline, so a slow or busy machine
does not turn timing into failures; and no example database.  Hypothesis
also caches the literals it finds in the source code under its home
directory, which is pointed at a temporary directory for the session,
so a run writes no ``.hypothesis/`` into the checkout.

``XDG_CACHE_HOME`` points at another session temporary directory before
any test runs, so the cache of parsed matrices that command-line runs
keep, in process or in a child, is written there, not under the home
directory.
"""

import os
import tempfile

import pytest

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()
_CACHE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    cache = config.stash[_CACHE] = tempfile.TemporaryDirectory(prefix="xdg-cache-")
    os.environ["XDG_CACHE_HOME"] = cache.name
    if settings is None:
        return
    settings.register_profile("labelcal", derandomize=True, deadline=None, database=None)
    settings.load_profile("labelcal")
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    for key in (_HOME, _CACHE):
        folder = config.stash.get(key, None)
        if folder is not None:
            folder.cleanup()
