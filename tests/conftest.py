import os
import subprocess
import sys
from pathlib import Path

import pytest

from subspace_products.fields import ExtensionField

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session")
def field_cache():
    """Session-wide field constructor cache; building GF(2^12) etc. once.
    Its fields hold what earlier tests' scans kept on them (see
    search._a_rows and search._profiles); a test that patches search
    internals takes fresh_field.  They also keep each subfield generator
    from its first call (see ExtensionField.subfield_generator), so a test
    that rebinds `primitive` does so before that call, on a field of its
    own."""
    cache = {}

    def get(p, n):
        if (p, n) not in cache:
            cache[(p, n)] = ExtensionField(p, n)
        return cache[(p, n)]

    return get


@pytest.fixture
def fresh_field():
    """Field constructor that builds a new field at every call, so a scan
    starts with nothing kept, as a first scan in a process does."""
    return ExtensionField


@pytest.fixture
def run_python():
    """Run `python ARGS...` on this checkout's src/ with a timeout, so a call
    that never returns fails the test instead of stalling the suite."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def run(*args, timeout=20):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=timeout)

    return run
