"""Shared test settings: one deterministic hypothesis profile for the whole suite.

`derandomize` makes every property test draw the same examples on every
run, `database=None` keeps hypothesis from replaying or storing failures,
and `deadline=None` keeps a slow example on a loaded machine from failing
the test.  Hypothesis also caches the constants it reads from the source
files; that cache goes to a temporary directory removed when pytest
finishes, so a test run writes no `.hypothesis/` directory.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
