"""Hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects the ``ci`` profile: examples are derived
from each test's name rather than drawn at random, so every run checks
the same examples, and no deadline applies on slow shared runners.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
