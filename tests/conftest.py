"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` selects ``ci``, which
draws the same examples on every run; other runs keep random exploration."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
