"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws ten times the
default number of examples per property and drops the per-example
deadline, which shared CI runners miss by chance; unset, hypothesis's
defaults hold."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
