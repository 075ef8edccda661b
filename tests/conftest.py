"""One Hypothesis profile for the suite: derandomized, with no deadline and
no example database, so every property test draws the same examples on
every run and machine. Each test sets its own max_examples."""

from hypothesis import settings

settings.register_profile("toepcond", derandomize=True, deadline=None, database=None)
settings.load_profile("toepcond")
