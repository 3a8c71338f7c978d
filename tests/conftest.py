"""Settings shared by every test module."""

from hypothesis import settings

# Derandomized and without an example database, so every run draws the same
# examples whatever earlier runs left in the git-ignored .hypothesis/.
# Each test keeps its own max_examples.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
