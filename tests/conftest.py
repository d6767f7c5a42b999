"""Tier-1 draws the same hypothesis examples on every run: the profile
seeds each test's generator from the test itself and keeps no example
database, so a pass or a failure reproduces from the tree alone."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
