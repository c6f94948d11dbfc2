"""Every run of the suite draws the same hypothesis examples: one profile,
derandomized and with no example database, is the default for all tests."""

from hypothesis import settings

settings.register_profile("replayable", derandomize=True, database=None)
settings.load_profile("replayable")
