"""Test configuration: a deterministic hypothesis profile.

``derandomize`` makes every property test draw the same examples on every
run, and ``deadline=None`` stops a slow host from failing an example on
time alone.
"""

from hypothesis import settings

settings.register_profile("zerofiber", deadline=None, derandomize=True)
settings.load_profile("zerofiber")
