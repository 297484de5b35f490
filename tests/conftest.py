"""Shared test configuration.

Property tests run under a fixed hypothesis profile: ``derandomize`` makes
every run draw the same examples, and ``deadline=None`` keeps a slow or
busy host from failing an example on time alone.
"""

from hypothesis import settings

settings.register_profile("pellipse", deadline=None, derandomize=True)
settings.load_profile("pellipse")
