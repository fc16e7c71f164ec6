"""Suite-wide test settings.

Property tests run under one registered hypothesis profile, loaded by
default: examples are derived from each test's source (derandomize), so
every run checks the same cases, and there is no per-example deadline,
because exact arithmetic on a shared host can take several times longer on
one run than on the next.
"""
from hypothesis import settings

settings.register_profile("galois-scope", derandomize=True, deadline=None)
settings.load_profile("galois-scope")
