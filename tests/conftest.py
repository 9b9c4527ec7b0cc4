"""Suite-wide settings.

Property tests draw their examples from a fixed seed (``derandomize``) and
keep no example database, so every run of the suite checks the same cases
and a failure reproduces.  Several examples build exact contexts whose first
call is slow, so there is no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("betarec", derandomize=True, deadline=None, database=None)
settings.load_profile("betarec")
