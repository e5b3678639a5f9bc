"""Hypothesis profiles for the generated tests.

Tier-1 runs derandomized: every ``@given`` test draws the same examples
on every run, so a counterexample shows up as a red test on the change
that introduced it, not on whichever later run happens to draw it.  The
``explore`` profile draws fresh examples each run and prints the blob
that replays a failure; CI runs the ``@given`` files under it with
``--hypothesis-profile=explore``.  A test's own ``@settings`` still
fix its example count under either profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")
