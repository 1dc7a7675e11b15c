"""Slow reference implementations the fast paths are pinned against.

Each oracle here is the straightforward version of a production fast
path -- e.g. building and event-simulating one task graph per candidate
degree instead of a vectorized recurrence.  They live with the tests,
not in ``src/``, because nothing but the differential tests calls them.
"""
