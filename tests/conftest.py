"""Test-wide Hypothesis settings: no per-example deadline.

Exact arithmetic makes example times vary widely with the drawn sizes, so a
deadline only reports slow draws.  Each test sets its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("arczeta", deadline=None)
settings.load_profile("arczeta")
