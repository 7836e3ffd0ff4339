"""Hypothesis profiles. ``--hypothesis-profile=ci`` draws the same examples
on every run, so a failure found in CI reproduces, and prints the blob that
replays a failing example with ``@reproduce_failure``; local runs keep the
default profile and draw new examples each time."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
