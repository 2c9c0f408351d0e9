"""Test-session set-up shared by every test module."""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    pass
else:
    # CI selects this profile with --hypothesis-profile=ci: the same
    # examples on every run, no example database left behind, and no
    # per-example deadline on a runner whose speed varies. Tests set their
    # example counts and deadline=None themselves, since a busy host can
    # stretch an example past the default 200 ms; a run without the option
    # draws fresh examples under hypothesis's other defaults.
    settings.register_profile("ci", derandomize=True, database=None, deadline=None)
