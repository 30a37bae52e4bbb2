"""The observation-leak guard: leaking tests must fail, clean tests must not."""

from __future__ import annotations

from repro.obs import profile as obs_profile
from repro.obs import runtime as obs_runtime

GUARD_CONFTEST = '''
import pytest
from repro.obs import profile as obs_profile
from repro.obs import runtime as obs_runtime


@pytest.fixture(autouse=True)
def _no_leaked_observation():
    assert obs_runtime.active() is None and obs_profile.active() is None
    yield
    leaked = obs_runtime.active() is not None or obs_profile.active() is not None
    obs_runtime.deactivate()
    obs_profile.deactivate()
    assert not leaked, "test leaked an active observation or profiler"
'''


def test_suspended_restores_the_previous_observation():
    assert obs_runtime.active() is None
    with obs_runtime.observing() as obs:
        with obs_runtime.suspended():
            assert obs_runtime.active() is None
        assert obs_runtime.active() is obs
    with obs_runtime.suspended():
        assert obs_runtime.active() is None
    assert obs_runtime.active() is None


def test_activate_without_deactivate_fails_the_leaking_test(pytester):
    # The must-fail demonstration: a miniature session whose tests leave
    # an observation and a profiler switched on.  The guard must flag
    # exactly those tests (teardown errors) and leave the process clean.
    pytester.makeconftest(GUARD_CONFTEST)
    pytester.makepyfile(
        """
        from repro.obs import Observation
        from repro.obs import profile as obs_profile
        from repro.obs import runtime as obs_runtime


        def test_leaks_an_observation():
            obs_runtime.activate(Observation())


        def test_leaks_a_profiler():
            obs_profile.activate(obs_profile.PhaseProfiler())
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    # The bodies pass; the guard's teardown assertion reports the leaks.
    result.assert_outcomes(passed=2, errors=2)
    result.stdout.fnmatch_lines(["*leaked an active observation or profiler*"])
    assert obs_runtime.active() is None and obs_profile.active() is None


def test_clean_test_passes_under_the_guard(pytester):
    pytester.makeconftest(GUARD_CONFTEST)
    pytester.makepyfile(
        """
        from repro.obs import profile as obs_profile
        from repro.obs import runtime as obs_runtime


        def test_uses_context_managers():
            with obs_runtime.observing():
                pass
            with obs_profile.profiling():
                pass
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1)
