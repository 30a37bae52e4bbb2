"""Every suite function's profiling folds the same pattern per segment as
per page.

For every function of ``SUITE``, ``EXTENDED_SUITE`` and ``FLEET_SUITE``,
``TossSystem`` profiles to convergence.  Each DAMON file the controller
folds into its :class:`~repro.profiling.unified.UnifiedAccessPattern` is
folded into the per-page reference (``tests/unified_oracle.py``) too.
After every update the two must report the same change, convergence and
stable count.  Every ``regions()`` query the analysis makes must return the
same regions as the reference's, value bits included, and so must the
default query once profiling has converged.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.baselines.toss_system import TossSystem
from repro.cluster import FLEET_SUITE
from repro.experiments.common import CONVERGENCE_WINDOW
from repro.functions import EXTENDED_SUITE, SUITE
from repro.profiling.unified import UnifiedAccessPattern

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from unified_oracle import PerPagePattern  # noqa: E402

FUNCTIONS = SUITE + EXTENDED_SUITE + FLEET_SUITE


def _bits(regions):
    return [(r.start_page, r.n_pages, float.hex(r.value)) for r in regions]


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.name)
def test_profiling_folds_match_the_per_page_pattern(function, monkeypatch):
    references: dict[int, PerPagePattern] = {}
    folds = []
    update, regions = UnifiedAccessPattern.update, UnifiedAccessPattern.regions

    def checked_update(self, snapshot):
        reference = references.setdefault(
            id(self), PerPagePattern(self.n_pages, convergence_window=self.convergence_window)
        )
        changed = update(self, snapshot)
        assert changed == reference.update(snapshot)
        assert self.converged == reference.converged
        assert self.stable_invocations == reference.stable_invocations
        folds.append(self)
        return changed

    def checked_regions(self, **kwargs):
        got = regions(self, **kwargs)
        assert _bits(got) == _bits(references[id(self)].regions(**kwargs))
        return got

    monkeypatch.setattr(UnifiedAccessPattern, "update", checked_update)
    monkeypatch.setattr(UnifiedAccessPattern, "regions", checked_regions)
    system = TossSystem(function, convergence_window=CONVERGENCE_WINDOW)
    pattern = system.controller.pattern
    assert folds and all(p is pattern for p in folds)
    assert pattern.converged
    checked_regions(pattern)
