"""The timing-protocol statistics: warm-up discard, medians, and the
kept-sample count.

The regression pinned here: ``runs=2`` with the warm-up discard leaves
a single sample, which used to be reported as a "median" with nothing
saying so — now every median travels with how many samples it
summarizes, and an empty sample list is a loud error instead of a
silent invention.
"""

import pytest

from repro.perf import PhaseTimes, kept_samples, median_report


def sample(value: float) -> PhaseTimes:
    return PhaseTimes(p1=value, p2=value * 2, p3=value * 3)


class TestKeptSamples:
    def test_discard_drops_exactly_the_first(self):
        samples = [sample(9.0), sample(1.0), sample(2.0)]
        assert kept_samples(samples) == [sample(1.0), sample(2.0)]

    def test_single_sample_is_never_discarded_away(self):
        assert kept_samples([sample(1.0)]) == [sample(1.0)]

    def test_no_discard_keeps_everything(self):
        samples = [sample(9.0), sample(1.0)]
        assert kept_samples(samples, discard_first=False) == samples


class TestMedianReport:
    def test_median_over_kept_samples(self):
        samples = [sample(9.0), sample(1.0), sample(2.0), sample(3.0)]
        times, kept = median_report(samples)
        assert kept == 3
        assert times.p1 == 2.0  # median of 1, 2, 3 — the warm-up 9 is gone

    def test_runs_2_reports_single_kept_sample(self):
        # The paper's protocol with runs=2: discard the first, "median"
        # the one remaining sample. The count says exactly that.
        times, kept = median_report([sample(9.0), sample(4.0)])
        assert kept == 1
        assert times.p1 == 4.0

    def test_runs_1_keeps_its_only_sample(self):
        times, kept = median_report([sample(5.0)])
        assert kept == 1
        assert times.p1 == 5.0

    def test_empty_samples_raise_instead_of_inventing(self):
        with pytest.raises(ValueError, match="no timing samples"):
            median_report([])
