"""Unit tests for the streaming measures added by the observability PR.

Pins the ``latency_percentile`` fix (matched-only is a *conditional*
statistic; the expiry-adjusted variant charges expiries as infinite
latency), the ``update()`` event protocol, and the tracer-derived phase
breakdowns on :class:`FlushRecord` / :class:`StreamStats`.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.stream.events import Assignment
from repro.stream.metrics import FlushRecord, StreamStats


def flush_record(index=0, **overrides):
    defaults = dict(
        index=index,
        time=0.1 * (index + 1),
        pending_tasks=1,
        idle_workers=2,
        matched=1,
        solver_seconds=0.001,
        cumulative_privacy_spend=0.5 * (index + 1),
    )
    defaults.update(overrides)
    return FlushRecord(**defaults)


class TestExpiryAdjustedPercentile:
    def test_matched_only_percentile_is_unchanged_by_expiries(self):
        stats = StreamStats("UCE")
        stats.latencies = [0.1, 0.2, 0.3, 0.4]
        stats.expired = 100
        assert stats.latency_p95 == pytest.approx(
            float(np.percentile(stats.latencies, 95))
        )

    def test_high_expiry_deflation_is_fixed_by_the_adjusted_variant(self):
        # 60% of resolved tasks expired: matched-only p95 looks tiny,
        # the adjusted p95 says the truth — the 95th task never finished
        stats = StreamStats("UCE")
        stats.latencies = [0.1, 0.2, 0.3, 0.4]
        stats.expired = 6
        assert stats.latency_percentile(95) <= 0.4
        assert stats.expiry_adjusted_percentile(95) == math.inf

    def test_matches_numpy_with_inf_padding_in_the_matched_mass(self):
        stats = StreamStats("UCE")
        stats.latencies = [0.3, 0.1, 0.5, 0.2, 0.4]
        stats.expired = 3
        padded = sorted(stats.latencies) + [math.inf] * stats.expired
        for q in (0, 10, 25, 50, 62.5):
            expected = float(np.percentile(padded, q))
            assert stats.expiry_adjusted_percentile(q) == pytest.approx(expected)

    def test_interpolation_into_the_expired_mass_is_inf_not_nan(self):
        stats = StreamStats("UCE")
        stats.latencies = [0.1, 0.2]
        stats.expired = 2
        # q=50 interpolates between the last matched value and inf
        assert stats.expiry_adjusted_percentile(50) == math.inf
        # q deep inside the expired mass (numpy would give nan: inf-inf)
        assert stats.expiry_adjusted_percentile(90) == math.inf

    def test_no_expiries_means_both_variants_agree(self):
        stats = StreamStats("UCE")
        stats.latencies = [0.4, 0.1, 0.3]
        for q in (0, 50, 95, 100):
            assert stats.expiry_adjusted_percentile(q) == pytest.approx(
                stats.latency_percentile(q)
            )

    def test_empty_stats_report_zero(self):
        stats = StreamStats("UCE")
        assert stats.latency_percentile(95) == 0.0
        assert stats.expiry_adjusted_percentile(95) == 0.0
        stats.expired = 5
        assert stats.expiry_adjusted_percentile(95) == math.inf

    def test_bad_percentile_rejected(self):
        stats = StreamStats("UCE")
        with pytest.raises(ConfigurationError):
            stats.expiry_adjusted_percentile(101)


class TestUpdateProtocol:
    def test_update_dispatches_flush_records(self):
        stats = StreamStats("UCE")
        stats.update(flush_record(0, cache_hit=True))
        assert len(stats.flushes) == 1
        assert stats.cache_hits == 1
        assert stats.online.expiry.count == 1

    def test_update_dispatches_assignments(self):
        stats = StreamStats("UCE")
        stats.update(
            Assignment(
                time=0.5, flush_index=0, task_id=1, worker_id=2,
                distance=0.1, utility=3.0, latency=0.25, method="UCE",
            )
        )
        assert stats.latencies == [0.25]
        assert stats.online.latency.count == 1

    def test_update_rejects_unknown_events(self):
        with pytest.raises(ConfigurationError, match="unknown stream stats event"):
            StreamStats("UCE").update("not an event")

    def test_throughput_skips_cache_served_flushes(self):
        stats = StreamStats("UCE")
        stats.update(flush_record(0, matched=10, solver_seconds=0.01, cache_hit=False))
        before = stats.online.throughput.count
        stats.update(flush_record(1, matched=10, solver_seconds=1e-7, cache_hit=True))
        assert stats.online.throughput.count == before


class TestPhaseBreakdowns:
    def test_flush_record_top_phase(self):
        record = flush_record(0, phase_seconds={"solve": 0.7, "build": 0.2, "commit": 0.1})
        assert record.top_phase == "solve 70%"
        assert flush_record(1).top_phase == "-"
        assert flush_record(2, phase_seconds={}).top_phase == "-"

    def test_stats_phase_totals_sum_across_flushes(self):
        stats = StreamStats("UCE")
        stats.update(flush_record(0, phase_seconds={"solve": 0.5, "build": 0.1}))
        stats.update(flush_record(1, phase_seconds={"solve": 0.2, "commit": 0.3}))
        stats.update(flush_record(2))  # untraced flush contributes nothing
        assert stats.phase_totals == pytest.approx(
            {"solve": 0.7, "build": 0.1, "commit": 0.3}
        )
        assert stats.top_phase == "solve 64%"

    def test_untraced_run_top_phase_is_dash(self):
        stats = StreamStats("UCE")
        stats.update(flush_record(0))
        assert stats.top_phase == "-"


class TestPlanSummary:
    def test_plan_summary_counts_by_first_seen_mode(self):
        stats = StreamStats(method="UCE")
        for index, mode in enumerate(["uns", "uns", "seq", "uns"]):
            stats.flushes.append(flush_record(index, planned_mode=mode))
        assert stats.plan_summary == "uns:3 seq:1"
        assert StreamStats(method="UCE").plan_summary == "-"
