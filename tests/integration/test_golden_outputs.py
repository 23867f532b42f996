"""Golden outputs: the dispatch results of every shipped scenario, pinned.

Each case replays a scenario through one :class:`DispatchSession` per
method and hashes what the run decided: the arrived / assigned / expired
/ leftover counts, the exact ``repr`` of the utility and privacy-spend
totals, the per-flush matched counts and the assignment log as
``(flush_index, task_id, worker_id)``.  The digests must never move:
any change to flush execution, cut handling or option plumbing that
perturbs one noise draw or one tie-break shows up here as a digest
mismatch.

The shipped ``examples/scenario_*.json`` files run with shortened
horizons (seconds, not minutes).  ``dense_city`` mirrors the big-flush
benchmark workload (PUCE + PGT over a sliding window) at a short
horizon; its flushes cut into several conflict-free units, so it pins
the per-unit noise schedule rather than only the single-unit fast path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api.options import SolveOptions
from repro.api.scenario import ScenarioSpec
from repro.api.session import DispatchSession, SessionConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Shipped scenario -> replay horizon.
HORIZONS = {
    "churn": 1.5,
    "duty_cycle": 1.5,
    "long_horizon": 12.0,
    "rush_hour": 1.5,
}

DENSE_CITY = ScenarioSpec(
    name="dense_city",
    arrivals="poisson",
    dataset="normal",
    horizon=0.6,
    task_rate=400.0,
    worker_rate=20.0,
    initial_workers=600,
    task_deadline=1.0,
    worker_range=2.5,
    methods=("PUCE", "PGT"),
    options=SolveOptions(
        seed=7,
        max_batch_size=300,
        max_wait=0.1,
        cache=True,
        window_seconds=1.0,
        window_budget=10.0,
    ),
)

GOLDEN = {
    "churn": {
        "UCE": "e4a7cfd06d094b40bfe5e3d8ed83b42a3a75b5b061e31f0d8b3ee8500ba38fed",
        "PUCE": "91d09ec45153485bb9ee6e02c2ec46e0dec3c581111a41fcc22672c3ba1a99d8",
    },
    "duty_cycle": {
        "UCE": "eed2cdcb7de5c3a09066735331a910ddf9a266862262dfec6c422594dab0d61f",
        "PUCE": "47b26b6ec9f0dc7036904235e96d9cac4cfb35edb1a97504bc0749a7c486157b",
    },
    "long_horizon": {
        "PUCE": "c20858a6ce664de38277473e5fa1cd3752bee2581486ca1958598fbde49fb8e5",
    },
    "rush_hour": {
        "PUCE": "f8ad4c0c92b68e94234fc02cb54125cd69b1040fbb192a09a850e96192baf719",
        "PDCE-nppcf": "cc145c4d33dc88c29f7fdf95eb91ca4ed81f97e405149691ae0978b3d735f33b",
        "UCE": "54a9f83c4d4d7dd588c7ab6a58a628f5d006b2d6ec1381c253a53c2f701ede62",
    },
    "dense_city": {
        "PUCE": "04e6788a4de5987433a9f9dd488d90e866a8081ead722d55cc3c9a1d71a88b09",
        "PGT": "75862a3b2ffa046aa718d72d1ebdae8647e89f6d8dd1c431adc779ef4d72fad1",
    },
}


def outcome_digest(stats, log) -> str:
    payload = [
        stats.arrived_tasks,
        stats.assigned,
        stats.expired,
        stats.leftover,
        repr(stats.total_utility),
        repr(stats.total_privacy_spend),
        [flush.matched for flush in stats.flushes],
        [[a.flush_index, a.task_id, a.worker_id] for a in log],
    ]
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def replay(spec: ScenarioSpec) -> dict[str, tuple[str, list]]:
    """Per method: the outcome digest and the run's flush records."""
    events = spec.to_workload().events(seed=spec.options.seed)
    outcomes = {}
    for method in spec.methods:
        session = DispatchSession(method, SessionConfig(options=spec.options))
        stats = session.run(events)
        outcomes[stats.method] = (outcome_digest(stats, session.drain()), stats.flushes)
    return outcomes


def scenario(name: str) -> ScenarioSpec:
    if name == "dense_city":
        return DENSE_CITY
    spec = ScenarioSpec.from_file(EXAMPLES / f"scenario_{name}.json")
    return dataclasses.replace(spec, horizon=HORIZONS[name])


def test_every_shipped_scenario_is_pinned():
    shipped = {path.stem.removeprefix("scenario_") for path in EXAMPLES.glob("scenario_*.json")}
    assert shipped == set(HORIZONS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    outcomes = replay(scenario(name))
    assert {method: digest for method, (digest, _) in outcomes.items()} == GOLDEN[name]


def test_dense_city_flushes_cut_into_several_units():
    for _, flushes in replay(DENSE_CITY).values():
        assert max(flush.shards for flush in flushes) > 1
