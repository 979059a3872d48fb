"""Elastic re-brokering under spot reclaims: the §VII.D Table II extension."""

import json
import math

import pytest

from repro.broker.assembly import (
    ELASTIC_ACTIONS,
    BrokerRequest,
    ElasticBroker,
    render_elastic_report,
    volatile_market_request,
)
from repro.errors import BrokerError, CostModelError
from repro.perfmodel.resilience import expected_cost_to_go


@pytest.fixture(scope="module")
def report():
    """The volatile-market acceptance scenario, run once per module."""
    return ElasticBroker(volatile_market_request()).run()


class TestVolatileMarketAcceptance:
    """Extends Table II (§VII.D): the elastic row must beat both static plans."""

    def test_elastic_beats_both_static_baselines(self, report):
        assert report.met_deadline
        assert report.cost_dollars < report.static_all_spot_cost
        assert report.cost_dollars < report.static_on_demand_cost
        assert report.beats_baselines

    def test_market_actually_volatile(self, report):
        # The scenario is only meaningful if reclaims fire and the
        # broker re-plans: at least one non-trivial action taken.
        assert report.decisions
        actions = {d.action for d in report.decisions}
        assert actions <= set(ELASTIC_ACTIONS)
        assert actions - {"continue-degraded"}

    def test_rigid_baseline_shares_the_reclaim_trajectory(self, report):
        # Rigid all-spot faces the same realization, so it cannot be
        # cheaper than failure-free pricing of the same assembly.
        scenario_hours = report.static_all_spot_wall_hours
        assert scenario_hours > report.static_on_demand_wall_hours
        assert report.static_all_spot_cost > 0

    def test_every_decision_scores_all_three_actions(self, report):
        for decision in report.decisions:
            assert tuple(o.action for o in decision.options) == ELASTIC_ACTIONS
            assert decision.chosen.action == decision.action

    def test_chosen_option_is_cheapest_deadline_meeting(self, report):
        for decision in report.decisions:
            meeting = [o for o in decision.options if o.meets_deadline]
            assert meeting, "scenario is tuned so some option always meets"
            best = min(o.expected_dollars for o in meeting)
            assert decision.chosen.expected_dollars == best

    def test_deterministic_in_the_seed(self, report):
        again = ElasticBroker(volatile_market_request()).run()
        assert again.cost_dollars == report.cost_dollars
        assert again.wall_hours == report.wall_hours
        assert [d.to_dict() for d in again.decisions] == [
            d.to_dict() for d in report.decisions
        ]

    def test_seed_7_decisions_and_cost_are_pinned(self, report):
        """The committed outcome of the seed-7 scenario: four reclaims,
        each answered by shrinking, at 0.80x the rigid all-spot dollars
        (the bound allows 5% drift, as the old trajectory check did)."""
        assert report.request.seed == 7
        assert [d.action for d in report.decisions] == ["shrink"] * 4
        ratio = report.cost_dollars / report.static_all_spot_cost
        assert ratio <= 0.8045021561297919 * 1.05

    def test_report_to_dict_json_roundtrip(self, report):
        clone = json.loads(json.dumps(report.to_dict()))
        assert clone["beats_baselines"] is True
        assert clone["met_deadline"] is True
        assert len(clone["decisions"]) == len(report.decisions)
        option = clone["decisions"][0]["options"][0]
        assert set(option) == {
            "action", "expected_wall_h", "expected_dollars",
            "meets_deadline", "spot_nodes", "ondemand_nodes",
        }

    def test_render_shows_decision_log_and_verdict(self, report):
        text = render_elastic_report(report)
        assert "elastic broker:" in text
        assert "deadline" in text
        assert "elastic beats both static baselines" in text
        for decision in report.decisions:
            assert f"event {decision.event}" in text
            assert decision.action in text


class TestTotalReclaim:
    def test_losing_every_spot_node_forces_migration(self):
        request = BrokerRequest(
            app="rd", num_ranks=64, num_iterations=1000,
            spot_spike_probability=1.0, seed=1,
        )
        report = ElasticBroker(request).run()
        assert report.decisions[0].survivors == 0
        assert report.decisions[0].action == "migrate-and-expand"
        assert report.final_spot_nodes == 0
        assert report.final_ondemand_nodes == report.nodes
        assert report.met_deadline  # no deadline set
        # The rigid all-spot job lost every node: it never finishes.
        assert math.isinf(report.static_all_spot_cost)
        assert math.isinf(report.static_all_spot_wall_hours)
        assert "never finishes" in render_elastic_report(report)


class TestBrokerValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(BrokerError, match="interval_hours"):
            ElasticBroker(volatile_market_request(), interval_hours=0.0)

    def test_unknown_rigid_policy_rejected(self):
        broker = ElasticBroker(volatile_market_request())
        with pytest.raises(BrokerError, match="unknown elastic policy"):
            broker._simulate("scale-out", 8, 3600.0, 8, emit=False)

    def test_decision_option_lookup(self, report):
        decision = report.decisions[0]
        assert decision.option("shrink").action == "shrink"
        with pytest.raises(BrokerError, match="no option"):
            decision.option("abort")


class TestExpectedCostToGo:
    OD = dict(
        spot_nodes=0, ondemand_nodes=2,
        spot_node_hourly=0.54, ondemand_node_hourly=2.40,
        spike_probability_per_hour=0.12,
        checkpoint_seconds=30.0, restart_seconds=120.0,
    )

    def test_pure_on_demand_is_plain_arithmetic(self):
        togo = expected_cost_to_go(7200.0, 2.0, **self.OD)
        assert togo["feasible"]
        assert togo["tau_seconds"] is None  # no exposure, no checkpoints
        assert togo["wall_seconds"] == pytest.approx(3600.0)
        assert togo["dollars"] == pytest.approx(2 * 2.40)

    def test_switch_seconds_is_a_billed_stall(self):
        base = expected_cost_to_go(7200.0, 2.0, **self.OD)
        moved = expected_cost_to_go(7200.0, 2.0, switch_seconds=600.0, **self.OD)
        assert moved["wall_seconds"] == pytest.approx(
            base["wall_seconds"] + 600.0
        )
        assert moved["dollars"] > base["dollars"]

    def test_spot_exposure_inflates_the_wall(self):
        exposed = expected_cost_to_go(
            7200.0, 2.0, spot_nodes=2, ondemand_nodes=0,
            spot_node_hourly=0.54, ondemand_node_hourly=2.40,
            spike_probability_per_hour=0.12,
            checkpoint_seconds=30.0, restart_seconds=120.0,
        )
        assert exposed["feasible"]
        assert exposed["tau_seconds"] is not None
        assert exposed["wall_seconds"] > 3600.0

    def test_zero_rate_is_infeasible_not_an_error(self):
        togo = expected_cost_to_go(7200.0, 0.0, **self.OD)
        assert not togo["feasible"]
        assert math.isinf(togo["dollars"])
        assert math.isinf(togo["wall_seconds"])

    def test_negative_work_raises(self):
        with pytest.raises(CostModelError, match="remaining work"):
            expected_cost_to_go(-1.0, 2.0, **self.OD)


class TestObservability:
    def test_replan_rows_stream_to_jsonl(self, tmp_path):
        from repro.obs.core import ObsConfig, Observability

        hub = Observability(ObsConfig(out_dir=tmp_path))
        ElasticBroker(volatile_market_request(), obs=hub).run()
        stream = tmp_path / "stream.jsonl"
        assert stream.exists()
        rows = [json.loads(line) for line in stream.read_text().splitlines()]
        replans = [r for r in rows if r.get("kind") == "replan"]
        summaries = [r for r in rows if r.get("kind") == "replan_summary"]
        assert replans
        assert len(summaries) == 1
        assert summaries[0]["events"] == len(replans)
        for row in replans:
            assert row["action"] in ELASTIC_ACTIONS
            assert row["survivors"] >= 0


class TestCli:
    def test_broker_elastic_json(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["broker", "--elastic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beats_baselines"] is True
        assert payload["met_deadline"] is True
        assert payload["request"]["num_ranks"] == 128
        assert payload["decisions"]

    def test_broker_elastic_text_verdict(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["broker", "--elastic"]) == 0
        out = capsys.readouterr().out
        assert "elastic beats both static baselines" in out
