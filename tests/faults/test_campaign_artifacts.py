"""Tests for the campaign artifact layer: JSON round-trip, checkpoints,
resume, and parallel parity under generic tier names."""

import multiprocessing
import pickle

import pytest

from repro.faults import (
    CampaignResult,
    DetectionRecord,
    FaultCampaign,
    FaultKind,
    StructuralFault,
)


def F(dev, kind=FaultKind.DRAIN_OPEN, block="cp", role=""):
    return StructuralFault(dev, kind, block, role)


def make_universe(n=8):
    kinds = list(FaultKind)
    return [F(f"d{i}", kinds[i % len(kinds)]) for i in range(n)]


def make_campaign(strict_numerics=False):
    """Two generically named tiers, one of which raises on one fault."""
    campaign = FaultCampaign(strict_numerics=strict_numerics)
    campaign.add_tier("alpha", lambda f: f.device in ("d0", "d3"))

    def beta(fault):
        if fault.device == "d2":
            raise RuntimeError("sim exploded")
        return fault.kind.is_short

    campaign.add_tier("beta", beta)
    return campaign


class TestJsonRoundTrip:
    def test_round_trip_equality(self):
        result = make_campaign().run(make_universe())
        back = CampaignResult.from_json(result.to_json())
        assert back.tier_order == result.tier_order
        assert back.records == result.records

    def test_round_trip_preserves_errors(self):
        result = make_campaign().run(make_universe())
        erred = [r for r in result.records if r.errors]
        assert erred, "fixture should produce a detector error"
        back = CampaignResult.from_json(result.to_json())
        erred_back = [r for r in back.records if r.errors]
        assert erred_back == erred
        assert erred_back[0].errors[0][0] == "beta"

    def test_save_load_file(self, tmp_path):
        result = make_campaign().run(make_universe())
        path = str(tmp_path / "result.json")
        result.save(path)
        assert CampaignResult.load(path).records == result.records

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            CampaignResult.from_json('{"format": "something-else"}')


class TestDetectionRecordField:
    def test_errors_default_to_empty_list(self):
        rec = DetectionRecord(F("x"))
        assert rec.errors == []

    def test_errors_survive_pickling(self):
        """Records come back from forked workers pickled; the errors
        field must ride along rather than being bolted on afterwards."""
        rec = DetectionRecord(F("x"), tiers={"dc": True},
                              errors=[("scan", "RuntimeError('boom')")])
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        assert back.errors == [("scan", "RuntimeError('boom')")]

    def test_generic_tier_flags(self):
        rec = DetectionRecord(F("x"), tiers={"delay_scan": True})
        assert rec.hit("delay_scan")
        assert not rec.hit("dc")
        assert rec.detected
        assert rec.first_tier() == "delay_scan"


class TestCheckpointResume:
    def test_resume_skips_already_evaluated(self, tmp_path):
        universe = make_universe()
        ckpt = str(tmp_path / "camp.ckpt")
        calls = []

        def counting(fault):
            calls.append(fault.device)
            return fault.device == "d1"

        campaign = FaultCampaign()
        campaign.add_tier("only", counting)
        # first run covers half the universe (in-process, so the
        # calls are counted here)
        first = campaign.run(universe[:4], workers=1, checkpoint=ckpt)
        assert len(calls) == 4
        # second run over the full universe only evaluates the rest
        full = campaign.run(universe, workers=1, checkpoint=ckpt)
        assert len(calls) == 8
        assert [r.fault for r in full.records] == universe
        assert first.records == full.records[:4]

    def test_resumed_equals_uninterrupted(self, tmp_path):
        universe = make_universe()
        ckpt = str(tmp_path / "camp.ckpt")
        interrupted = make_campaign()
        interrupted.run(universe[:3], checkpoint=ckpt)
        resumed = make_campaign().run(universe, checkpoint=ckpt)
        uninterrupted = make_campaign().run(universe)
        assert resumed.records == uninterrupted.records
        assert resumed.tier_order == uninterrupted.tier_order

    def test_complete_checkpoint_is_a_noop_rerun(self, tmp_path):
        universe = make_universe()
        ckpt = str(tmp_path / "camp.ckpt")
        calls = []

        campaign = FaultCampaign()
        campaign.add_tier("only", lambda f: calls.append(f) or False)
        campaign.run(universe, checkpoint=ckpt)
        n_first = len(calls)
        again = campaign.run(universe, checkpoint=ckpt)
        assert len(calls) == n_first     # nothing re-simulated
        assert len(again.records) == len(universe)

    def test_progress_counts_skipped_as_done(self, tmp_path):
        universe = make_universe(4)
        ckpt = str(tmp_path / "camp.ckpt")
        campaign = FaultCampaign()
        campaign.add_tier("only", lambda f: False)
        campaign.run(universe[:2], checkpoint=ckpt)
        seen = []
        campaign.run(universe, checkpoint=ckpt,
                     progress=lambda i, n: seen.append((i, n)))
        assert seen == [(3, 4), (4, 4)]

    def test_tier_pipeline_mismatch_rejected(self, tmp_path):
        universe = make_universe(2)
        ckpt = str(tmp_path / "camp.ckpt")
        make_campaign().run(universe, checkpoint=ckpt)
        other = FaultCampaign()
        other.add_tier("gamma", lambda f: True)
        with pytest.raises(ValueError):
            other.run(universe, checkpoint=ckpt)

    def test_default_header_carries_no_strict_field(self, tmp_path):
        ckpt = str(tmp_path / "camp.ckpt")
        make_campaign().run(make_universe(2), checkpoint=ckpt)
        with open(ckpt) as fh:
            assert fh.readline() == (
                '{"format": "repro-campaign-checkpoint", "version": 1, '
                '"tier_order": ["alpha", "beta"]}\n')

    @pytest.mark.parametrize("wrote,runs", [(True, False), (False, True)])
    def test_strict_numerics_mismatch_rejected(self, tmp_path, wrote, runs):
        """Records settled under one numerics policy never resume under
        the other: a strict checkpoint refuses a default run and vice
        versa."""
        universe = make_universe(3)
        ckpt = str(tmp_path / "camp.ckpt")
        make_campaign(strict_numerics=wrote).run(universe[:2],
                                                 checkpoint=ckpt)
        with open(ckpt) as fh:
            assert ('"strict_numerics": true' in fh.readline()) == wrote
        with pytest.raises(ValueError, match="strict_numerics"):
            make_campaign(strict_numerics=runs).run(universe,
                                                    checkpoint=ckpt)
        resumed = make_campaign(strict_numerics=wrote).run(
            universe, checkpoint=ckpt)
        assert len(resumed.records) == 3

    def test_truncated_tail_is_discarded(self, tmp_path):
        universe = make_universe(4)
        ckpt = str(tmp_path / "camp.ckpt")
        campaign = FaultCampaign()
        campaign.add_tier("only", lambda f: True)
        campaign.run(universe, checkpoint=ckpt)
        with open(ckpt) as fh:
            lines = fh.readlines()
        with open(ckpt, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        rerun = campaign.run(universe, checkpoint=ckpt)
        assert all(r.hit("only") for r in rerun.records)
        assert len(rerun.records) == 4


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel campaign path requires fork")
class TestParallelGenericTiers:
    def test_workers_match_serial_with_generic_names(self):
        universe = make_universe(10)
        serial = make_campaign().run(universe)
        parallel = make_campaign().run(universe, workers=2)
        assert parallel.records == serial.records
        assert parallel.tier_order == serial.tier_order == ("alpha", "beta")

    def test_parallel_checkpoint_then_serial_resume(self, tmp_path):
        universe = make_universe(10)
        ckpt = str(tmp_path / "camp.ckpt")
        first = make_campaign().run(universe[:6], workers=2,
                                    checkpoint=ckpt)
        resumed = make_campaign().run(universe, checkpoint=ckpt)
        assert resumed.records[:6] == first.records
        assert resumed.records == make_campaign().run(universe).records
