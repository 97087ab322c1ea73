"""Sharding and merge-on-read: byte parity with unsharded runs.

``shard_ranges`` is pinned as an exact partition; the three job kinds
are pinned end-to-end: an N-shard run merged from its per-shard
checkpoints must serialize byte-identically to the direct (unsharded)
campaign of the same spec.  Merge failure modes — a missing item, a
diverging duplicate — must be loud, never a silently deflated result.
"""

import json

import pytest

from repro.faults import (CampaignResult, FaultCampaign, FaultKind,
                          StructuralFault)
from repro.service.shard import build_job, shard_ranges
from repro.service.spec import CampaignSpec


class TestShardRanges:
    def test_exact_partition(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_even_split(self):
        assert shard_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_single_shard(self):
        assert shard_ranges(5, 1) == [(0, 5)]

    def test_more_shards_than_items_clamps(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert shard_ranges(0, 4) == [(0, 0)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(4, 0)

    @pytest.mark.parametrize("items,shards", [(7, 3), (100, 16), (9, 9)])
    def test_partition_property(self, items, shards):
        ranges = shard_ranges(items, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == items
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1


def F(dev, kind=FaultKind.DRAIN_OPEN):
    return StructuralFault(dev, kind, "cp", "")


def synthetic_campaign():
    campaign = FaultCampaign()
    campaign.add_tier("alpha", lambda f: f.device in ("d0", "d3"))
    campaign.add_tier("beta", lambda f: f.kind.is_short)
    return campaign


class TestMergeCheckpoints:
    """Merge-on-read through the campaign's checkpoint type, on a
    synthetic campaign."""

    def setup_method(self):
        kinds = list(FaultKind)
        self.universe = [F(f"d{i}", kinds[i % len(kinds)])
                         for i in range(10)]
        self.keys = [f.key() for f in self.universe]

    def _shard_files(self, tmp_path, ranges, campaign=synthetic_campaign):
        paths = []
        for i, (lo, hi) in enumerate(ranges):
            path = str(tmp_path / f"shard-{i}.jsonl")
            campaign().run(self.universe[lo:hi], checkpoint=path)
            paths.append(path)
        return paths

    def _merge(self, paths, campaign=None):
        campaign = campaign or synthetic_campaign()
        records = campaign.checkpoints.merge(paths, self.keys)
        return CampaignResult(records, campaign.tier_names)

    def test_merged_equals_direct(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 3))
        merged = self._merge(paths)
        direct = synthetic_campaign().run(self.universe)
        assert merged.records == direct.records
        assert merged.to_json(indent=2) == direct.to_json(indent=2)

    def test_shard_file_order_is_irrelevant(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 3))
        merged = self._merge(list(reversed(paths)))
        direct = synthetic_campaign().run(self.universe)
        assert merged.records == direct.records

    def test_missing_items_are_loud(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 3)[:-1])
        with pytest.raises(ValueError, match="missing"):
            self._merge(paths)

    def test_diverging_duplicate_is_loud(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 2))
        # make shard 1 also claim shard 0's first fault, with a
        # different verdict: two shards disagreeing must abort the merge
        first = json.loads(open(paths[0]).read().splitlines()[1])
        first["tiers"] = {"alpha": True, "beta": True} \
            if not first["tiers"] else {}
        with open(paths[1], "a") as fh:
            fh.write(json.dumps(first) + "\n")
        with pytest.raises(ValueError, match="diverges"):
            self._merge(paths)

    def test_agreeing_duplicate_is_fine(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 2))
        first = open(paths[0]).read().splitlines()[1]
        with open(paths[1], "a") as fh:
            fh.write(first + "\n")
        merged = self._merge(paths)
        assert len(merged.records) == 10

    def test_tier_mismatch_is_loud(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 2))
        narrow = FaultCampaign()
        narrow.add_tier("alpha", lambda f: True)
        with pytest.raises(ValueError, match="tier_order"):
            self._merge(paths, narrow)

    def test_collapse_mismatch_is_loud(self, tmp_path):
        """A shard checkpoint written while collapsing was a knob
        records the policy in its header; the merge refuses it."""
        paths = self._shard_files(tmp_path, shard_ranges(10, 2))
        lines = open(paths[1]).read().splitlines(keepends=True)
        header = dict(json.loads(lines[0]), collapse="on")
        with open(paths[1], "w") as fh:
            fh.write(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match="collapse"):
            self._merge(paths)

    def test_corrupted_shard_is_loud(self, tmp_path):
        paths = self._shard_files(tmp_path, shard_ranges(10, 2))
        lines = open(paths[0]).read().splitlines(keepends=True)
        lines[1] = "not-json\n"
        with open(paths[0], "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="corrupted"):
            self._merge(paths)

    def test_mc_config_mismatch_is_loud(self, tmp_path):
        from repro.variation import MonteCarloCampaign

        class _Stub:
            name = "stub"

            def applies_to(self, fault):
                return True

            def detect(self, fault):
                return True

        def campaign(seed):
            return MonteCarloCampaign(tiers=[_Stub()], seed=seed,
                                      universe=self.universe)

        path = str(tmp_path / "mc.jsonl")
        campaign(7).run(2, checkpoint=path)
        assert [r.die for r in
                campaign(7).checkpoints.merge([path], range(2))] == [0, 1]
        with pytest.raises(ValueError, match="config.seed"):
            campaign(8).checkpoints.merge([path], range(2))


class TestJobParity:
    """End-to-end: each kind's sharded merge equals the direct run."""

    def test_campaign_job_parity(self, tmp_path):
        from repro.dft.coverage import build_fault_universe
        from repro.dft.golden import GoldenSignatures
        from repro.dft.registry import create_tiers
        from repro.faults.sampling import stratified_sample

        spec = CampaignSpec(kind="campaign", sample=6, seed=2016)
        job = build_job(spec)
        paths = []
        for i, (lo, hi) in enumerate(shard_ranges(job.items, 3)):
            path = str(tmp_path / f"c{i}.jsonl")
            job.run_shard(lo, hi, path)
            paths.append(path)
        merged = job.merge(paths)

        universe = stratified_sample(build_fault_universe(), 6,
                                     seed=2016)
        campaign = FaultCampaign()
        for tier in create_tiers(("dc", "scan", "bist"),
                                 GoldenSignatures()):
            campaign.add_tier(tier)
        direct = campaign.run(universe)
        assert json.dumps(merged, indent=2) == direct.to_json(indent=2)

    def test_mc_job_parity(self, tmp_path):
        from repro.analog.corners import get_corner
        from repro.variation import MismatchModel, MonteCarloCampaign

        spec = CampaignSpec(kind="mc", dies=5, seed=7)
        job = build_job(spec)
        paths = []
        for i, (lo, hi) in enumerate(shard_ranges(job.items, 2)):
            path = str(tmp_path / f"m{i}.jsonl")
            job.run_shard(lo, hi, path)
            paths.append(path)
        merged = job.merge(paths)

        direct = MonteCarloCampaign(
            tiers=("dc", "scan", "bist"), corner=get_corner("TT"),
            model=MismatchModel(sigma_vt=5.0e-3, sigma_kp_rel=0.02),
            seed=7).run(5)
        assert json.dumps(merged, indent=2) == direct.to_json(indent=2)

    def test_patterns_job_parity(self, tmp_path):
        from repro.patterns.campaign import PatternCampaign

        spec = CampaignSpec(kind="patterns", sample=6)
        job = build_job(spec)
        paths = []
        for i, (lo, hi) in enumerate(shard_ranges(job.items, 3)):
            path = str(tmp_path / f"p{i}.jsonl")
            job.run_shard(lo, hi, path)
            paths.append(path)
        merged = job.merge(paths)

        direct = PatternCampaign().run(sample=6)
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(direct.to_dict(), sort_keys=True)

    def test_mc_die_sequence_matches_range_slice(self):
        """The purity contract die-range sharding rests on: running a
        die subsequence reproduces the same records as the full run."""
        from repro.analog.corners import get_corner
        from repro.variation import MismatchModel, MonteCarloCampaign

        def campaign():
            return MonteCarloCampaign(
                tiers=("dc",), corner=get_corner("TT"),
                model=MismatchModel(sigma_vt=5.0e-3,
                                    sigma_kp_rel=0.02), seed=11)

        full = campaign().run(4)
        tail = campaign().run([2, 3])
        assert [r.to_dict() for r in tail.records] == \
            [r.to_dict() for r in full.records[2:]]
