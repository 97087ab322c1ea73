"""Tests for the campaign spec's content address and the result store.

The cache contract: a resubmitted spec hits if and only if nothing
result-determining changed.  Every key component — netlist digest,
tier list, collapse policy, numerics policy, seed, sample, and the
mc/patterns extras — must miss on change; the execution-only knobs
(shards, workers) and the fields a kind ignores must *not* split the
cache.  Concurrent writers racing on one key must leave exactly one
valid entry.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.service.spec import CampaignSpec, netlist_digest
from repro.service.store import ResultStore, StoreEntryError


@pytest.fixture(autouse=True)
def fake_netlist_digest(monkeypatch):
    """Pin the netlist digest so these tests never build circuits."""
    monkeypatch.setattr("repro.service.spec.netlist_digest",
                        lambda: "netlist-A")


def spec(**kw):
    kw.setdefault("kind", "campaign")
    return CampaignSpec(**kw)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spec(kind="nope")

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            spec(shards=0)

    def test_rejects_bad_dies(self):
        with pytest.raises(ValueError):
            spec(kind="mc", dies=0)

    def test_round_trip(self):
        s = spec(kind="mc", dies=12, shards=3, workers=2, sample=9)
        assert CampaignSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"format": "something-else"})

    def test_from_dict_rejects_wrong_version(self):
        data = spec().to_dict()
        data["version"] = 99
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("backend", [None, "batched"])
    def test_from_dict_ignores_a_retired_backend_entry(self, backend):
        """Spec documents written before the batched backend was
        retired carry a ``backend`` entry (``null`` by default): they
        still load, to the spec without it."""
        s = spec(sample=24, collapse="on")
        data = dict(s.to_dict(), backend=backend)
        assert CampaignSpec.from_dict(data) == s
        assert CampaignSpec.from_dict(data).digest() == s.digest()

    @pytest.mark.parametrize("kind", ["campaign", "mc", "patterns"])
    def test_rejects_unknown_collapse_mode(self, kind):
        with pytest.raises(ValueError, match="collapse"):
            spec(kind=kind, collapse="bogus")

    @pytest.mark.parametrize("change", [dict(strict_numerics=True),
                                        dict(collapse="on"),
                                        dict(collapse="audit")])
    def test_patterns_kind_refuses_knobs_it_cannot_honour(self, change):
        """The pattern campaign runs uncollapsed under the default
        numerics policy; a spec asking otherwise would publish that
        artifact under a key that promises something else."""
        with pytest.raises(ValueError):
            spec(kind="patterns", **change)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError, match="sample"):
            spec(sample=-1)


class TestDigest:
    def test_execution_knobs_do_not_change_digest(self):
        base = spec(sample=24)
        assert base.digest() == base.with_execution(shards=4).digest()
        assert base.digest() == base.with_execution(workers=8).digest()

    def test_irrelevant_kind_fields_do_not_change_digest(self):
        # a campaign spec's mc/patterns fields are normalised away
        a = spec(sample=24)
        b = dataclasses.replace(a, dies=999, patterns=("prbs7",))
        assert a.digest() == b.digest()

    def test_mc_digest_ignores_sample(self):
        """An mc run draws its own per-die faults: ``sample`` does not
        reach the artifact, so it must not split the key."""
        assert spec(kind="mc", dies=4, sample=5).digest() == \
            spec(kind="mc", dies=4).digest()

    @pytest.mark.parametrize("kind", ["campaign", "patterns"])
    def test_sample_zero_keys_like_the_full_universe(self, kind):
        assert spec(kind=kind, sample=0).digest() == \
            spec(kind=kind).digest()

    def test_default_digests_match_the_published_ones(self, monkeypatch):
        """The real netlist digest plus today's key: the digests every
        store and shard checkpoint written since the service landed
        resolve through."""
        monkeypatch.setattr("repro.service.spec.netlist_digest",
                            netlist_digest)
        assert spec().digest() == "e209c2e194cea4efedf1d8c14dcf8857"
        assert spec(kind="patterns").digest() == \
            "ae2b8915acceb4dd38fa03f165872608"
        mc = {1: "256dbb6adb698f80702e85318445e006",
              2: "f796375b6e4f933b62ba86e07c2ae567",
              3: "0612e37c0571127ee93124aeee055853",
              4: "7e35a102605237d57a6f57fd612811d2"}
        for seed, digest in mc.items():
            assert spec(kind="mc", dies=8, seed=seed).digest() == digest

    @pytest.mark.parametrize("change", [
        dict(seed=7),
        dict(sample=25),
        dict(collapse="on"),
        dict(strict_numerics=True),
        dict(tiers=("dc", "scan")),
        dict(kind="mc"),
    ])
    def test_result_determining_fields_change_digest(self, change):
        base = dict(sample=24)
        assert spec(**base).digest() != \
            spec(**{**base, **change}).digest()

    @pytest.mark.parametrize("change", [
        dict(dies=65),
        dict(corner="SS"),
        dict(sigma_vt_mv=6.0),
        dict(sigma_kp_pct=3.0),
    ])
    def test_mc_fields_change_mc_digest(self, change):
        assert spec(kind="mc").digest() != \
            spec(kind="mc", **change).digest()

    def test_patterns_change_patterns_digest(self):
        assert spec(kind="patterns").digest() != \
            spec(kind="patterns", patterns=("prbs7",)).digest()

    def test_netlist_digest_is_part_of_the_key(self, monkeypatch):
        a = spec().digest()
        monkeypatch.setattr("repro.service.spec.netlist_digest",
                            lambda: "netlist-B")
        assert spec().digest() != a


class TestNetlistDigest:
    def test_stable_and_cached(self):
        # the real digest: hits the fault universe once, then the cache
        assert netlist_digest() == netlist_digest()
        assert len(netlist_digest()) == 32


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        s = spec(sample=8)
        assert store.get(s) is None
        assert s not in store
        store.put(s, {"records": [1, 2]})
        assert s in store
        entry = store.get(s)
        assert entry["result"] == {"records": [1, 2]}
        assert entry["kind"] == "campaign"

    def test_hit_counters(self, tmp_path):
        from repro._profiling import COUNTERS

        store = ResultStore(str(tmp_path / "store"))
        s = spec(sample=8)
        h0, m0 = COUNTERS.store_hits, COUNTERS.store_misses
        store.get(s)
        store.put(s, {})
        store.get(s)
        assert (COUNTERS.store_hits - h0,
                COUNTERS.store_misses - m0) == (1, 1)

    @pytest.mark.parametrize("change", [
        dict(seed=7),
        dict(sample=9),
        dict(collapse="on"),
        dict(strict_numerics=True),
        dict(tiers=("dc",)),
    ])
    def test_any_key_component_change_misses(self, tmp_path, change):
        store = ResultStore(str(tmp_path / "store"))
        base = dict(sample=8)
        store.put(spec(**base), {"records": []})
        assert store.get(spec(**{**base, **change})) is None

    def test_netlist_change_misses(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        store.put(spec(sample=8), {"records": []})
        monkeypatch.setattr("repro.service.spec.netlist_digest",
                            lambda: "netlist-B")
        assert store.get(spec(sample=8)) is None

    def test_execution_knobs_still_hit(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put(spec(sample=8, shards=1), {"records": []})
        assert store.get(spec(sample=8, shards=4, workers=2)) is not None

    def test_corrupt_entry_is_loud(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        s = spec(sample=8)
        path = store.path_for(s.digest())
        store.put(s, {})
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(StoreEntryError):
            store.get(s)

    def test_key_mismatch_under_same_digest_is_loud(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        s = spec(sample=8)
        store.put(s, {})
        path = store.path_for(s.digest())
        with open(path) as fh:
            entry = json.load(fh)
        entry["key"]["seed"] = 12345       # simulated digest collision
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(StoreEntryError):
            store.get(s)

    def test_entries_lists_published_digests(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        a, b = spec(sample=8), spec(sample=9)
        store.put(a, {})
        store.put(b, {})
        digests = {d for d, _ in store.entries()}
        assert digests == {a.digest(), b.digest()}

    def test_concurrent_writers_leave_one_valid_entry(self, tmp_path):
        """Two processes publishing the same key concurrently: last
        rename wins, the surviving entry is complete valid JSON (no
        interleaved bytes), and both payloads were acceptable."""
        root = str(tmp_path / "store")
        s = spec(sample=8)
        # a large payload so a torn interleaved write could not parse
        payload = {"records": [{"i": i, "pad": "x" * 64}
                               for i in range(500)]}

        def writer(tag):
            store = ResultStore(root)
            for _ in range(20):
                store.put(s, dict(payload, writer=tag))

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=writer, args=(t,)) for t in "ab"]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0

        store = ResultStore(root)
        entry = store.get(s)                 # parses -> not torn
        assert entry["result"]["writer"] in ("a", "b")
        assert entry["result"]["records"] == payload["records"]
        # exactly one entry file, no leftover temp files
        paths = [p for _, p in store.entries()]
        assert len(paths) == 1
        leftovers = [n for n in os.listdir(os.path.dirname(paths[0]))
                     if ".tmp." in n]
        assert leftovers == []
