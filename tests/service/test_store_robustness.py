"""Store failure paths: corrupt entries, TTL eviction, racing writers.

The store is the service layer's durability anchor, so its failure
modes must be loud and bounded: an unreadable or mismatched entry is a
:class:`StoreEntryError` (never a silently wrong artifact), eviction
refuses anything a live job still references, and a writer racing an
eviction always leaves either a complete fresh entry or none.
"""

import json
import os
import time

import pytest

from repro.service.spec import CampaignSpec
from repro.service.store import ResultStore, StoreEntryError


@pytest.fixture(autouse=True)
def fake_netlist_digest(monkeypatch):
    """Pin the netlist digest so these tests never build circuits."""
    monkeypatch.setattr("repro.service.spec.netlist_digest",
                        lambda: "netlist-A")


def spec(**kw):
    kw.setdefault("kind", "campaign")
    return CampaignSpec(**kw)


class TestStoreEntryErrors:
    def test_corrupt_json_is_a_store_entry_error(self, tmp_path):
        store = ResultStore(str(tmp_path))
        s = spec()
        store.put(s, {"records": []})
        with open(store.path_for(s.digest()), "w") as fh:
            fh.write('{"format": "repro-store-en')   # torn mid-write
        with pytest.raises(StoreEntryError, match="unreadable"):
            store.get(s)

    def test_wrong_format_is_a_store_entry_error(self, tmp_path):
        store = ResultStore(str(tmp_path))
        s = spec()
        store.put(s, {"records": []})
        path = store.path_for(s.digest())
        with open(path, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(StoreEntryError, match="not a store entry"):
            store.get(s)

    def test_key_mismatch_is_a_store_entry_error(self, tmp_path):
        """A digest collision (or byte corruption that still parses)
        must not serve the wrong campaign's records."""
        store = ResultStore(str(tmp_path))
        s = spec(sample=6)
        store.put(s, {"records": ["mine"]})
        path = store.path_for(s.digest())
        with open(path) as fh:
            entry = json.load(fh)
        entry["key"]["seed"] = entry["key"]["seed"] + 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(StoreEntryError, match="does not match"):
            store.get(s)

    def test_valid_entry_still_round_trips(self, tmp_path):
        store = ResultStore(str(tmp_path))
        s = spec()
        store.put(s, {"records": [1, 2]})
        assert store.get(s)["result"] == {"records": [1, 2]}


class TestGc:
    def _aged(self, store, s, age_s, now):
        """Publish an entry and backdate its mtime by *age_s*."""
        store.put(s, {"records": []})
        path = store.path_for(s.digest())
        os.utime(path, (now - age_s, now - age_s))
        return path

    def test_expired_entries_evicted_fresh_kept(self, tmp_path):
        store = ResultStore(str(tmp_path))
        now = time.time()
        old, fresh = spec(seed=1), spec(seed=2)
        old_path = self._aged(store, old, 100.0, now)
        self._aged(store, fresh, 10.0, now)
        report = store.gc(50.0, now=now)
        assert report.evicted == [old.digest()]
        assert report.kept == 1
        assert not os.path.exists(old_path)
        assert store.get(fresh) is not None

    def test_referenced_entry_is_refused_not_evicted(self, tmp_path):
        store = ResultStore(str(tmp_path))
        now = time.time()
        s = spec()
        path = self._aged(store, s, 100.0, now)
        report = store.gc(50.0, referenced=[s.digest()], now=now)
        assert report.refused == [s.digest()]
        assert report.evicted == []
        assert os.path.exists(path)

    def test_stale_tmp_files_removed(self, tmp_path):
        store = ResultStore(str(tmp_path))
        now = time.time()
        s = spec()
        path = self._aged(store, s, 10.0, now)
        tmp = f"{path}.tmp.99999"         # a killed writer's leftover
        with open(tmp, "w") as fh:
            fh.write('{"half": ')
        os.utime(tmp, (now - 100.0, now - 100.0))
        report = store.gc(50.0, now=now)
        assert report.tmp_removed == 1
        assert not os.path.exists(tmp)
        assert os.path.exists(path)       # the fresh entry survives

    def test_rejects_negative_ttl(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path)).gc(-1.0)

    def test_gc_counter_ticks(self, tmp_path):
        from repro.core.profiling import COUNTERS

        store = ResultStore(str(tmp_path))
        now = time.time()
        self._aged(store, spec(), 100.0, now)
        before = COUNTERS.store_evictions
        store.gc(50.0, now=now)
        assert COUNTERS.store_evictions - before == 1

    def test_republished_entry_survives_racing_gc(self, tmp_path):
        """A writer that re-publishes between the expiry scan and the
        unlink must win: gc re-checks the mtime at the last instant
        and keeps the now-fresh entry."""
        store = ResultStore(str(tmp_path))
        now = time.time()
        s = spec()
        path = self._aged(store, s, 100.0, now)

        real_getmtime = os.path.getmtime
        state = {"stats": 0}

        def racing_getmtime(p):
            state["stats"] += 1
            if p == path and state["stats"] == 2:
                # between the scan and the unlink, a concurrent
                # writer republished the entry
                store.put(s, {"records": ["fresh"]})
                os.utime(path, (now, now))
            return real_getmtime(p)

        import repro.service.store as store_mod
        orig = store_mod.os.path.getmtime
        store_mod.os.path.getmtime = racing_getmtime
        try:
            report = store.gc(50.0, now=now)
        finally:
            store_mod.os.path.getmtime = orig
        assert report.evicted == []
        assert report.kept == 1
        assert store.get(s)["result"] == {"records": ["fresh"]}

    def test_entry_vanishing_mid_gc_is_tolerated(self, tmp_path):
        """A concurrent gc (or manual rm) winning the unlink race
        must not crash the sweep."""
        store = ResultStore(str(tmp_path))
        now = time.time()
        a, b = spec(seed=1), spec(seed=2)
        path_a = self._aged(store, a, 100.0, now)
        self._aged(store, b, 100.0, now)

        real_remove = os.remove

        def racing_remove(p):
            if p == path_a:
                real_remove(p)        # the other gc got there first
            real_remove(p)

        import repro.service.store as store_mod
        orig = store_mod.os.remove
        store_mod.os.remove = racing_remove
        try:
            report = store.gc(50.0, now=now)
        finally:
            store_mod.os.remove = orig
        # both ends up evicted: the loser counts the vanished entry too
        assert sorted(report.evicted) == sorted(
            [a.digest(), b.digest()])
        assert list(store.entries()) == []
