"""Campaign-level tests for fault-universe compression.

The collapse contract: every campaign run activates a fresh stage memo,
each tier stage reuses the result of an earlier fault of the run whose
injected netlist change is structurally the same, and the records are
the per-fault path's byte for byte — a record never says how it was
reached.  The fault that simulated each reused result goes to the run
trace of an in-process run, one ``stage_reused`` event per reuse.  The
24 termination faults form real multi-member classes, so every
execution path below (in-process, ``workers=2``, a 2-shard service
merge, a resume from a checkpoint holding the first half) mixes reused
and simulated stage results, and the classes of a half, a shard or a
worker differ from those of the whole.
"""

import json

import pytest

from repro.core.jsonl import read_events
from repro.core.profiling import profiled
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tiers
from repro.faults import CampaignResult, FaultCampaign
from repro.faults.model import FaultKind, StructuralFault


@pytest.fixture(scope="module")
def universe():
    """The termination block: 24 faults rich in series-chain opens, so
    real multi-member classes exist."""
    return [f for f in build_fault_universe() if f.block == "termination"]


def _campaign():
    campaign = FaultCampaign()
    for tier in create_tiers(("dc", "scan", "bist"), GoldenSignatures()):
        campaign.add_tier(tier)
    return campaign


def _run(universe, **kwargs):
    """A run of the universe, in-process unless *kwargs* say otherwise."""
    return _campaign().run(universe, **{"workers": 1, **kwargs})


def _per_fault(universe):
    """The oracle: every fault through every tier's own detector, with
    no run (so no stage memo) active."""
    campaign = _campaign()
    return CampaignResult([campaign.evaluate(f) for f in universe],
                          campaign.tier_names)


def _reused(path):
    return [e for e in read_events(path) if e["event"] == "stage_reused"]


@pytest.fixture(scope="module")
def per_fault(universe):
    return _per_fault(universe)


@pytest.fixture(scope="module")
def traced(universe, tmp_path_factory):
    """An in-process traced run, its reuse events and its counters."""
    path = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
    with profiled() as counters:
        result = _run(universe, trace=path)
        snapshot = counters.snapshot()
    return result, _reused(path), snapshot


class TestVerdictParity:
    def test_collapsed_export_matches_per_fault_export(self, traced,
                                                       per_fault):
        assert traced[0].to_json() == per_fault.to_json()

    def test_collapse_actually_engaged(self, universe, traced):
        counters = traced[2]
        assert counters["classes"]
        assert counters["classes"] < len(universe)
        assert counters["collapse_rep_evals"]
        assert counters["class_hits"], \
            "no verdict was ever copied from a representative"

    def test_artifact_has_no_provenance_key(self, traced):
        for rec in traced[0].to_dict()["records"]:
            assert set(rec) <= {"fault", "tiers", "errors", "outcome"}

    def test_stored_provenance_is_ignored(self, traced):
        """Exports older collapsed runs wrote carry per-member
        provenance; they load to the same records and re-export to the
        bytes of today's."""
        doc = traced[0].to_dict()
        for rec in doc["records"]:
            rec["collapsed_from"] = {"dc": list(rec["fault"].values())}
        back = CampaignResult.from_dict(doc)
        assert back.records == traced[0].records
        assert back.to_json() == traced[0].to_json()


class TestForkedRunsReuseInTheirWorkers:
    @pytest.mark.parametrize("kwargs", [dict(workers=2),
                                        dict(timeout=600.0)],
                             ids=["workers-2", "timeout"])
    def test_parent_counts_and_traces_no_reuse(self, universe, per_fault,
                                               traced, kwargs, tmp_path):
        """A forked run's stage results are reused inside its workers:
        the parent counts what its workers send back with each record,
        no worker writes a reuse event to the trace, and the export is
        the same.  Every fault makes the same stage lookups whoever
        evaluates it, so the lookups add up to the in-process run's;
        one supervised worker takes the faults in item order with one
        memo, so it counts exactly what the in-process run counts."""
        path = str(tmp_path / "run.jsonl")
        with profiled() as counters:
            result = _run(universe, trace=path, **kwargs)
            counts = counters.snapshot()
        assert counts["class_hits"] > 0
        assert counts["collapse_rep_evals"] + counts["class_hits"] == \
            traced[2]["collapse_rep_evals"] + traced[2]["class_hits"]
        if "timeout" in kwargs:
            for name in ("classes", "collapse_rep_evals", "class_hits",
                         "newton_iterations", "lu_factor"):
                assert counts[name] == traced[2][name], name
        assert _reused(path) == []
        assert result.to_json() == per_fault.to_json()


class TestExportIsPathIndependent:
    """The shard and resume cases collapse a part of the universe, so
    their classes differ from the whole run's; their exports must not."""

    def test_two_shard_job_merge(self, universe, traced, tmp_path,
                                 monkeypatch):
        from repro.service.shard import FaultCampaignJob, shard_ranges
        from repro.service.spec import CampaignSpec

        monkeypatch.setattr("repro.dft.coverage.build_fault_universe",
                            lambda: list(universe))
        job = FaultCampaignJob(CampaignSpec("campaign", shards=2))
        paths = []
        for i, (lo, hi) in enumerate(shard_ranges(job.items, 2)):
            paths.append(str(tmp_path / f"shard-{i}.jsonl"))
            job.run_shard(lo, hi, paths[-1])
        merged = json.dumps(job.merge(paths))
        assert merged == traced[0].to_json()

    def test_resumed_from_first_half(self, universe, traced, tmp_path):
        ckpt = str(tmp_path / "half.ckpt")
        _run(universe[:len(universe) // 2], checkpoint=ckpt)
        resumed = _run(universe, checkpoint=ckpt)
        assert resumed.to_json() == traced[0].to_json()


#: the tier whose verdict each termination-fault stage decides
STAGE_TIERS = {"link_static": "dc", "toggle": "scan"}


class TestTraceProvenance:
    def test_trace_carries_provenance(self, traced):
        """Each event names a fault, the stage whose result it reused
        and the representative that simulated it; for a termination
        fault that stage decides one tier's verdict, which the two
        faults therefore share.  There is one event per class hit."""
        result, reused, counters = traced
        assert reused
        assert len(reused) == counters["class_hits"]
        by_name = {str(r.fault): r for r in result.records}
        for event in reused:
            fault, rep = event["fault"], event["representative"]
            assert fault != rep and rep in by_name
            tier = STAGE_TIERS[event["stage"]]
            assert by_name[fault].hit(tier) == by_name[rep].hit(tier)

    def test_members_cover_every_fault_not_simulated_itself(
            self, universe, tmp_path, monkeypatch):
        """A fault no stage injected got every stage result from a
        representative, so some event must name it."""
        from repro.faults import inject

        injected = set()
        original = inject.inject_fault

        def spy(circuit, fault, *args, **kwargs):
            injected.add(str(fault))
            return original(circuit, fault, *args, **kwargs)

        for module in ("repro.faults.inject", "repro.dft.duts"):
            monkeypatch.setattr(f"{module}.inject_fault", spy)
        path = str(tmp_path / "run.jsonl")
        _run(universe, trace=path)
        members = {event["fault"] for event in _reused(path)}
        not_simulated = {str(f) for f in universe} - injected
        assert not_simulated, "every fault was simulated: nothing collapsed"
        assert not_simulated <= members


class TestRepresentativeStageFailure:
    def test_raising_class_falls_back_to_serial_records(
            self, universe, traced, monkeypatch, tmp_path):
        """A representative whose stage raises stores nothing, so every
        member runs the stage itself and gets its own ``unsolvable``
        record; the tier's other classes keep reusing results."""
        from repro.analog.solver import SolverError
        from repro.dft.scan_test import ScanTest

        classes = {}
        for e in traced[1]:
            if e["stage"] == "toggle":
                classes.setdefault(e["representative"],
                                   {e["representative"]}).add(e["fault"])
        assert len(classes) >= 2, "need a failing and a healthy class"
        bad_rep, bad = max(classes.items(), key=lambda kv: len(kv[1]))

        original = ScanTest._run_toggle

        def toggle(tier, fault):
            if fault is not None and str(fault) in bad:
                raise SolverError("singular toggle transient")
            return original(tier, fault)

        monkeypatch.setattr(ScanTest, "_run_toggle", toggle)
        path = str(tmp_path / "run.jsonl")
        collapsed = _run(universe, trace=path)
        assert collapsed.to_json() == _per_fault(universe).to_json()
        for rec in collapsed.records:
            if str(rec.fault) in bad:
                assert rec.outcome == "unsolvable"
                assert rec.errors[0][0] == "scan"
                assert "singular toggle transient" in rec.errors[0][1]
        healthy = {e["representative"] for e in _reused(path)
                   if e["stage"] == "toggle"}
        assert healthy == set(classes) - {bad_rep}


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        """The run decides when to collapse, so the campaign takes no
        collapse mode at all: ``on`` is as unknown as ``bogus``."""
        for mode in ("bogus", "on"):
            with pytest.raises(TypeError, match="collapse"):
                FaultCampaign(collapse=mode)


def F(dev):
    return StructuralFault(dev, FaultKind.DRAIN_OPEN, "cp", "")


class TestCheckpointHeader:
    """The header names the tier pipeline and numerics policy only: how
    a run executed never enters it.  Stub tiers suffice."""

    def _campaign(self):
        campaign = FaultCampaign()
        campaign.add_tier("stub", lambda f: True)
        return campaign

    def test_header_names_no_execution_path(self, tmp_path):
        ckpt = tmp_path / "camp.ckpt"
        self._campaign().run([F("d0"), F("d1")], checkpoint=str(ckpt))
        header = json.loads(ckpt.read_text().splitlines()[0])
        assert header == {"format": "repro-campaign-checkpoint",
                          "version": 1, "tier_order": ["stub"]}

    def test_stale_collapse_entry_is_refused(self, tmp_path):
        """A checkpoint written while collapsing was a knob records the
        policy in its header; resuming it fails loudly, naming it."""
        ckpt = tmp_path / "camp.ckpt"
        self._campaign().run([F("d0"), F("d1")], checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines(keepends=True)
        header = dict(json.loads(lines[0]), collapse="on")
        ckpt.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match="collapse"):
            self._campaign().run([F("d0"), F("d1"), F("d2")],
                                 checkpoint=str(ckpt))
