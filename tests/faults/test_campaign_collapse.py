"""Campaign-level tests for fault-universe compression.

The collapse contract: with ``collapse="on"`` every verdict, error and
outcome must match the uncollapsed run field for field — the only
permitted difference is the ``collapsed_from`` provenance.
``collapse="off"`` artifacts must stay byte-identical to the
pre-collapse format (no provenance key at all),
``"audit"`` must fail loudly on a lying tier, and checkpoints refuse
cross-policy resumes.
"""

import pytest

from repro.core.profiling import profiled
from repro.dft.coverage import build_fault_universe
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import create_tiers
from repro.faults import CampaignResult, FaultCampaign
from repro.faults.collapse import CollapseAuditError
from repro.faults.model import FaultKind, StructuralFault


@pytest.fixture(scope="module")
def universe():
    """The termination block: 24 faults rich in series-chain opens, so
    real multi-member classes exist and provenance is exercised."""
    return [f for f in build_fault_universe() if f.block == "termination"]


def _run(universe, collapse, **kwargs):
    campaign = FaultCampaign(collapse=collapse)
    for tier in create_tiers(("dc", "scan", "bist"), GoldenSignatures()):
        campaign.add_tier(tier)
    return campaign.run(universe, **kwargs)


@pytest.fixture(scope="module")
def off_result(universe):
    return _run(universe, "off")


@pytest.fixture(scope="module")
def on_result(universe):
    return _run(universe, "on")


class TestVerdictParity:
    def test_field_wise_parity_ignoring_provenance(self, universe,
                                                   off_result, on_result):
        assert len(on_result.records) == len(off_result.records)
        for a, b in zip(on_result.records, off_result.records):
            assert a.fault == b.fault
            assert a.tiers == b.tiers
            assert a.errors == b.errors
            assert a.outcome == b.outcome

    def test_collapse_actually_engaged(self, universe):
        with profiled() as counters:
            _run(universe, "on")
        assert counters.classes
        assert counters.classes < len(universe)
        assert counters.collapse_rep_evals
        assert counters.class_hits, \
            "no verdict was ever copied from a representative"

    def test_off_artifact_has_no_provenance_key(self, off_result):
        """Byte-level format stability: uncollapsed exports must be
        indistinguishable from pre-collapse ones."""
        assert "collapsed_from" not in off_result.to_json()

    def test_on_artifact_carries_provenance(self, on_result):
        collapsed = [r for r in on_result.records if r.collapsed_from]
        assert collapsed, "expected at least one non-representative"
        for rec in collapsed:
            for tier, rep_key in rec.collapsed_from.items():
                assert tier in on_result.tier_order
                assert tuple(rep_key) != rec.fault.key()

    def test_provenance_round_trips(self, on_result):
        back = CampaignResult.from_json(on_result.to_json())
        assert back.records == on_result.records
        assert [r.collapsed_from for r in back.records] == \
            [r.collapsed_from for r in on_result.records]


class TestRepresentativeStageFailure:
    def test_raising_class_falls_back_to_serial_records(
            self, universe, on_result, monkeypatch):
        """A representative whose stage raises leaves its class to the
        serial detector, so every member gets the serial ``unsolvable``
        record; the tier's other classes stay collapsed."""
        from repro.analog.solver import SolverError
        from repro.dft.scan_test import ScanTest

        classes = {}
        for rec in on_result.records:
            rep = rec.collapsed_from.get("scan")
            if rep is not None:
                classes.setdefault(tuple(rep), {tuple(rep)}).add(
                    rec.fault.key())
        assert len(classes) >= 2, "need a failing and a healthy class"
        bad_rep, bad = max(classes.items(), key=lambda kv: len(kv[1]))

        original = ScanTest._run_toggle

        def toggle(tier, fault):
            if fault is not None and fault.key() in bad:
                raise SolverError("singular toggle transient")
            return original(tier, fault)

        monkeypatch.setattr(ScanTest, "_run_toggle", toggle)
        off = _run(universe, "off")
        on = _run(universe, "on")
        for a, b in zip(on.records, off.records):
            assert (a.fault, a.tiers, a.errors, a.outcome) == \
                (b.fault, b.tiers, b.errors, b.outcome)
            if a.fault.key() in bad:
                assert a.outcome == "unsolvable"
                assert a.errors[0][0] == "scan"
                assert "singular toggle transient" in a.errors[0][1]
                assert "scan" not in a.collapsed_from
        healthy = {tuple(r.collapsed_from["scan"]) for r in on.records
                   if "scan" in r.collapsed_from}
        assert healthy == set(classes) - {bad_rep}


class TestAudit:
    def test_honest_tiers_pass_the_audit(self, universe, off_result):
        with profiled() as counters:
            audited = _run(universe, "audit")
        assert counters.audit_checks >= 1
        for a, b in zip(audited.records, off_result.records):
            assert a.tiers == b.tiers

    def test_lying_tier_fails_loudly(self, universe):
        """Flip the serial detectors after the collapsed verdicts are
        computed: the seeded member re-simulation must now disagree and
        raise instead of quietly shipping wrong coverage."""
        campaign = FaultCampaign(collapse="audit")
        tiers = create_tiers(("dc", "scan", "bist"), GoldenSignatures())
        for tier in tiers:
            campaign.add_tier(tier)
        for tier in tiers:
            original = tier.detect
            tier.detect = (lambda f, _orig=original: not _orig(f))
        with pytest.raises(CollapseAuditError):
            campaign.run(universe)


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultCampaign(collapse="bogus")

    @pytest.mark.parametrize("mode", ["off", "on", "audit"])
    def test_known_modes_accepted(self, mode):
        assert FaultCampaign(collapse=mode).collapse == mode


def F(dev):
    return StructuralFault(dev, FaultKind.DRAIN_OPEN, "cp", "")


class TestCheckpointPolicy:
    """Cross-policy resumes are refused: a per-class record stream and
    a per-fault one must never be mixed.  Stub tiers suffice — the
    policy lives in the checkpoint header, not the detectors."""

    def _campaign(self, collapse):
        campaign = FaultCampaign(collapse=collapse)
        campaign.add_tier("stub", lambda f: True)
        return campaign

    def test_on_checkpoint_refuses_off_resume(self, tmp_path):
        ckpt = str(tmp_path / "camp.ckpt")
        self._campaign("on").run([F("d0"), F("d1")], checkpoint=ckpt)
        with pytest.raises(ValueError, match="collapse"):
            self._campaign("off").run([F("d0"), F("d1"), F("d2")],
                                      checkpoint=ckpt)

    def test_off_checkpoint_refuses_on_resume(self, tmp_path):
        ckpt = str(tmp_path / "camp.ckpt")
        self._campaign("off").run([F("d0"), F("d1")], checkpoint=ckpt)
        with pytest.raises(ValueError, match="collapse"):
            self._campaign("on").run([F("d0"), F("d1"), F("d2")],
                                     checkpoint=ckpt)

    def test_matching_policy_resumes(self, tmp_path):
        ckpt = str(tmp_path / "camp.ckpt")
        universe = [F("d0"), F("d1"), F("d2")]
        self._campaign("on").run(universe[:2], checkpoint=ckpt)
        full = self._campaign("on").run(universe, checkpoint=ckpt)
        assert [r.fault for r in full.records] == universe

    def test_audit_counts_as_on(self, tmp_path):
        """Audit is a verification knob on top of the same record
        stream, so on <-> audit resumes are legitimate."""
        ckpt = str(tmp_path / "camp.ckpt")
        universe = [F("d0"), F("d1"), F("d2")]
        self._campaign("on").run(universe[:2], checkpoint=ckpt)
        full = self._campaign("audit").run(universe, checkpoint=ckpt)
        assert [r.fault for r in full.records] == universe
