"""Unit tests for the structural fault-universe compression layer.

The collapser's promises are structural, not statistical: digests are
deterministic across instances, class keys never mix blocks, every
fault gets a representative (representatives map to themselves), and
the report's accounting adds up.  Verdict-level correctness is covered
by the campaign-integration tests; these pin the algebra.
"""

import pytest

from repro.analog.devices import is_ground
from repro.dft.coverage import build_fault_universe
from repro.faults.collapse import BLOCK_TAGS, FaultCollapser, universe_report
from repro.faults.enumerate import universe_summary
from repro.faults.inject import inject_fault
from repro.faults.model import FaultKind, R_SHORT, StructuralFault


@pytest.fixture(scope="module")
def universe():
    return build_fault_universe()


@pytest.fixture(scope="module")
def collapser():
    return FaultCollapser()


class TestFaultRoundTrip:
    """StructuralFault serialization and key stability — the collapse
    maps and checkpoint provenance are keyed on these."""

    def test_to_dict_from_dict_round_trip(self, universe):
        for f in universe:
            back = StructuralFault.from_dict(f.to_dict())
            assert back == f
            assert back.key() == f.key()

    def test_key_is_hashable_and_stable(self, universe):
        keys = {f.key() for f in universe}
        assert len(keys) == len(universe)
        for f in universe:
            assert f.key() == StructuralFault(f.device, f.kind,
                                              f.block, f.role).key()


class TestUniverseSummary:
    def test_counts_add_up(self, universe):
        summary = universe_summary(universe)
        assert summary["total"] == len(universe)
        assert sum(summary["by_block"].values()) == len(universe)
        assert sum(summary["by_kind"].values()) == len(universe)

    def test_known_labels(self, universe):
        summary = universe_summary(universe)
        assert "tx" in summary["by_block"]
        assert "Gate open" in summary["by_kind"]


class TestClassAlgebra:
    def test_digests_deterministic_across_instances(self, universe,
                                                    collapser):
        fresh = FaultCollapser()
        for f in universe:
            assert fresh.class_key(f) == collapser.class_key(f)

    def test_classes_partition_the_universe(self, universe, collapser):
        grouped = collapser.classes(universe)
        members = [f for ms in grouped.values() for f in ms]
        assert sorted(f.key() for f in members) == \
            sorted(f.key() for f in universe)

    def test_classes_never_mix_blocks(self, universe, collapser):
        for members in collapser.classes(universe).values():
            assert len({f.block for f in members}) == 1

    def test_compression_is_real(self, universe, collapser):
        """The universe must actually collapse — series-chain opens and
        duplicate bridges exist by construction."""
        grouped = collapser.classes(universe)
        assert len(grouped) < len(universe)
        assert any(len(ms) > 1 for ms in grouped.values())

    def test_representatives_total_and_idempotent(self, universe,
                                                  collapser):
        """Every fault has exactly one representative (its class's first
        member), and a representative is its own representative."""
        grouped = collapser.classes(universe)
        reps = {f.key(): members[0] for members in grouped.values()
                for f in members}
        assert set(reps) == {f.key() for f in universe}
        for rep in reps.values():
            assert reps[rep.key()].key() == rep.key()
            assert grouped[collapser.class_key(rep)][0] is rep

    def test_members_share_their_reps_class(self, universe, collapser):
        for key, members in collapser.classes(universe).items():
            rep = members[0]
            for f in members:
                assert collapser.class_key(f) == key == \
                    collapser.class_key(rep)

    def test_unknown_tier_signature_is_none(self, collapser):
        foreign = StructuralFault("dev_x", FaultKind.DRAIN_OPEN,
                                  "not_a_block", "")
        block, tag = collapser.class_key(foreign)
        assert block == "not_a_block"
        assert tag[0] == "singleton"


class TestReport:
    @pytest.fixture(scope="class")
    def report(self, universe):
        return universe_report(universe)

    def test_accounting(self, report, universe):
        assert report.n_faults == len(universe)
        assert report.n_classes == len(report.classes)
        assert sum(size * count
                   for size, count in report.histogram().items()) == \
            report.n_faults
        assert sum(report.classes_by_block().values()) == report.n_classes

    def test_format_mentions_the_ratio(self, report):
        text = report.format()
        assert "classes:" in text
        assert f"{report.ratio:.2f}x" in text

    def test_ratio_exceeds_one(self, report):
        assert report.ratio > 1.0

    def test_the_universe_partition_is_pinned(self, report):
        """The class partition ``repro faults --classes`` prints, which
        the campaign's ``classes`` counter and the stage memo's digests
        follow: a bench, observed-node set or digest rule that drifts
        moves these counts."""
        assert (report.n_classes, report.n_faults) == (239, 336)
        assert report.classes_by_block() == {
            "cp": 73, "termination": 16, "tx": 50, "vcdl": 39,
            "window_comp": 61}
        assert report.histogram() == {1: 164, 2: 60, 3: 8, 4: 7}
        assert len(report.null_faults) == 4
        assert report.dominance_pairs == []


class TestInjectorAgreement:
    """A digest stands for the netlist change ``inject_fault`` makes, so
    the two must read one rule: the voltage a gate open retains and the
    node pair a short bridges, on every bench of the fault's block."""

    @staticmethod
    def _injected(collapser, fault, tag):
        circuit, _observed, retention, _inc = collapser._context(tag)
        return inject_fault(circuit, fault, retention=retention)

    def test_gate_open_retention_matches_the_injected_source(
            self, universe, collapser):
        pairs = 0
        for fault in universe:
            if fault.kind != FaultKind.GATE_OPEN:
                continue
            for tag in BLOCK_TAGS[fault.block]:
                kind, device, v_keep = collapser.digest(fault, tag)
                faulted = self._injected(collapser, fault, tag)
                source = faulted[f"FLT_{fault.device}_ret_src"]
                assert (kind, device) == ("gate_open", fault.device)
                assert v_keep == round(source.voltage, 12), (fault, tag)
                pairs += 1
        assert pairs == 81

    def test_short_bridges_the_injected_node_pair(self, universe,
                                                  collapser):
        shorts = (FaultKind.CAP_SHORT, FaultKind.GATE_DRAIN_SHORT,
                  FaultKind.GATE_SOURCE_SHORT, FaultKind.DRAIN_SOURCE_SHORT)
        pairs = 0
        for fault in universe:
            if fault.kind not in shorts:
                continue
            for tag in BLOCK_TAGS[fault.block]:
                faulted = self._injected(collapser, fault, tag)
                resistor, = [e for e in faulted
                             if e.name.startswith(f"FLT_{fault.device}_")
                             and e.name.endswith("_short")]
                a, b = ("0" if is_ground(n) else n
                        for n in resistor.terminals.values())
                want = (("null",) if a == b else
                        ("bridge", tuple(sorted((a, b))), R_SHORT))
                assert collapser.digest(fault, tag) == want, (fault, tag)
                pairs += 1
        assert pairs == 253
