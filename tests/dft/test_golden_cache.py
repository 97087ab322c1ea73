"""The nominal references: built once per cache, nominal on any die.

``ScanTest`` takes its probe and receiver goldens from the shared
:class:`GoldenSignatures` and builds the toggle golden, a full 25 ns
transient that no verdict reads, only when ``golden["toggle"]`` is
read.  Every reference the cache builds is the nominal design's, also
when it is first read on a Monte-Carlo die.
"""

import reference_stages as ref
from repro.core.profiling import COUNTERS
from repro.dft.golden import GoldenSignatures
from repro.dft.registry import (create_tier, create_tiers, register_tier,
                                unregister_tier)
from repro.faults.collapse import stage_memo
from repro.variation.context import DieContext, activated


def _newton_iterations(call):
    before = COUNTERS.newton_iterations
    result = call()
    return COUNTERS.newton_iterations - before, result


def test_table1_tiers_build_without_the_toggle_transient():
    """dc + scan + bist construction solves the healthy link once per
    data bit (its DC signature, probe capture and retention profile),
    the receiver and VCDL, the receiver scan golden and the BIST
    calibration: 348 Newton iterations (404 while the link golden took
    five solves, 1,358 with the eager toggle)."""
    spent, _ = _newton_iterations(lambda: create_tiers(("dc", "scan",
                                                        "bist")))
    assert spent == 348


def test_scan_goldens_are_shared_and_the_toggle_lazy():
    goldens = GoldenSignatures()
    first = create_tier("scan", goldens)
    assert "link" in goldens and "scan.receiver" in goldens
    assert "scan.toggle" not in goldens
    spent, second = _newton_iterations(
        lambda: create_tier("scan", goldens))
    assert spent == 0
    # the first read of ``golden`` builds the toggle golden, once for
    # every tier over the cache
    spent, toggle = _newton_iterations(lambda: second.golden["toggle"])
    assert spent > 0 and "scan.toggle" in goldens
    assert _newton_iterations(lambda: first.golden["toggle"]) == (0, toggle)
    assert second.golden["probe"] is first.golden["probe"]


def test_toggle_golden_matches_the_eager_full_pass():
    scan = create_tier("scan", GoldenSignatures())
    assert scan.golden["toggle"] == ref.run_toggle(scan, None)


def test_toggle_golden_first_read_on_a_die_stays_nominal():
    scan = create_tier("scan", GoldenSignatures())
    ctx = DieContext(seed=1)
    with activated(ctx):
        ctx.set_die(0)
        lazy = scan.golden["toggle"]
        on_die = scan._run_toggle(None, full=True)
    nominal = ref.run_toggle(scan, None)
    assert lazy == nominal
    # the die's mismatch does move the excursion: the context was live
    assert on_die != nominal


def test_toggle_golden_first_read_under_a_die_memo_stays_nominal():
    """A die's screens leave its own link stage in the die's memo; the
    golden build suspends the memo, so it never starts from that die's
    operating point."""
    goldens = GoldenSignatures()
    dc, scan = create_tiers(("dc", "scan"), goldens)
    ctx = DieContext(seed=1)
    with activated(ctx), stage_memo():
        ctx.set_die(0)
        dc.screen()
        lazy = scan.golden["toggle"]
    assert lazy == ref.run_toggle(scan, None)


def test_references_built_on_a_die_are_nominal():
    nominal = GoldenSignatures()
    on_die = GoldenSignatures()
    ctx = DieContext(seed=1)
    with activated(ctx):
        ctx.set_die(0)
        receiver = on_die.retention_receiver
    assert receiver == nominal.retention_receiver


def test_registry_checks_golden_without_reading_it():
    reads = []

    @register_tier("lazy_golden")
    class LazyGolden:
        name = "lazy_golden"

        def __init__(self, goldens):
            pass

        @property
        def golden(self):
            reads.append(1)
            return {}

        def applies_to(self, fault):
            return False

        def detect(self, fault):
            return False

    try:
        create_tier("lazy_golden")
    finally:
        unregister_tier("lazy_golden")
    assert reads == []
