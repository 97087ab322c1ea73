"""Each Monte-Carlo die characterises its faulted netlist on its own
mismatch.

Within a fault-campaign run the stage memo shares the VCDL delay pair
and the window thresholds between faults with the same structural key;
no memo is active while Monte-Carlo dies are evaluated.  Two dies that
draw the same fault must not share them: the later die would run its
at-speed lock test on the earlier die's mismatch-shifted measurement,
and its record would depend on which dies shared its process.  The pairs below are the first in their
seeds to repeat a VCDL fault (``vcdl_MBP:gate_open``) and a window
fault (``win_hi_MLD:gate_drain_short``).
"""

import pytest

from repro.dft.bist import BISTTest
from repro.variation import MonteCarloCampaign
from repro.variation.context import active_context


@pytest.mark.parametrize("seed, dies, measure", [
    (14, [0, 11], "_measure_vcdl_delays"),
    (12, [1, 13], "_measure_window_thresholds"),
], ids=["vcdl-delays", "window-thresholds"])
def test_later_die_measures_its_own_netlist(monkeypatch, seed, dies,
                                            measure):
    seen = []
    original = getattr(BISTTest, measure)
    verdict = BISTTest._vcdl_lock_verdict

    def measured(self, fault):
        result = original(self, fault)
        seen.append(("measure", active_context().die_index, fault.key(),
                     result))
        return result

    def judged(self, d_lo, d_hi):
        seen.append(("lock test", active_context().die_index, d_lo, d_hi))
        return verdict(self, d_lo, d_hi)

    monkeypatch.setattr(BISTTest, measure, measured)
    monkeypatch.setattr(BISTTest, "_vcdl_lock_verdict", judged)
    later = dies[1]
    # one worker: the two dies share this process, as they would share
    # any worker that evaluates both
    together = MonteCarloCampaign(seed=seed).run(dies, workers=1)
    assert together.records[0].fault == together.records[1].fault
    shared = [event for event in seen if event[1] == later]
    seen.clear()
    alone = MonteCarloCampaign(seed=seed).run([later], workers=1)
    assert shared and shared == seen
    assert together.records[1] == alone.records[0]
