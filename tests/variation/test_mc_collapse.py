"""Monte-Carlo dies never detect through class representatives.

Each die injects one fault, so the representative swap that
``collapse="on"`` once selected saved no simulation and is deleted:
every run is what ``"off"`` was, in-process or forked.  A die shares
stage results only between its own tiers, under a memo of its own.
What stays is the artifact contract — a config carries no collapse
key, and one that an older run wrote with ``"collapse": "on"`` still
loads.
"""

import json

import pytest

from repro.core.profiling import profiled
from repro.variation.campaign import MCResult, MonteCarloCampaign

DIES = 2


def _formed(dies):
    """The collapse counters an in-process run of *dies* leaves."""
    with profiled() as counters:
        result = MonteCarloCampaign(seed=2016).run(dies, workers=1)
        formed = (counters.classes, counters.collapse_rep_evals,
                  counters.class_hits)
    return result, formed


@pytest.fixture(scope="module")
def in_process():
    """An in-process run (the path on which fault campaigns collapse)
    and the collapse counters it left."""
    return _formed(DIES)


class TestMCCollapseParity:
    def test_off_artifact_has_no_collapse_key(self, in_process):
        result, _ = in_process
        assert '"collapse"' not in result.to_json()
        assert "collapse" not in json.loads(result.to_json())["config"]

    def test_on_config_round_trips(self, in_process):
        """An artifact of a run that detected through representatives
        carries ``"collapse": "on"`` in its config; it loads to the same
        result, and re-exports as the default artifact."""
        result, _ = in_process
        data = json.loads(result.to_json())
        data["config"]["collapse"] = "on"
        back = MCResult.from_dict(data)
        assert back.records == result.records
        assert back.to_json(indent=2) == result.to_json(indent=2)

    def test_off_builds_no_rep_map(self, in_process):
        """No run builds a representative map: even in-process, each
        die forms only its own fault's class and reuses only its own
        stages, so the run's counters are the sum of each die's run
        alone."""
        _, formed = in_process
        alone = [_formed([die])[1] for die in range(DIES)]
        assert formed == tuple(map(sum, zip(*alone)))
        assert formed[0] == DIES

    def test_unknown_mode_rejected(self):
        """The campaign takes no collapse mode at all any more."""
        for mode in ("bogus", "on"):
            with pytest.raises(TypeError, match="collapse"):
                MonteCarloCampaign(seed=2016, collapse=mode)
