"""Monte-Carlo dies never detect through class representatives.

Each die injects one fault, so the representative swap that
``collapse="on"`` once selected saved no simulation and is deleted:
every run is what ``"off"`` was, in-process or forked.  What stays is
the artifact contract — a config carries no collapse key, and one that
an older run wrote with ``"collapse": "on"`` still loads.
"""

import json

import pytest

from repro.core.profiling import profiled
from repro.variation.campaign import MCResult, MonteCarloCampaign

DIES = 2


@pytest.fixture(scope="module")
def in_process():
    """An in-process run (the path on which fault campaigns collapse)
    and the collapse counters it left."""
    with profiled() as counters:
        result = MonteCarloCampaign(seed=2016).run(DIES, workers=1)
        formed = (counters.classes, counters.collapse_rep_evals,
                  counters.class_hits)
    return result, formed


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
        """No run builds a representative map: even in-process, no fault
        class is formed and no representative simulated."""
        _, formed = in_process
        assert formed == (0, 0, 0)

    def test_unknown_mode_rejected(self):
        """The campaign takes no collapse mode at all any more."""
        for mode in ("bogus", "on"):
            with pytest.raises(TypeError, match="collapse"):
                MonteCarloCampaign(seed=2016, collapse=mode)
