"""One golden cache per service process.

``build_job`` builds every job's tiers over ``shared_goldens()``, so a
serve loop pays for the nominal references once, in its first job.
No artifact may depend on which job that was: the mc specs of seeds
1-4 and a sampled fault campaign, served through one process in two
orders, give exactly the artifacts each spec gets served alone in a
fresh process, and the mc die records match the committed
``perfbench/reference/mc.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.profiling import COUNTERS
from repro.service import CampaignSpec, JobQueue, coordinator, serve
from repro.service.client import format_result
from repro.service.shard import shared_goldens

MC_REFERENCE = (Path(__file__).resolve().parents[2] / "perfbench"
                / "reference" / "mc.json")

SPECS = {f"mc{seed}": CampaignSpec("mc", seed=seed, dies=8, shards=2,
                                   workers=2)
         for seed in (1, 2, 3, 4)}
SPECS["campaign"] = CampaignSpec("campaign", sample=8, shards=2, workers=2)

ORDERS = {"mc-first": ("mc1", "mc2", "campaign", "mc3", "mc4"),
          "campaign-first": ("campaign", "mc4", "mc3", "mc2", "mc1")}

#: one spec served by a fresh interpreter; prints the result text
_SERVE_ALONE = """
import json, sys
from repro.service import CampaignSpec, JobQueue, serve
from repro.service.client import format_result
queue = JobQueue(sys.argv[1])
job = queue.submit(CampaignSpec.from_dict(json.loads(sys.argv[2])))
serve(sys.argv[1], once=True)
sys.stdout.write(format_result(*queue.result(job)))
"""


@pytest.fixture(scope="module")
def served_alone(tmp_path_factory):
    texts = {}
    for name, spec in SPECS.items():
        root = tmp_path_factory.mktemp(f"alone-{name}")
        out = subprocess.run(
            [sys.executable, "-c", _SERVE_ALONE, str(root),
             json.dumps(spec.to_dict())],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        texts[name] = out.stdout
    return texts


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS.keys())
def test_one_process_serves_every_order_alike(order, served_alone,
                                              tmp_path, monkeypatch):
    shared_goldens.cache_clear()        # as in a fresh serve process
    builds = []
    build_job = coordinator.build_job

    def counted(spec):
        before = COUNTERS.newton_iterations
        job = build_job(spec)
        builds.append(COUNTERS.newton_iterations - before)
        return job

    monkeypatch.setattr(coordinator, "build_job", counted)
    queue = JobQueue(str(tmp_path))
    reference = json.loads(MC_REFERENCE.read_text())["seeds"]
    for name in order:
        job = queue.submit(SPECS[name])
        serve(str(tmp_path), once=True)
        kind, artifact = queue.result(job)
        assert format_result(kind, artifact) == served_alone[name], name
        if kind == "mc":
            records = json.loads(json.dumps(artifact["records"]))
            assert records == reference[str(SPECS[name].seed)], name
    assert builds[0] > 0
    assert builds[1:] == [0] * (len(order) - 1)
