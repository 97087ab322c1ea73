"""Supervised fault-campaign guarantees.

The acceptance bar for the supervision layer: a campaign seeded with a
hanging fault and a worker-killing fault completes end-to-end (single
supervised worker and ``workers=4``), produces byte-identical records
for all healthy faults versus an unperturbed run, and reports the two
bad faults as timeout/quarantined outcomes in the JSON export and the
run-event trace.  Plus the checkpoint-integrity bugfixes: a corrupted
*middle* line makes resume raise (instead of silently discarding later
records and appending duplicates), while only a torn *final* line is
discarded — and physically truncated so appends stay clean, even
when the tear left a whole record without its newline or cut the
header.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.model import FaultKind, StructuralFault

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="fork start method required")

HANG, KILL = 7, 13


def synthetic_universe(n=20):
    kinds = list(FaultKind)
    return [StructuralFault(device=f"M{i}", kind=kinds[i % len(kinds)],
                            block=("tx", "cp", "vcdl")[i % 3])
            for i in range(n)]


def _num(fault):
    return int(fault.device[1:])


def make_campaign(poisoned=True):
    """dc tier plus a tier whose fault M7 hangs and M13 kills the
    worker (only when *poisoned*; the benign variant never does)."""
    campaign = FaultCampaign()
    campaign.add_tier("dc", lambda f: _num(f) % 3 == 0)

    def sim(fault):
        if poisoned and _num(fault) == HANG:
            time.sleep(120)
        if poisoned and _num(fault) == KILL:
            os._exit(1)
        if _num(fault) % 11 == 5:
            raise RuntimeError(f"sim exploded on {fault}")
        return _num(fault) % 2 == 0

    campaign.add_tier("sim", sim)
    return campaign


@needs_fork
class TestSupervisedCampaign:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_poisoned_campaign_completes(self, workers):
        universe = synthetic_universe()
        result = make_campaign().run(universe, workers=workers,
                                     timeout=1.5)
        assert result.total == len(universe)
        by_dev = {r.fault.device: r for r in result.records}
        assert by_dev[f"M{HANG}"].outcome == "timeout"
        assert by_dev[f"M{KILL}"].outcome == "quarantined"
        assert result.outcome_counts() == {"ok": len(universe) - 2,
                                           "timeout": 1,
                                           "quarantined": 1}
        assert {r.fault.device for r in result.unevaluated()} == \
            {f"M{HANG}", f"M{KILL}"}

    def test_healthy_records_byte_identical_to_unperturbed(self):
        universe = synthetic_universe()
        supervised = make_campaign().run(universe, workers=4,
                                         timeout=1.5)
        clean = make_campaign(poisoned=False).run(universe)
        for sup, ref in zip(supervised.records, clean.records):
            if _num(sup.fault) in (HANG, KILL):
                continue
            assert json.dumps(sup.to_dict()) == json.dumps(ref.to_dict())

    def test_bad_outcomes_survive_the_json_export(self):
        universe = synthetic_universe()
        result = make_campaign().run(universe, workers=4, timeout=1.5)
        back = CampaignResult.from_json(result.to_json())
        assert back.records == result.records
        assert back.outcome_counts() == result.outcome_counts()
        bad = {r.fault.device: r for r in back.unevaluated()}
        assert bad[f"M{HANG}"].errors[0][0] == "__supervisor__"
        assert not bad[f"M{HANG}"].detected
        assert not bad[f"M{KILL}"].detected

    def test_trace_names_the_bad_faults(self, tmp_path):
        universe = synthetic_universe()
        path = str(tmp_path / "campaign.trace.jsonl")
        make_campaign().run(universe, workers=4, timeout=1.5,
                            trace=path)
        events = [json.loads(line) for line in open(path)]
        names = [e["event"] for e in events]
        assert "timeout" in names
        assert "quarantine" in names
        assert "worker_spawn" in names
        assert "worker_death" in names

    def test_checkpointed_supervised_run_resumes(self, tmp_path):
        universe = synthetic_universe()
        ckpt = str(tmp_path / "camp.ckpt")
        first = make_campaign().run(universe[:10], workers=4,
                                    timeout=1.5, checkpoint=ckpt)
        resumed = make_campaign().run(universe, workers=4,
                                      timeout=1.5, checkpoint=ckpt)
        assert resumed.records[:10] == first.records
        assert resumed.total == len(universe)
        # the bad faults' records were checkpointed too: a re-run skips
        # them instead of hanging/dying again
        again = make_campaign().run(universe, checkpoint=ckpt)
        assert again.records == resumed.records


@needs_fork
class TestProgressParity:
    """The progress contract is pinned: one call per completed fault
    with ``(done, total)``, serial and parallel, error-carrying records
    included."""

    def test_progress_identical_serial_vs_parallel(self):
        universe = synthetic_universe()
        serial_calls, par_calls = [], []
        make_campaign(poisoned=False).run(
            universe, progress=lambda d, n: serial_calls.append((d, n)))
        make_campaign(poisoned=False).run(
            universe, workers=3,
            progress=lambda d, n: par_calls.append((d, n)))
        n = len(universe)
        assert serial_calls == [(i, n) for i in range(1, n + 1)]
        assert par_calls == serial_calls

    def test_progress_counts_error_carrying_records(self):
        """Faults whose tier raises still progress exactly once — the
        serial/parallel sequences stay identical."""
        universe = synthetic_universe()
        erring = [f for f in universe if _num(f) % 11 == 5]
        assert erring, "universe must include faults whose tier raises"
        calls = {}
        for workers in (None, 2):
            seen = []
            make_campaign(poisoned=False).run(
                universe, workers=workers,
                progress=lambda d, n: seen.append((d, n)))
            calls[workers] = seen
        assert calls[None] == calls[2]
        assert calls[None][-1] == (len(universe), len(universe))

    def test_progress_parity_with_supervised_outcomes(self):
        universe = synthetic_universe()
        seqs = []
        for workers in (1, 4):
            seen = []
            make_campaign().run(universe, workers=workers, timeout=1.5,
                                progress=lambda d, n: seen.append((d, n)))
            seqs.append(seen)
        n = len(universe)
        assert seqs[0] == seqs[1] == [(i, n) for i in range(1, n + 1)]


class TestCheckpointIntegrity:
    def _write_checkpoint(self, tmp_path, n=6):
        universe = synthetic_universe(n)
        ckpt = str(tmp_path / "camp.ckpt")
        campaign = FaultCampaign()
        campaign.add_tier("only", lambda f: True)
        campaign.run(universe, checkpoint=ckpt)
        return universe, ckpt, campaign

    def test_corrupted_middle_line_raises(self, tmp_path):
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt) as fh:
            lines = fh.readlines()
        lines[3] = lines[3][: len(lines[3]) // 2] + "\n"  # torn middle
        with open(ckpt, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError, match="corrupted"):
            campaign.run(universe, checkpoint=ckpt)

    def test_corrupted_middle_line_never_duplicates(self, tmp_path):
        """The original bug: records after the corruption were silently
        dropped and re-appended as duplicates on resume.  Now the
        resume refuses instead of corrupting the accounting."""
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt) as fh:
            lines = fh.readlines()
        lines[2] = '{"fault": {"device": "d\n'
        with open(ckpt, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValueError):
            campaign.run(universe, checkpoint=ckpt)
        with open(ckpt) as fh:
            assert fh.readlines() == lines  # untouched, no appends

    def test_torn_final_line_is_truncated_from_the_file(self, tmp_path):
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt) as fh:
            lines = fh.readlines()
        with open(ckpt, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        rerun = campaign.run(universe, checkpoint=ckpt)
        assert rerun.records == campaign.run(universe).records
        # the torn fragment is gone: every line parses, exactly one
        # record per fault, and the re-evaluated record was appended on
        # a clean boundary (the historical failure glued it onto the
        # fragment, losing BOTH records)
        with open(ckpt) as fh:
            final = [json.loads(line) for line in fh]
        devices = [rec["fault"]["device"] for rec in final[1:]]
        assert sorted(devices) == sorted(f.device for f in universe)

    def test_record_that_lost_only_its_newline_is_rerun(self, tmp_path):
        """A final record missing just its newline is torn: the resume
        re-runs it instead of gluing the next append onto it (which
        made the load after that refuse the file as corrupt)."""
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt, "rb") as fh:
            data = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(data[:-1])
        assert len(campaign.checkpoints.load(ckpt)) == len(universe) - 1
        rerun = campaign.run(universe, checkpoint=ckpt)
        assert rerun.records == campaign.run(universe).records
        with open(ckpt, "rb") as fh:
            assert fh.read() == data
        again = campaign.run(universe, checkpoint=ckpt)
        assert again.records == rerun.records

    @pytest.mark.parametrize("cut", [1, 20, -1])
    def test_torn_header_starts_a_fresh_checkpoint(self, tmp_path, cut):
        """A cut anywhere inside the header line — including just its
        newline — leaves no record, so the resume starts a fresh file
        instead of refusing it or gluing a record onto the header."""
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt, "rb") as fh:
            data = fh.read()
        header_end = data.index(b"\n") + 1
        with open(ckpt, "wb") as fh:
            fh.write(data[:header_end + cut if cut < 0 else cut])
        rerun = campaign.run(universe, checkpoint=ckpt)
        assert rerun.records == campaign.run(universe).records
        with open(ckpt, "rb") as fh:
            assert fh.read() == data

    def test_blank_lines_are_still_tolerated(self, tmp_path):
        universe, ckpt, campaign = self._write_checkpoint(tmp_path)
        with open(ckpt) as fh:
            lines = fh.readlines()
        lines.insert(2, "\n")
        with open(ckpt, "w") as fh:
            fh.writelines(lines)
        rerun = campaign.run(universe, checkpoint=ckpt)
        assert len(rerun.records) == len(universe)
