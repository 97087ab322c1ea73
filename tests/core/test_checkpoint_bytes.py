"""Byte-level damage to real checkpoints and traces.

Every durable record goes through :class:`repro.core.jsonl.JsonlCheckpoint`
(checkpoints) or :func:`repro.core.jsonl.read_events` (traces), so their
tail and corruption policy is proved here once, on files written by the
real writers:

* a stub-tier fault campaign whose records include an ``unsolvable``
  record with errors, a tier-bug record and a ``collapsed_from`` record;
* a one-tier Monte-Carlo campaign;
* a :class:`~repro.core.supervisor.RunTrace`.

**Truncation at every byte offset**, header included: ``load`` never
raises, returns exactly the records whose whole line (newline included)
ends before the cut, and after one more append a second ``load`` returns
all of them.  A resumed stub campaign exports byte-identically to an
uninterrupted one.

**One byte replaced at every offset**, the new value drawn by
hypothesis: ``load`` raises nothing but ``ValueError``, and when it
returns, every record on an untouched line is unchanged;
``read_events`` never raises and keeps every untouched event.  A changed
byte inside a value can still decode to a different valid record —
catching that needs a per-line checksum, a format change this suite
does not claim.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.solver import SolverError
from repro.core.jsonl import read_events
from repro.core.supervisor import RunTrace
from repro.faults import DetectionRecord, FaultCampaign, FaultKind
from repro.faults import StructuralFault
from repro.variation import DieRecord, MonteCarloCampaign


def F(dev, kind=FaultKind.DRAIN_OPEN):
    return StructuralFault(dev, kind, "cp", "")


KINDS = list(FaultKind)
UNIVERSE = [F(f"d{i}", KINDS[i % len(KINDS)]) for i in range(8)]


class _SingletonCollapser:
    """Stands in for ``FaultCollapser``: every fault is its own class,
    so the collapse prepass needs no reference circuits."""

    def __init__(self, goldens=None):
        pass

    def classes(self, faults):
        return {f.key(): [f] for f in faults}


class _StubTier:
    """``alpha``: d2 is unsolvable, d3 hits a tier bug, and d5's verdict
    comes from its class representative d4 through the collapse
    prepass."""

    name = "alpha"

    def applies_to(self, fault):
        return True

    def detect(self, fault):
        if fault.device == "d2":
            raise SolverError("singular faulted system")
        if fault.device == "d3":
            raise RuntimeError("tier bug")
        return fault.device in ("d0", "d4")

    def detect_collapsed(self, faults, collapser, memo=None):
        d5 = [f for f in faults if f.device == "d5"]
        return ({f.key(): True for f in d5},
                {f.key(): UNIVERSE[4].key() for f in d5})


@pytest.fixture
def singleton_collapser(monkeypatch):
    monkeypatch.setattr("repro.faults.collapse.FaultCollapser",
                        _SingletonCollapser)


def stub_campaign():
    campaign = FaultCampaign(collapse="on")
    campaign.add_tier(_StubTier())
    campaign.add_tier("beta", lambda f: f.kind.is_short)
    return campaign


def _spans(data):
    """``(payload, start, end)`` of each line, *end* past its newline."""
    spans, start = [], 0
    for line in data.split(b"\n")[:-1]:
        spans.append((json.loads(line), start, start + len(line) + 1))
        start += len(line) + 1
    return spans


def _untouched(spans, offset):
    """Lines whose bytes and leading newline are all intact."""
    return [span for span in spans if not span[1] - 1 <= offset < span[2]]


class _Written:
    """A checkpoint's bytes, its line spans, and each record line as
    ``(key, record, start, end)``."""

    def __init__(self, data, decode, key):
        self.data = data
        self.spans = _spans(data)
        self.lines = []
        for payload, start, end in self.spans[1:]:
            record = decode(payload)
            self.lines.append((key(record), record, start, end))

    def whole_before(self, cut):
        return {key: rec for key, rec, _, end in self.lines if end <= cut}


@pytest.fixture(scope="module")
def fault_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fault") / "ckpt.jsonl")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.faults.collapse.FaultCollapser",
                   _SingletonCollapser)
        campaign = stub_campaign()
        result = campaign.run(UNIVERSE, checkpoint=path)
    outcomes = {r.fault.device: r for r in result.records}
    assert outcomes["d2"].outcome == "unsolvable" and outcomes["d2"].errors
    assert outcomes["d3"].errors and outcomes["d3"].outcome == "ok"
    assert outcomes["d5"].collapsed_from == {"alpha": UNIVERSE[4].key()}
    with open(path, "rb") as fh:
        data = fh.read()
    return _Written(data, DetectionRecord.from_dict,
                    lambda rec: rec.fault.key()), result.to_json()


@pytest.fixture(scope="module")
def mc_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mc") / "mc.jsonl")
    campaign = MonteCarloCampaign(tiers=("dc",), seed=7)
    campaign.run(3, checkpoint=path)
    with open(path, "rb") as fh:
        data = fh.read()
    return _Written(data, DieRecord.from_dict, lambda rec: rec.die), campaign


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    with RunTrace(path, context={"job": "j1"}) as trace:
        for i in range(6):
            trace.emit("item_done", item=i, fault=f"cp:d{i}/drain_open")
        trace.emit("run_end", items=6)
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _truncation_holds(checkpoints, written, extra, path):
    """Every cut: load returns exactly the whole-line records, and one
    more append makes them all come back."""
    for cut in range(len(written.data) + 1):
        _write(path, written.data[:cut])
        expected = written.whole_before(cut)
        assert checkpoints.load(path) == expected, cut
        records, out = checkpoints.resume(path)
        with out:
            out.write_line(extra.to_dict())
        assert records == expected, cut
        assert checkpoints.load(path) == \
            {**expected, checkpoints.key(extra): extra}, cut


class TestTruncateEveryByte:
    def test_fault_checkpoint(self, fault_file, tmp_path):
        written, _ = fault_file
        extra = DetectionRecord(F("d9"), tiers={"beta": True})
        _truncation_holds(stub_campaign().checkpoints, written, extra,
                          str(tmp_path / "cut.jsonl"))

    def test_fault_campaign_resumes_identically(self, fault_file,
                                                tmp_path,
                                                singleton_collapser):
        written, uninterrupted = fault_file
        path = str(tmp_path / "cut.jsonl")
        for cut in range(len(written.data) + 1):
            _write(path, written.data[:cut])
            resumed = stub_campaign().run(UNIVERSE, checkpoint=path)
            assert resumed.to_json() == uninterrupted, cut
            with open(path, "rb") as fh:
                assert fh.read() == written.data, cut

    def test_mc_checkpoint(self, mc_file, tmp_path):
        written, campaign = mc_file
        extra = DieRecord(die=9, fault=F("d9"), healthy={"dc": True},
                          detected={"dc": False})
        _truncation_holds(campaign.checkpoints, written, extra,
                          str(tmp_path / "cut.jsonl"))

    def test_run_trace(self, trace_file, tmp_path):
        path = str(tmp_path / "cut.jsonl")
        events = [payload for payload, _, _ in _spans(trace_file)]
        ends = [end for _, _, end in _spans(trace_file)]
        for cut in range(len(trace_file) + 1):
            _write(path, trace_file[:cut])
            whole = sum(1 for end in ends if end <= cut)
            got = read_events(path)
            # a line cut just before its newline still decodes
            assert got == events[:len(got)], cut
            assert whole <= len(got) <= whole + (cut + 1 in ends), cut
            with RunTrace(path) as trace:
                trace.emit("extra")
            after = read_events(path)
            assert after[:len(got)] == got, cut
            assert [e["event"] for e in after[len(got):]] == \
                ["trace_open", "extra"], cut


def _replacement_holds(checkpoints, written, data, path):
    for offset in range(len(written.data)):
        damaged = bytearray(written.data)
        damaged[offset] ^= data.draw(st.integers(1, 255),
                                     label=f"xor@{offset}")
        _write(path, bytes(damaged))
        _events_survive(written.spans, path, offset)
        try:
            loaded = checkpoints.load(path)
        except ValueError:
            continue
        for key, rec, start, end in written.lines:
            if not start - 1 <= offset < end:
                assert loaded[key] == rec, offset


def _events_survive(spans, path, offset):
    """read_events keeps every untouched line's object, in order."""
    got = read_events(path)
    kept = [payload for payload, _, _ in _untouched(spans, offset)]
    assert [event for event in got if event in kept] == kept, offset


class TestReplaceEveryByte:
    @settings(max_examples=4, deadline=None, database=None)
    @given(data=st.data())
    def test_fault_checkpoint(self, fault_file, tmp_path_factory, data):
        written, _ = fault_file
        path = str(tmp_path_factory.mktemp("flip") / "ckpt.jsonl")
        _replacement_holds(stub_campaign().checkpoints, written, data,
                           path)

    @settings(max_examples=4, deadline=None, database=None)
    @given(data=st.data())
    def test_mc_checkpoint(self, mc_file, tmp_path_factory, data):
        written, campaign = mc_file
        path = str(tmp_path_factory.mktemp("flip") / "mc.jsonl")
        _replacement_holds(campaign.checkpoints, written, data, path)

    @settings(max_examples=4, deadline=None, database=None)
    @given(data=st.data())
    def test_run_trace(self, trace_file, tmp_path_factory, data):
        path = str(tmp_path_factory.mktemp("flip") / "trace.jsonl")
        spans = _spans(trace_file)
        for offset in range(len(trace_file)):
            damaged = bytearray(trace_file)
            damaged[offset] ^= data.draw(st.integers(1, 255),
                                         label=f"xor@{offset}")
            _write(path, bytes(damaged))
            _events_survive(spans, path, offset)
