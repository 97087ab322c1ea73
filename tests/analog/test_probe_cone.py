"""The probed transient's cone of influence, one influence rule at a time.

Each netlist makes the probe ``out`` depend on a node ``x`` through one
element only, so the cone must keep ``x`` and the resistor that drives
it.  Every netlist also holds a listener, an inverter-like stage whose
gate reads ``out``: nothing it does reaches ``out``, so the cone must
drop it.  The probed run, which steps the cone, must then agree with
the whole-netlist run (``probes=None``) to rounding.  A transient with
nothing to prune must be that whole-netlist run, bit for bit and
counter for counter.
"""

import numpy as np
import pytest

from repro.analog import Circuit, clock_waveform, step_waveform, transient
from repro.analog.devices import Diode
from repro.analog.transient import probe_cone
from repro.core.profiling import profiled
from repro.dft.duts import build_vcdl_char_dut

#: how far a probed run's waves may sit from the whole-netlist run's [V]
AGREE = 1e-12


def base(name):
    """Supply, a moving source feeding ``x`` through ``RX``, and the
    listener."""
    c = Circuit(name)
    c.add_vsource("vdd", "0", 1.2, name="VDD")
    vx = c.add_vsource("x_src", "0", 0.3, name="VX")
    vx.waveform = clock_waveform(1e-9, v_low=0.2, v_high=0.9,
                                 t_rise=100e-12)
    c.add_resistor("x_src", "x", 2e3, name="RX")
    c.add_capacitor("x", "0", 20e-15, name="CX")
    # the listener: reads out through a gate only
    c.add_resistor("vdd", "lst", 20e3, name="RLST")
    c.add_nmos("lst", "out", "0", name="MLST")
    c.add_capacitor("lst", "0", 5e-15, name="CLST")
    return c


def mosfet_bulk():
    c = base("mosfet_bulk")
    c.add_vsource("vg", "0", 0.7, name="VG")
    c.add_resistor("vdd", "out", 10e3, name="RLOAD")
    c.add_nmos("out", "vg", "0", b="x", name="MPATH")
    return c


def switch_control():
    c = base("switch_control")
    c.add_resistor("vdd", "out", 10e3, name="RLOAD")
    c.add_switch("out", "0", "x", threshold=0.5, r_on=1e3, name="SPATH")
    return c


def vcvs_control():
    c = base("vcvs_control")
    c.add_vcvs("out", "0", "x", "0", 0.5, name="EPATH")
    # out is pinned by the VCVS: its other load cannot move it
    c.add_resistor("out", "z", 1e3, name="RZ")
    c.add_resistor("z", "0", 1e3, name="RZ0")
    return c


def current_source():
    """An ideal source reads no node: its row writes keep it, and the
    rule keeps both its terminals, ``x`` included."""
    c = base("current_source")
    src = c.add_isource("x", "out", 10e-6, name="IPATH")
    src.waveform = clock_waveform(1.5e-9, v_low=0.0, v_high=80e-6)
    c.add_resistor("out", "0", 10e3, name="RLOAD")
    return c


def capacitor():
    c = base("capacitor")
    c.add_capacitor("x", "out", 50e-15, name="CPATH")
    c.add_resistor("out", "0", 10e3, name="RLOAD")
    return c


def floating_vsource():
    c = base("floating_vsource")
    c.add_vsource("out", "x", 0.1, name="VPATH")
    c.add_resistor("out", "0", 10e3, name="RLOAD")
    return c


def fallback_element():
    c = base("fallback_element")
    c.add(Diode("DPATH", "x", "out"))
    c.add_resistor("out", "0", 10e3, name="RLOAD")
    return c


RULES = {
    "mosfet_bulk": (mosfet_bulk, "MPATH"),
    "switch_control": (switch_control, "SPATH"),
    "vcvs_control": (vcvs_control, "EPATH"),
    "current_source": (current_source, "IPATH"),
    "capacitor": (capacitor, "CPATH"),
    "floating_vsource": (floating_vsource, "VPATH"),
    "fallback_element": (fallback_element, "DPATH"),
}


def cone_names(circuit, probes=("out",)):
    return [e.name for e in probe_cone(circuit, list(probes))]


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_probe_keeps_its_one_path_to_x(rule):
    build, path = RULES[rule]
    names = cone_names(build())
    for kept in (path, "RX", "CX", "VX"):
        assert kept in names, (rule, kept)
    for dropped in ("RLST", "MLST", "CLST"):
        assert dropped not in names, (rule, dropped)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_cone_run_agrees_with_the_whole_netlist(rule):
    build, _ = RULES[rule]
    whole = transient(build(), 3e-9, 20e-12)
    cone = transient(build(), 3e-9, 20e-12, probes=["out"])
    assert np.array_equal(cone.time, whole.time)
    assert np.abs(cone.v("out") - whole.v("out")).max() <= AGREE
    # the path is real: out moves through it
    assert np.ptp(whole.v("out")) > 1e-3
    # the listener really moved, and the cone run never stepped it
    assert np.ptp(whole.v("lst")) > 1e-3
    assert set(cone.waves) == {"out"}


def test_pinned_node_takes_influence_only_through_its_source():
    """``out`` is pinned by the VCVS, so its load ``RZ`` writes a row
    that only sets the VCVS branch current: ``RZ`` and ``z`` drop."""
    names = cone_names(vcvs_control())
    assert "RZ" not in names and "RZ0" not in names


def test_a_probe_on_a_pinned_node_keeps_only_its_source():
    assert cone_names(base("pinned"), probes=("x_src",)) == ["VX"]


def test_a_fallback_element_keeps_every_terminal():
    """An element the fast path does not compile couples all of its
    terminals, whatever its stamp reads."""
    c = base("fallback")
    c.add_resistor("out", "0", 10e3, name="RLOAD")
    c.add(Diode("DPATH", "out", "x"))   # cathode on x this time
    assert "RX" in cone_names(c)


def test_cone_keeps_netlist_order():
    c = mosfet_bulk()
    names = cone_names(c)
    assert names == [e.name for e in c if e.name in names]


def test_ground_probe_has_an_empty_cone():
    assert probe_cone(mosfet_bulk(), ["0"]) == []


# ----------------------------------------------------------------------
# nothing to prune: the probed run is the whole-netlist run
# ----------------------------------------------------------------------
def rc_ladder():
    c = Circuit("rc_ladder")
    vs = c.add_vsource("n0", "0", 0.0, name="VS")
    for i in range(8):
        c.add_resistor(f"n{i}", f"n{i + 1}", 500.0)
        c.add_capacitor(f"n{i + 1}", "0", 0.2e-12)
    vs.waveform = step_waveform(0.0, 1.0, 0.1e-9)
    return c


UNPRUNED = {
    "vcdl_char": (lambda: build_vcdl_char_dut(0.45).circuit, ["clk_out"],
                  1.6e-9, 2e-12, "be"),
    "rc_ladder": (rc_ladder, ["n8"], 1e-9, 10e-12, "trap"),
}


@pytest.mark.parametrize("name", sorted(UNPRUNED))
def test_nothing_to_prune_is_bitwise_the_whole_run(name):
    build, probes, t_stop, dt, method = UNPRUNED[name]
    circuit = build()
    assert len(probe_cone(circuit, probes)) == len(circuit)
    with profiled() as counters:
        whole = transient(build(), t_stop, dt, method=method)
    whole_counts = counters.snapshot()
    with profiled() as counters:
        probed = transient(build(), t_stop, dt, probes=probes,
                           method=method)
    assert counters.snapshot() == whole_counts
    assert np.array_equal(probed.time, whole.time)
    for p in probes:
        assert probed.v(p).tobytes() == whole.v(p).tobytes()


# ----------------------------------------------------------------------
# the cone's netlist, cut once per structural revision
# ----------------------------------------------------------------------
def _waves(tr, probes):
    return [tr.v(p).tobytes() for p in probes]


def _mosfet_run(circuit):
    return transient(circuit, 2e-9, 20e-12, probes=["out"])


def test_the_cone_is_cut_and_compiled_once_per_revision():
    """A second probed run of one netlist reuses its cone's netlist and
    plans (no compile) and is bitwise the first; a structural edit
    cuts a new cone."""
    c = mosfet_bulk()
    with profiled() as counters:
        first = _mosfet_run(c)
        compiles = counters.compile_count
    with profiled() as counters:
        again = _mosfet_run(c)
        assert counters.compile_count == 0
    assert compiles > 1
    assert _waves(again, ["out"]) == _waves(first, ["out"])
    assert len(c.cone_cache) == 1
    c.touch()
    assert not c.cone_cache
    assert _waves(_mosfet_run(c), ["out"]) == _waves(first, ["out"])


def test_a_clone_does_not_inherit_the_cone():
    c = mosfet_bulk()
    _mosfet_run(c)
    assert c.cone_cache and not c.clone().cone_cache


def test_retunes_and_source_edits_reach_the_cached_cone():
    """Device parameters changed through ``retune`` and a source's new
    waveform reach the cached cone: each run is bitwise the run of a
    fresh clone, whose cone is cut and compiled anew."""
    c = mosfet_bulk()
    _mosfet_run(c)
    for step in range(3):
        c["MPATH"].w *= 1.3
        c.retune()
        if step == 1:
            c["VX"].waveform = step_waveform(0.1, 1.0, 0.5e-9)
        with profiled() as counters:
            cached = _mosfet_run(c)
            assert counters.plan_retunes > 0
        fresh = _mosfet_run(c.clone())
        assert _waves(cached, ["out"]) == _waves(fresh, ["out"])
