"""The toggle test steps its cone: held to the whole-netlist transient.

The scan tier's toggle transient probes only the termination bias
(``term_vcm`` against ``term_vcm_ref``), so it steps the probes' cone
of influence, which leaves out the two offset comparators and both
halves of the bias window comparator (only the DC test reads them).
The oracle is the same engine on the whole netlist (``probes=None``).
Every run here goes to full length: the healthy bench and every
tx/termination fault of the universe must give a toggle excursion
within :data:`AGREE` of the oracle's, with the same verdict, and
perturbing any element the cone drops must leave the oracle's probes
where they were.
"""

import numpy as np
import pytest

from repro.analog import MOSFET, Resistor, transient
from repro.analog.transient import probe_cone
from repro.dft.coverage import build_fault_universe
from repro.dft.duts import build_toggle_dut
from repro.dft.golden import GoldenSignatures
from repro.dft.scan_test import TOGGLE_MASK, TOGGLE_THRESHOLD
from repro.faults.inject import inject_fault
from repro.faults.model import FaultKind, StructuralFault

#: how far a cone run's probes may sit from the whole-netlist run's [V]
AGREE = 1e-12
T_STOP, DT = 25e-9, 0.1e-9

#: the termination's test comparators: only the DC test reads them
DROPPED_PREFIXES = ("term_cpp_", "term_cpn_", "term_win_hi_", "term_win_lo_")


@pytest.fixture(scope="module")
def retention():
    return GoldenSignatures().retention_link


def toggle_bench(fault=None, retention=None):
    dut = build_toggle_dut()
    circuit = dut.circuit
    if fault is not None:
        circuit = inject_fault(circuit, fault, retention=retention)
    return circuit, [dut.vcm_node, dut.ref_node]


def excursion(tr, vcm, ref):
    return float(np.abs(tr.vdiff(vcm, ref))[tr.time > TOGGLE_MASK].max())


def probe_cone_nodes(circuit, probes):
    return {n for e in probe_cone(circuit, probes)
            for n in e.terminals.values()}


def dropped(circuit, probes):
    kept = {e.name for e in probe_cone(circuit, probes)}
    return [e for e in circuit if e.name not in kept]


def test_cone_drops_exactly_the_test_comparators():
    circuit, probes = toggle_bench()
    cone = probe_cone(circuit, probes)
    lost = sorted(set(circuit.nodes()) - probe_cone_nodes(circuit, probes))
    assert len(circuit.nodes()) == 41 and len(lost) == 20
    assert all(n.startswith(DROPPED_PREFIXES) or n in (
        "term_cmp_pos", "term_cmp_neg", "term_win_hi", "term_win_lo")
        for n in lost)
    mos = circuit.elements_of_type(MOSFET)
    assert len(mos) == 44
    assert sum(isinstance(e, MOSFET) for e in cone) == 16
    assert all(e.name.startswith(DROPPED_PREFIXES)
               for e in dropped(circuit, probes))


def test_a_comparator_tied_back_to_the_line_stays_in_the_cone():
    """An input gate-source short loads the bias node through the
    comparator's tail, so the whole comparator is back in the cone,
    and the cone run still agrees with the whole netlist."""
    fault = StructuralFault("term_cpp_MINN", FaultKind.GATE_SOURCE_SHORT,
                            "termination", "dft_comparator")
    circuit, probes = toggle_bench(fault)
    names = {e.name for e in probe_cone(circuit, probes)}
    assert {"term_cpp_MINP", "term_cpp_MINN", "term_cpp_MT",
            "term_cpp_MLD", "term_cpp_MLO", "term_cpp_RB1"} <= names
    assert not any(n.startswith("term_cpn_") for n in names)
    whole = transient(circuit.clone(), T_STOP, DT)
    cone = transient(circuit, T_STOP, DT, probes=probes)
    for p in probes:
        assert np.abs(cone.v(p) - whole.v(p)).max() <= AGREE


def test_first_sample_is_the_whole_netlist_operating_point():
    circuit, probes = toggle_bench()
    whole = transient(circuit.clone(), 2 * DT, DT)
    cone = transient(circuit, 2 * DT, DT, probes=probes)
    for p in probes:
        assert cone.v(p)[0] == whole.v(p)[0]


TOGGLE_UNIVERSE = [None] + [f for f in build_fault_universe()
                            if f.block in ("tx", "termination")]


def test_every_toggle_fault_agrees_with_the_whole_netlist(retention):
    assert len(TOGGLE_UNIVERSE) == 101
    moved = []
    for fault in TOGGLE_UNIVERSE:
        circuit, probes = toggle_bench(fault, retention)
        whole = transient(circuit.clone(), T_STOP, DT)
        cone = transient(circuit, T_STOP, DT, probes=probes)
        gap = max(float(np.abs(cone.v(p) - whole.v(p)).max())
                  for p in probes)
        want, got = excursion(whole, *probes), excursion(cone, *probes)
        if (gap > AGREE or abs(got - want) > AGREE
                or (got > TOGGLE_THRESHOLD) != (want > TOGGLE_THRESHOLD)):
            moved.append((str(fault), gap, want, got))
    assert not moved


def flipped(circuit, name, v0):
    """A clone of *circuit* with element *name* disturbed: a MOSFET's
    gate moved to the rail that turns it the other way at the operating
    point (``v0(node)``), a resistor doubled."""
    twin = circuit.clone()
    elem = twin[name]
    if isinstance(elem, MOSFET):
        t = elem.terminals
        nmos = elem.params.polarity == "n"
        vgs = v0(t["g"]) - v0(t["s"])
        on = (vgs if nmos else -vgs) > elem.params.vt0
        t["g"] = "0" if on == nmos else "vdd"
        twin.touch()
    else:
        assert isinstance(elem, Resistor), name
        elem.resistance *= 2.0
    return twin


def test_perturbing_a_dropped_element_leaves_the_probes():
    circuit, probes = toggle_bench()
    base = transient(circuit.clone(), T_STOP, DT)
    names = [e.name for e in dropped(circuit, probes)]
    assert len(names) == 36
    kept = probe_cone_nodes(circuit, probes)
    lost = [n for n in base.waves if n not in kept]
    for name in names:
        twin = flipped(circuit, name, lambda n: base.v(n)[0])
        run = transient(twin, T_STOP, DT)
        for p in probes:
            assert np.abs(run.v(p) - base.v(p)).max() <= AGREE, name
        # the perturbation is real: a node outside the cone moved
        moved = max(float(np.abs(run.v(n) - base.v(n)).max()) for n in lost)
        assert moved > 1e-3, name
