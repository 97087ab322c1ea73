"""MOSFET plans compiled with numpy against the per-device generator form.

``CompiledAssembly._compile_mosfets`` builds its (gm, gds, gms) COO
entries and residual rows from the four terminal arrays at once.  The
reference here is the loop it replaced: three VCCS generators per
device, appended device by device.  The packed arrays must be equal
element for element, in the same order and dtype (``np.add.at``
accumulates duplicates in index order, so the order is part of the
bits), for every bench and for the faulted clone of every fault in the
paper's universe.
"""

import numpy as np
import pytest

from repro.analog import Circuit, get_compiled
from repro.analog.devices import is_ground
from repro.analog.solver import build_index
from repro.analog.transient import probe_cone
from repro.circuits.full_link import build_full_link
from repro.dft.bist import vcdl_char_circuit
from repro.dft.coverage import build_fault_universe
from repro.dft.duts import build_receiver_dut, build_toggle_dut, build_vcdl_dut
from repro.faults.inject import inject_fault


def vccs_entries(op, on, cp, cn, src):
    """COO entries for a VCCS gm*V(cp,cn) flowing op -> on (-1 = ground)."""
    for row, row_sign in ((op, 1.0), (on, -1.0)):
        if row < 0:
            continue
        if cp >= 0:
            yield row, cp, row_sign, src
        if cn >= 0:
            yield row, cn, -row_sign, src


def generator_form(plan):
    """``(flat, sign, src, brow, bsign, bsrc)`` as the per-device loop
    packed them."""
    mosfets = plan._mosfets
    m = len(mosfets)

    def idx(node):
        return -1 if is_ground(node) else plan.node_index[node]

    entries, b_entries = [], []
    for j, e in enumerate(mosfets):
        d, g, s, b = (idx(e.terminals[k]) for k in ("d", "g", "s", "b"))
        entries.extend(vccs_entries(d, s, g, b, j))
        entries.extend(vccs_entries(d, s, d, b, m + j))
        entries.extend(vccs_entries(d, s, s, b, 2 * m + j))
        if d >= 0:
            b_entries.append((d, -1.0, j))
        if s >= 0:
            b_entries.append((s, 1.0, j))
    rows = np.array([e[0] for e in entries], dtype=np.intp)
    cols = np.array([e[1] for e in entries], dtype=np.intp)
    return (rows * plan.n_total + cols,
            np.array([e[2] for e in entries]),
            np.array([e[3] for e in entries], dtype=np.intp),
            np.array([e[0] for e in b_entries], dtype=np.intp),
            np.array([e[1] for e in b_entries]),
            np.array([e[2] for e in b_entries], dtype=np.intp))


def assert_generator_form(circuit):
    node_index, _, n_total = build_index(circuit)
    for mode in ("dc", "tran"):
        plan = get_compiled(circuit, mode, node_index=node_index,
                            n_total=n_total, dt=1e-10)
        got = (*plan._mos_A, plan._mos_brow, plan._mos_bsign,
               plan._mos_bsrc)
        want = generator_form(plan)
        for name, a, b in zip(("flat", "sign", "src", "brow", "bsign",
                               "bsrc"), got, want):
            assert a.dtype == b.dtype, (circuit.name, mode, name)
            assert np.array_equal(a, b), (circuit.name, mode, name)


def toggle_cone():
    """The netlist the toggle transient steps."""
    dut = build_toggle_dut()
    cone = Circuit("toggle_cone")
    for elem in probe_cone(dut.circuit, [dut.vcm_node, dut.ref_node]):
        cone.add(elem.clone())
    return cone


BENCHES = {
    "full_link": lambda: build_full_link().circuit,
    "receiver": lambda: build_receiver_dut().circuit,
    "vcdl": lambda: build_vcdl_dut().circuit,
    "toggle": lambda: build_toggle_dut().circuit,
    "toggle_cone": toggle_cone,
    "vcdl_char": lambda: vcdl_char_circuit(0.45),
}


@pytest.mark.parametrize("bench", sorted(BENCHES))
def test_bench_plans_match_the_generator_form(bench):
    assert_generator_form(BENCHES[bench]())


def test_every_faulted_clone_matches_the_generator_form():
    benches = {"tx": build_full_link().circuit,
               "termination": build_full_link().circuit,
               "cp": build_receiver_dut().circuit,
               "window_comp": build_receiver_dut().circuit,
               "vcdl": build_vcdl_dut().circuit}
    universe = build_fault_universe()
    assert len(universe) == 336
    for fault in universe:
        assert_generator_form(inject_fault(benches[fault.block], fault))
