"""Compiled plans against the forms they replaced.

``CompiledAssembly._compile_mosfets`` builds its (gm, gds, gms) COO
entries and residual rows from the four terminal arrays at once.  The
reference here is the loop it replaced: three VCCS generators per
device, appended device by device.  The packed arrays must be equal
element for element, in the same order and dtype (``np.add.at``
accumulates duplicates in index order, so the order is part of the
bits), for every bench and for the faulted clone of every fault in the
paper's universe.

``CompiledAssembly.assemble`` builds ``b`` with one ``np.bincount`` over
one row list.  The reference is the accumulation it replaced: the
MOSFET residual currents by ``bincount``, then ``np.add.at`` of the
capacitor companions, a fancy-index add of the voltage-source values
and the current-source loop.  The two must agree bitwise, signed zeros
included, in dc and both transient modes, on the same benches and
faulted clones.
"""

import numpy as np
import pytest

from repro.analog import Circuit, get_compiled, step_waveform
from repro.analog.devices import is_ground
from repro.analog.solver import build_index
from repro.analog.transient import probe_cone
from repro.circuits.full_link import build_full_link
from repro.dft.coverage import build_fault_universe
from repro.dft.duts import (build_receiver_dut, build_toggle_dut,
                             build_vcdl_char_dut, build_vcdl_dut)
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


def parent_b(plan, weights, time, xprev):
    """``b`` accumulated term by term as the parent's ``assemble`` did,
    from the MOSFET residual currents of *weights*' head and the
    source and companion terms read from the elements."""
    n_total = plan.n_total
    if plan._mosfets:
        b = np.bincount(plan._mos_brow, weights=weights[:plan._n_mos_b],
                        minlength=n_total)
    else:
        b = np.zeros(n_total)
    if plan.mode == "tran" and plan._caps:
        xpp = np.zeros(n_total + 1)
        xpp[:n_total] = xprev
        ieq = plan._cap_geq * (xpp[plan._cap_p] - xpp[plan._cap_n])
        if plan.method == "trap":
            ieq = ieq + np.array([c.history_current for c in plan._caps])
        np.add.at(b, plan._cap_brow, plan._cap_bsign * ieq[plan._cap_bsrc])
    if plan._vsources:
        b[plan._vs_rows] += np.array([e.value_at(time)
                                      for e in plan._vsources])
    for elem, p, n in plan._isources:
        i = elem.value_at(time)
        if p >= 0:
            b[p] -= i
        if n >= 0:
            b[n] += i
    return b


def assert_parent_b(circuit, seed=0):
    """One-bincount ``b`` == the parent's accumulation, bitwise, at
    random iterates in dc, backward-Euler and trapezoidal modes."""
    rng = np.random.default_rng(seed)
    node_index, _, n_total = build_index(circuit)
    for mode, method in (("dc", "be"), ("tran", "be"), ("tran", "trap")):
        plan = get_compiled(circuit, mode, node_index=node_index,
                            n_total=n_total, dt=1e-11, method=method)
        for cap in plan._caps:
            cap.history_current = float(rng.normal()) * 1e-5
        for time in (0.0, 0.37e-9):
            x = rng.uniform(-0.2, 1.4, n_total)
            xprev = rng.uniform(-0.2, 1.4, n_total)
            weights = plan.solve_invariants(time, xprev)
            _, b = plan.assemble(x, time=time, xprev=xprev,
                                 invariants=weights)
            want = parent_b(plan, weights, time, xprev)
            assert b.dtype == want.dtype, (circuit.name, mode, method)
            assert b.tobytes() == want.tobytes(), (circuit.name, mode,
                                                  method, time)


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
    "vcdl_char": lambda: build_vcdl_char_dut(0.45).circuit,
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


@pytest.mark.parametrize("bench", sorted(BENCHES))
def test_bench_rhs_matches_the_parent_accumulation(bench):
    assert_parent_b(BENCHES[bench]())


def test_every_faulted_clone_rhs_matches_the_parent_accumulation():
    benches = {"tx": build_full_link().circuit,
               "termination": build_full_link().circuit,
               "cp": build_receiver_dut().circuit,
               "window_comp": build_receiver_dut().circuit,
               "vcdl": build_vcdl_dut().circuit}
    universe = build_fault_universe()
    assert len(universe) == 336
    for i, fault in enumerate(universe):
        assert_parent_b(inject_fault(benches[fault.block], fault), seed=i)


def test_rhs_with_current_source_companions_and_signed_zeros():
    """A current source, trapezoidal companions on both sides of a
    node, a MOSFET and sources whose value is -0.0: the rows a current
    source or a -0.0 source alone writes must read +0.0 or the exact
    negated term, as the parent's ``b[p] -= i`` / ``b[k] += v`` left
    them."""
    c = Circuit("signed_zeros")
    c.add_vsource("vdd", "0", 1.2, name="VDD")
    c.add_vsource("z", "0", -0.0, name="VZ")
    c.add_isource("a", "0", 2.5e-4, name="I1")
    c.add_isource("0", "q", -0.0, name="IZ")
    c.add_isource("a", "b", 1.0e-5, name="I2")
    c.add_resistor("a", "z", 1e3)
    c.add_capacitor("a", "0", 1e-13)
    c.add_capacitor("a", "b", 2e-13)
    c.add_capacitor("b", "q", 5e-14)
    c.add_nmos("b", "a", "0", w=1e-6, l=0.13e-6)
    c["VDD"].waveform = step_waveform(0.0, 1.2, 0.1e-9)
    node_index, _, n_total = build_index(c)
    plan = get_compiled(c, "tran", node_index=node_index,
                        n_total=n_total, dt=1e-11, method="trap")
    b = plan.assemble(np.zeros(n_total), xprev=np.zeros(n_total))[1]
    assert np.signbit(b[node_index["q"]]) == np.signbit(0.0 - -0.0)
    assert np.signbit(b[c["VZ"].aux_base]) == np.signbit(0.0 + -0.0)
    for seed in range(4):
        assert_parent_b(c, seed=seed)
