"""Bench: the Section II-A static design point — 60 mV logic swing,
30 mV comparator input, ~15 mV programmed offsets — and the healthy DC
test signature on the transistor-level full link.
"""


from repro.analog import dc_operating_point
from repro.circuits import build_full_link, measure_trip_offset
from repro.dft.duts import run_link_static


def characterise_link():
    link = build_full_link()
    signatures = run_link_static(link)[0]
    link.apply_data(1)
    op = dc_operating_point(link.circuit)
    vcm = op.v(link.term.vcm)
    dev_p = op.v("rx_p") - vcm
    dev_n = op.v("rx_n") - vcm
    return signatures, dev_p, dev_n, vcm, op.v(link.term.vcm_ref)


def test_bench_dc_levels(benchmark):
    signatures, dev_p, dev_n, vcm, vref = benchmark.pedantic(
        characterise_link, rounds=1, iterations=1)

    # the paper's static design point (its "30 mV comparator input")
    assert 0.02 < dev_p < 0.05
    assert -0.05 < dev_n < -0.02
    assert abs(vcm - vref) < 0.01
    # healthy two-pattern signature: mirrored comparators, quiet window
    assert signatures[1]["cmp_pos"] == 1 and signatures[1]["cmp_neg"] == 0
    assert signatures[0]["cmp_pos"] == 0 and signatures[0]["cmp_neg"] == 1
    for bit in (0, 1):
        assert signatures[bit]["win_hi"] == 0
        assert signatures[bit]["win_lo"] == 0

    swing = dev_p - dev_n
    print("\n[Section II-A] static levels on the transistor-level link")
    print(f"  arm deviations      : {dev_p * 1e3:+.1f} / {dev_n * 1e3:+.1f} mV "
          "(paper: ~+-30 mV comparator input)")
    print(f"  differential swing  : {swing * 1e3:.1f} mV (paper: 60 mV)")
    print(f"  bias error          : {(vcm - vref) * 1e3:+.1f} mV "
          "(inside the +-15 mV window)")


def test_bench_comparator_offsets(benchmark):
    """The deliberately mismatched input pair programs ~15 mV offsets."""

    def measure():
        return (measure_trip_offset(offset_polarity=+1),
                measure_trip_offset(offset_polarity=-1))

    off_pos, off_neg = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert 8e-3 < off_pos < 25e-3
    assert -25e-3 < off_neg < -8e-3
    print(f"\n[Fig 5/6] programmed comparator offsets: "
          f"{off_pos * 1e3:+.1f} mV / {off_neg * 1e3:+.1f} mV "
          "(paper: +-15 mV from the 0.8u/0.5u vs 0.5u/0.5u pair)")
