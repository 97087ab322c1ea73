"""Direct tests of the coarse-correction FSM (TRACK/CORRECT)."""


from repro.link import (
    ChargePumpBeh,
    CoarseFSM,
    LinkParams,
    LockDetector,
    RECENTER_MARGIN,
    RingCounterBeh,
    WindowComparatorBeh,
)


def make_fsm(params=None, vc=0.6):
    p = params or LinkParams()
    pump = ChargePumpBeh(p)
    pump.reset(vc)
    fsm = CoarseFSM(p, WindowComparatorBeh(p), pump, RingCounterBeh(p),
                    LockDetector(p))
    return fsm, pump


DT = 16 * 0.4e-9   # one divided-clock period


class TestTrackState:
    def test_idle_in_window(self):
        fsm, _ = make_fsm(vc=0.6)
        request, pos = fsm.evaluate(DT)
        assert not request
        assert fsm.state == "TRACK"
        assert pos == 0


class TestCoarseRequest:
    def test_high_exit_steps_phase_down(self):
        fsm, pump = make_fsm(vc=0.80)   # above V_H
        request, pos = fsm.evaluate(DT)
        assert request
        assert pos == 9                  # -1 modulo 10
        assert fsm.state == "CORRECT"
        assert fsm.lock_detector.count == 1

    def test_low_exit_steps_phase_up(self):
        fsm, pump = make_fsm(vc=0.40)
        request, pos = fsm.evaluate(DT)
        assert request
        assert pos == 1
        assert fsm.lock_detector.count == 1

    def test_correct_state_pulls_vc_back(self):
        fsm, pump = make_fsm(vc=0.80)
        fsm.evaluate(DT)                 # request, enter CORRECT (down)
        for _ in range(50):
            fsm.evaluate(DT)
            if fsm.state == "TRACK":
                break
        assert fsm.state == "TRACK"
        p = LinkParams()
        assert pump.vc <= p.v_window_hi - RECENTER_MARGIN + 1e-9
        assert pump.vc >= p.v_window_lo

    def test_no_new_request_while_correcting(self):
        fsm, pump = make_fsm(vc=0.80)
        fsm.evaluate(DT)
        count_after_first = fsm.lock_detector.count
        fsm.evaluate(DT)                 # still correcting
        assert fsm.lock_detector.count == count_after_first

    def test_dead_strong_pump_stalls_in_correct(self):
        p = LinkParams(strong_dn_dead=True)
        fsm, pump = make_fsm(params=p, vc=0.80)
        fsm.evaluate(DT)
        for _ in range(100):
            fsm.evaluate(DT)
        assert fsm.state == "CORRECT"    # never recovers -> BIST-visible

    def test_stuck_window_hi_thrashes(self):
        """A stuck-high window comparator issues endless requests."""
        p = LinkParams(window_hi_stuck=1)
        fsm, pump = make_fsm(params=p, vc=0.6)
        for _ in range(200):
            fsm.evaluate(DT)
        assert fsm.lock_detector.count == fsm.lock_detector.max_count

    def test_requests_saturate_lock_detector(self):
        fsm, pump = make_fsm(vc=0.6)
        for _ in range(20):
            fsm.ring.shift(+1)
            fsm.lock_detector.log_coarse_request()
        assert fsm.lock_detector.count == 7
