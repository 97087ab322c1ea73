"""Coarse-correction control FSM (the logic of Fig 8, behavioural).

Runs on the divided clock.  While the fine loop tracks (V_c inside the
window) the FSM idles.  When the window comparator reports V_c outside
the window, the FSM issues a **coarse correction request**:

* the ring counter shifts the DLL phase selection one step — toward an
  *earlier* phase when V_c railed high (the VCDL is already at minimum
  delay and the loop still wants less), toward a *later* phase when V_c
  railed low;
* the strong charge pump drives V_c back inside the window (toward the
  opposite side, re-centring the fine range);
* the lock detector counts the request.

The state machine is deliberately tiny (TRACK / CORRECT) — the paper
notes all this logic is trivially scan-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .charge_pump_beh import ChargePumpBeh
from .lock_detector import LockDetector
from .params import LinkParams
from .ring_counter import RingCounterBeh
from .window_comp_beh import WindowComparatorBeh

#: strong pump target: re-centre V_c this far inside the violated bound
RECENTER_MARGIN = 0.10


@dataclass
class CoarseFSM:
    """TRACK/CORRECT state machine driving the coarse loop."""

    params: LinkParams
    window: WindowComparatorBeh
    pump: ChargePumpBeh
    ring: RingCounterBeh
    lock_detector: LockDetector
    state: str = "TRACK"
    #: direction of an in-progress strong correction (+1/-1), or None
    _correcting: Optional[int] = None

    def evaluate(self, dt_slow: float) -> Tuple[bool, int]:
        """One divided-clock evaluation.

        Returns ``(request_issued, phase_index)``.
        """
        p = self.params
        hi, lo = self.window.evaluate(self.pump.vc)
        request = False

        if self.state == "TRACK":
            if hi:
                # V_c railed high: VCDL at minimum delay, still late ->
                # select the previous (earlier) DLL phase and pull V_c
                # down into the window
                self.ring.shift(-1)
                self.lock_detector.log_coarse_request()
                self._correcting = -1
                self.state = "CORRECT"
                request = True
            elif lo:
                self.ring.shift(+1)
                self.lock_detector.log_coarse_request()
                self._correcting = +1
                self.state = "CORRECT"
                request = True
        else:  # CORRECT: strong pump until V_c is back inside + margin
            direction = self._correcting
            self.pump.strong_step(direction, dt_slow)
            vc = self.pump.vc
            if direction > 0 and vc >= p.v_window_lo + RECENTER_MARGIN:
                self.state = "TRACK"
                self._correcting = None
            elif direction < 0 and vc <= p.v_window_hi - RECENTER_MARGIN:
                self.state = "TRACK"
                self._correcting = None
            # a dead strong pump never reaches the exit condition: the
            # FSM stays in CORRECT and the loop visibly fails to lock

        return request, self.ring.position
