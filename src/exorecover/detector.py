"""Balance-loss detection and the recovery phase machine.

Standing balance is declared lost when the DCM leaves an elliptical sway
region around the stance reference.  The excursion measure is

    q = ((xi_x - c_x) / a)**2 + ((xi_y - c_y) / b)**2

with strict ``q > 1`` as the outside test (a NaN ``q`` is outside too),
debounced over consecutive control cycles so a single noisy sample
cannot trigger a step.  The detector holds the region as the four
floats ``c_x, c_y, a, b``, and :meth:`BalanceDetector.update` returns
``q`` when the trigger fires.
The trigger is edge-like: it fires once, moves the phase machine off
``STANDING`` and cannot fire again until the machine has come back, and
:meth:`BalanceDetector.rearm` re-centres the region after a capture.

The legal phase moves are the rows of :data:`TRANSITIONS`, and
:meth:`BalanceDetector.advance` is the one way to make one; any other
move raises :class:`PhaseTransitionError`.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import PhaseTransitionError
from .lipm import NONNEGATIVE, POSITIVE, POSITIVE_INT, as_vec2, require

__all__ = [
    "RecoveryPhase",
    "BalanceDetector",
    "TRANSITIONS",
]


class RecoveryPhase(Enum):
    STANDING = "Standing"
    STEPPING_PLANNED = "SteppingPlanned"
    SWING = "Swing"
    LANDED = "Landed"
    CAPTURED = "Captured"


#: The phases under module names, for the per-tick tests: on Python 3.11 a
#: member read off the class goes through ``EnumType.__getattr__`` (about
#: 165 ns against 15 ns for a global).
STANDING, STEPPING_PLANNED, SWING, LANDED, CAPTURED = RecoveryPhase

#: The phases each phase may move to.  ``LANDED`` ends in ``CAPTURED``
#: (the DCM held on the new CoP for the capture hold) or chains another
#: step; ``CAPTURED`` re-arms the detector.
TRANSITIONS: dict[RecoveryPhase, tuple[RecoveryPhase, ...]] = {
    RecoveryPhase.STANDING: (RecoveryPhase.STEPPING_PLANNED,),
    RecoveryPhase.STEPPING_PLANNED: (RecoveryPhase.SWING,),
    RecoveryPhase.SWING: (RecoveryPhase.LANDED,),
    RecoveryPhase.LANDED: (RecoveryPhase.CAPTURED, RecoveryPhase.STEPPING_PLANNED),
    RecoveryPhase.CAPTURED: (RecoveryPhase.STANDING,),
}


class BalanceDetector:
    """Stateful detector; feed it one DCM sample per control cycle.

    The sway region is the axis-aligned ellipse about ``center`` with
    semi-axes ``semi_axis_x`` and ``semi_axis_y`` (m); :meth:`rearm`
    moves its centre.  ``debounce_cycles`` consecutive outside samples
    are required before the trigger fires (1 disables debouncing).
    Capture is declared once the offset ``|xi - cop|`` passed to
    :meth:`update_landing` has stayed below ``capture_tolerance`` for
    ``capture_hold`` seconds.  The defaults of all five numbers are
    ``ScenarioConfig``'s.
    """

    def __init__(self, center, semi_axis_x: float, semi_axis_y: float, debounce_cycles: int,
                 capture_tolerance: float, capture_hold: float):
        self.rearm(center)
        require("semi_axis_x", semi_axis_x, POSITIVE)
        require("semi_axis_y", semi_axis_y, POSITIVE)
        require("debounce_cycles", debounce_cycles, POSITIVE_INT)
        require("capture_tolerance", capture_tolerance, POSITIVE)
        require("capture_hold", capture_hold, NONNEGATIVE)
        # update reads the sway region as four floats: _cx and _cy (rearm's), _a and _b.
        self._a, self._b = float(semi_axis_x), float(semi_axis_y)
        self.debounce_cycles = int(debounce_cycles)
        self.capture_tolerance = float(capture_tolerance)
        self.capture_hold = float(capture_hold)
        self.phase = STANDING
        self._outside_count = 0
        self._capture_since: float | None = None
        self._last_time = -math.inf

    def rearm(self, center) -> None:
        """Centre the sway region on ``center`` (the controller, on capture)."""
        self._cx, self._cy = as_vec2(center, "center")

    def _clock(self, t: float) -> float:
        t = float(t)
        # Written as a failed >= so that a NaN, which compares false, is refused.
        if not t >= self._last_time:
            raise ValueError(f"time must be nondecreasing, got {t} after {self._last_time}")
        self._last_time = t
        return t

    def advance(self, phase: RecoveryPhase, t: float) -> None:
        """Move to ``phase`` at ``t``; a move not in :data:`TRANSITIONS` raises."""
        self._clock(t)
        if phase not in TRANSITIONS[self.phase]:
            raise PhaseTransitionError(
                f"no transition from {self.phase.value} to {phase.value}"
            )
        self.phase = phase
        self._outside_count = 0
        self._capture_since = None

    def update(self, xi, t: float) -> float | None:
        """One standing-phase sample; returns the excursion ``q`` of the module
        docstring, as a Python float, when the trigger fires, else None.

        Outside of ``STANDING`` the sample is ignored, so no trigger can
        occur mid-step.
        """
        # _clock's rule inline; _clock, which raises, runs only for an earlier time or a NaN.
        t = self._last_time = float(t) if t >= self._last_time else self._clock(t)
        if self.phase is not STANDING:
            return None
        dx, dy = (xi[0] - self._cx) / self._a, (xi[1] - self._cy) / self._b
        q = dx * dx + dy * dy
        # Written as a failed <= so that a NaN DCM counts as outside.
        if not q <= 1.0:
            self._outside_count += 1
        else:
            self._outside_count = 0
        if self._outside_count >= self.debounce_cycles:
            self.advance(STEPPING_PLANNED, t)
            return float(q)
        return None

    def update_landing(self, offset: float, t: float) -> bool:
        """One post-landing sample of ``|xi - cop|``; True exactly when capture is declared."""
        t = self._clock(t)
        if self.phase is not LANDED:
            raise PhaseTransitionError(
                f"update_landing requires phase Landed, currently {self.phase.value}"
            )
        if offset < self.capture_tolerance:
            if self._capture_since is None:
                self._capture_since = t
            if t - self._capture_since >= self.capture_hold - 1e-12:
                self.advance(CAPTURED, t)
                return True
        else:
            self._capture_since = None
        return False
