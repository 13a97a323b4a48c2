"""Balance-loss detection and the recovery phase machine.

Standing balance is declared lost when the DCM leaves an elliptical sway
region around the stance reference.  The excursion measure is

    q = ((xi_x - c_x) / a)**2 + ((xi_y - c_y) / b)**2

with strict ``q > 1`` as the outside test, debounced over consecutive
control cycles so a single noisy sample cannot trigger a step.  The
trigger is edge-like: it fires once, moves the phase machine off
``STANDING`` and cannot fire again until the machine has come back.

The legal phase moves are the rows of :data:`TRANSITIONS`, and
:meth:`BalanceDetector.advance` is the one way to make one; any other
move raises :class:`PhaseTransitionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PhaseTransitionError
from .lipm import NONNEGATIVE, POSITIVE, POSITIVE_INT, as_vec2, require

__all__ = [
    "SwayEllipse",
    "RecoveryPhase",
    "BalanceLost",
    "BalanceDetector",
    "TRANSITIONS",
]


@dataclass(frozen=True)
class SwayEllipse:
    """Axis-aligned sway tolerance region around the stance reference."""

    center: tuple[float, float]  # m
    semi_axis_x: float  # m
    semi_axis_y: float  # m

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec2(self.center, "center"))
        require("semi_axis_x", self.semi_axis_x, POSITIVE)
        require("semi_axis_y", self.semi_axis_y, POSITIVE)


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


@dataclass(frozen=True)
class BalanceLost:
    """Trigger event: the debounced DCM excursion left the sway ellipse."""

    time: float  # s
    xi: tuple[float, float]  # m, DCM sample that confirmed the trigger
    excursion: float  # normalised squared excursion at that sample


class BalanceDetector:
    """Stateful detector; feed it one DCM sample per control cycle.

    ``debounce_cycles`` consecutive outside samples are required before
    the trigger fires (1 disables debouncing).  Capture is declared once
    the offset ``|xi - cop|`` passed to :meth:`update_landing` has stayed
    below ``capture_tolerance`` for ``capture_hold`` seconds.  The
    defaults of all three are ``ScenarioConfig``'s.
    """

    def __init__(self, ellipse: SwayEllipse, debounce_cycles: int, capture_tolerance: float,
                 capture_hold: float):
        require("debounce_cycles", debounce_cycles, POSITIVE_INT)
        require("capture_tolerance", capture_tolerance, POSITIVE)
        require("capture_hold", capture_hold, NONNEGATIVE)
        self.ellipse = ellipse
        self.debounce_cycles = int(debounce_cycles)
        self.capture_tolerance = float(capture_tolerance)
        self.capture_hold = float(capture_hold)
        self.phase = STANDING
        self._outside_count = 0
        self._capture_since: float | None = None
        self._last_time = -math.inf

    @property
    def ellipse(self) -> SwayEllipse:
        return self._ellipse

    @ellipse.setter
    def ellipse(self, ellipse: SwayEllipse) -> None:
        # Arming the sway region: update reads its centre and semi-axes as four floats.
        self._ellipse, (self._cx, self._cy) = ellipse, ellipse.center
        self._a, self._b = ellipse.semi_axis_x, ellipse.semi_axis_y

    def _clock(self, t: float) -> float:
        t = float(t)
        if t < self._last_time:
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

    def update(self, xi, t: float) -> BalanceLost | None:
        """One standing-phase sample; returns the trigger event when it fires.

        Outside of ``STANDING`` the sample is ignored, so no trigger can
        occur mid-step.  The excursion is ``q`` of the module docstring.
        """
        # _clock's rule inline; _clock, which raises, runs only for a time before the last.
        t = self._last_time = float(t) if t >= self._last_time else self._clock(t)
        if self.phase is not STANDING:
            return None
        dx, dy = (xi[0] - self._cx) / self._a, (xi[1] - self._cy) / self._b
        q = dx * dx + dy * dy
        if q > 1.0:
            self._outside_count += 1
        else:
            self._outside_count = 0
        if self._outside_count >= self.debounce_cycles:
            self.advance(STEPPING_PLANNED, t)
            return BalanceLost(time=t, xi=as_vec2(xi, "xi"), excursion=float(q))
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
