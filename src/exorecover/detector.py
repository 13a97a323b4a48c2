"""Balance-loss detection and the recovery phase machine.

Standing balance is declared lost when the DCM leaves an elliptical sway
region around the stance reference.  The excursion measure is

    q = ((xi_x - c_x) / a)**2 + ((xi_y - c_y) / b)**2

with strict ``q > 1`` as the outside test, debounced over consecutive
control cycles so a single noisy sample cannot trigger a step.  The
trigger is edge-like: it fires once, moves the phase machine off
``STANDING`` and cannot fire again until the machine has come back.

Phases advance ``STANDING -> STEPPING_PLANNED -> SWING -> LANDED`` and
from ``LANDED`` either to ``CAPTURED`` (DCM pinned to the new CoP for a
sustained hold) or back to ``STEPPING_PLANNED`` for a chained step.
Any other transition raises :class:`PhaseTransitionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

from .errors import PhaseTransitionError
from .lipm import as_vec2

__all__ = [
    "SwayEllipse",
    "RecoveryPhase",
    "BalanceLost",
    "BalanceDetector",
    "ellipse_excursion",
]


@dataclass(frozen=True)
class SwayEllipse:
    """Axis-aligned sway tolerance region around the stance reference."""

    center: tuple[float, float]  # m
    semi_axis_x: float  # m
    semi_axis_y: float  # m

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec2(self.center, "center"))
        for name in ("semi_axis_x", "semi_axis_y"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive, got {v}")


def ellipse_excursion(xi, ellipse: SwayEllipse) -> float:
    """Normalised squared excursion; 1.0 on the boundary, > 1 outside."""
    dx = (xi[0] - ellipse.center[0]) / ellipse.semi_axis_x
    dy = (xi[1] - ellipse.center[1]) / ellipse.semi_axis_y
    return float(dx * dx + dy * dy)


class RecoveryPhase(Enum):
    STANDING = "Standing"
    STEPPING_PLANNED = "SteppingPlanned"
    SWING = "Swing"
    LANDED = "Landed"
    CAPTURED = "Captured"


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
        if not isinstance(debounce_cycles, Integral) or debounce_cycles < 1:
            raise ValueError(f"debounce_cycles must be an integer >= 1, got {debounce_cycles}")
        if not (0.0 < capture_tolerance < math.inf):
            raise ValueError(f"capture_tolerance must be positive and finite, got {capture_tolerance}")
        if not (0.0 <= capture_hold < math.inf):
            raise ValueError(f"capture_hold must be >= 0 and finite, got {capture_hold}")
        self.ellipse = ellipse
        self.debounce_cycles = int(debounce_cycles)
        self.capture_tolerance = float(capture_tolerance)
        self.capture_hold = float(capture_hold)
        self.phase = RecoveryPhase.STANDING
        self.trigger: BalanceLost | None = None
        self._outside_count = 0
        self._capture_since: float | None = None
        self._last_time = -math.inf

    def _clock(self, t: float) -> float:
        t = float(t)
        if t < self._last_time:
            raise ValueError(f"time must be nondecreasing, got {t} after {self._last_time}")
        self._last_time = t
        return t

    def update(self, xi, t: float) -> BalanceLost | None:
        """One standing-phase sample; returns the trigger event when it fires.

        Outside of ``STANDING`` the sample is ignored, so no trigger can
        occur mid-step.
        """
        t = float(t)  # _clock, inline: this runs on every standing tick
        if t < self._last_time:
            raise ValueError(f"time must be nondecreasing, got {t} after {self._last_time}")
        self._last_time = t
        if self.phase is not RecoveryPhase.STANDING:
            return None
        q = ellipse_excursion(xi, self.ellipse)
        if q > 1.0:
            self._outside_count += 1
        else:
            self._outside_count = 0
        if self._outside_count >= self.debounce_cycles:
            self.phase = RecoveryPhase.STEPPING_PLANNED
            self.trigger = BalanceLost(time=t, xi=as_vec2(xi, "xi"), excursion=q)
            self._outside_count = 0
            return self.trigger
        return None

    def start_swing(self, t: float) -> None:
        self._clock(t)
        self._require(RecoveryPhase.STEPPING_PLANNED, "start_swing")
        self.phase = RecoveryPhase.SWING

    def touchdown(self, t: float) -> None:
        self._clock(t)
        self._require(RecoveryPhase.SWING, "touchdown")
        self.phase = RecoveryPhase.LANDED
        self._capture_since = None

    def update_landing(self, offset: float, t: float) -> bool:
        """One post-landing sample of ``|xi - cop|``; True exactly when capture is declared."""
        t = self._clock(t)
        self._require(RecoveryPhase.LANDED, "update_landing")
        if offset < self.capture_tolerance:
            if self._capture_since is None:
                self._capture_since = t
            if t - self._capture_since >= self.capture_hold - 1e-12:
                self.phase = RecoveryPhase.CAPTURED
                return True
        else:
            self._capture_since = None
        return False

    def restart_step(self, t: float) -> None:
        """Chain another step out of ``LANDED``."""
        self._clock(t)
        self._require(RecoveryPhase.LANDED, "restart_step")
        self.phase = RecoveryPhase.STEPPING_PLANNED
        self._capture_since = None

    def stand(self, t: float) -> None:
        """Re-arm the detector after a successful capture."""
        self._clock(t)
        self._require(RecoveryPhase.CAPTURED, "stand")
        self.phase = RecoveryPhase.STANDING
        self.trigger = None
        self._outside_count = 0
        self._capture_since = None

    def _require(self, phase: RecoveryPhase, op: str) -> None:
        if self.phase is not phase:
            raise PhaseTransitionError(
                f"{op} requires phase {phase.value}, currently {self.phase.value}"
            )
