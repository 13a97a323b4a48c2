"""Balance-loss detector: excursion measure, debounce, phase machine."""

import math

import numpy as np
import pytest

from exorecover import (
    BalanceDetector,
    PhaseTransitionError,
    RecoveryPhase,
    ScenarioConfig,
)
from exorecover.detector import TRANSITIONS

from oracle_utils import ellipse_excursion

DEFAULT = ScenarioConfig()


def detector(debounce_cycles=DEFAULT.debounce_cycles, capture_tolerance=DEFAULT.capture_tolerance,
             capture_hold=DEFAULT.capture_hold) -> BalanceDetector:
    """A detector on the 0.05 m circle about the origin with the default
    wearer's settings."""
    return BalanceDetector([0.0, 0.0], 0.05, 0.05, debounce_cycles, capture_tolerance,
                           capture_hold)


def test_update_decides_at_the_ellipse_boundary():
    """On an off-centre ellipse with unequal semi-axes (exact binary
    fractions, so q is exact), the centre and the ends of both axes (q ==
    1) stay inside, the next float past an end is outside, and a trigger
    reports the reference excursion as a Python float, numpy input
    included; each sample is the first of a fresh one-cycle detector."""
    e = ([0.25, -0.5], 0.125, 0.0625)

    def fires(xi):
        excursion = BalanceDetector(*e, 1, 0.02, 0.2).update(xi, 0.0)
        if excursion is not None:
            assert type(excursion) is float
            assert excursion == ellipse_excursion(xi, *e) > 1.0
        return excursion

    for inside in ([0.25, -0.5], [0.375, -0.5], [0.125, -0.5], [0.25, -0.4375], [0.25, -0.5625]):
        assert ellipse_excursion(inside, *e) <= 1.0
        assert fires(inside) is None
    assert ellipse_excursion([0.375, -0.5], *e) == 1.0
    for outside in ([math.nextafter(0.375, 1.0), -0.5], [0.25, math.nextafter(-0.5625, -1.0)],
                    np.array([0.375, -0.4375])):
        assert fires(outside) is not None
    assert fires(np.array([0.375, -0.4375])) == 2.0


def test_boundary_point_does_not_trigger():
    """The outside test is strict: q == 1 exactly is still inside."""
    det = detector(debounce_cycles=1)
    for k in range(50):
        assert det.update([0.05, 0.0], 0.001 * k) is None
    assert det.phase is RecoveryPhase.STANDING


def test_debounce_requires_consecutive_outside_samples():
    det = detector(debounce_cycles=2)
    assert det.update([0.06, 0.0], 0.000) is None  # first outside sample
    assert det.update([0.00, 0.0], 0.001) is None  # back inside, count resets
    assert det.update([0.06, 0.0], 0.002) is None
    excursion = det.update([0.06, 0.0], 0.003)  # second consecutive
    assert excursion == ellipse_excursion([0.06, 0.0], [0.0, 0.0], 0.05, 0.05) > 1.0
    assert det.phase is RecoveryPhase.STEPPING_PLANNED


def test_a_nan_dcm_counts_as_outside():
    """A NaN excursion is not inside the ellipse: it adds to the debounce
    count, as an outside sample does, and fires the trigger with the NaN
    excursion as a float."""
    det = detector(debounce_cycles=2)
    assert det.update([0.06, 0.0], 0.000) is None  # first outside sample
    excursion = det.update([math.nan, 0.0], 0.001)  # second consecutive
    assert type(excursion) is float and math.isnan(excursion)
    assert det.phase is RecoveryPhase.STEPPING_PLANNED
    det = detector(debounce_cycles=1)
    assert math.isnan(det.update(np.array([0.0, math.nan]), 0.0))
    assert det.phase is RecoveryPhase.STEPPING_PLANNED


def test_debounce_cycles_scales():
    for n in (1, 3, 5):
        det = detector(debounce_cycles=n)
        fired_at = None
        for k in range(10):
            if det.update([0.08, 0.0], 0.001 * k) is not None:
                fired_at = k
                break
        assert fired_at == n - 1


def test_trigger_is_edge_like():
    det = detector(debounce_cycles=1)
    assert det.update([0.08, 0.0], 0.0) is not None
    # Further outside samples while not standing are ignored.
    assert det.update([0.20, 0.0], 0.001) is None
    assert det.update([0.20, 0.0], 0.002) is None
    assert det.phase is RecoveryPhase.STEPPING_PLANNED


def test_full_phase_cycle_with_capture():
    det = detector(debounce_cycles=1, capture_tolerance=0.02, capture_hold=0.2)
    assert det.update([0.08, 0.0], 0.0) is not None
    det.advance(RecoveryPhase.SWING, 0.001)
    assert det.phase is RecoveryPhase.SWING
    det.advance(RecoveryPhase.LANDED, 0.3)
    assert det.phase is RecoveryPhase.LANDED
    t = 0.3
    captured = False
    while t < 0.6:
        t += 0.001
        captured = det.update_landing(0.005, t)  # |xi - cop| = 5 mm
        if captured:
            break
    assert captured
    assert det.phase is RecoveryPhase.CAPTURED
    # Hold time: first sample inside at 0.301, capture at >= 0.501.
    assert t == pytest.approx(0.501, abs=1e-9)
    det.advance(RecoveryPhase.STANDING, t + 0.001)
    assert det.phase is RecoveryPhase.STANDING


def test_capture_hold_resets_when_dcm_escapes():
    det = detector(debounce_cycles=1, capture_tolerance=0.02, capture_hold=0.1)
    det.update([0.08, 0.0], 0.0)
    det.advance(RecoveryPhase.SWING, 0.001)
    det.advance(RecoveryPhase.LANDED, 0.2)
    assert not det.update_landing(0.01, 0.25)  # inside, hold starts
    assert not det.update_landing(0.05, 0.30)  # outside, resets
    assert not det.update_landing(0.01, 0.32)  # inside again
    assert not det.update_landing(0.01, 0.41)
    assert det.update_landing(0.01, 0.42)  # 0.1 s after 0.32
    assert det.phase is RecoveryPhase.CAPTURED


def test_capture_tolerance_is_euclidean():
    det = detector(debounce_cycles=1, capture_tolerance=0.02, capture_hold=0.0)
    det.update([0.08, 0.0], 0.0)
    det.advance(RecoveryPhase.SWING, 0.001)
    det.advance(RecoveryPhase.LANDED, 0.2)
    # The caller passes the Euclidean offset |xi - cop|:
    # sqrt(0.015^2 + 0.015^2) = 0.0212 > 0.02 is not captured.
    assert not det.update_landing(math.hypot(0.015, 0.015), 0.3)
    # 0.019 < 0.02 with zero hold captures immediately.
    assert det.update_landing(0.019, 0.31)


def test_chained_step_restarts_without_capture():
    det = detector(debounce_cycles=1)
    det.update([0.08, 0.0], 0.0)
    det.advance(RecoveryPhase.SWING, 0.001)
    det.advance(RecoveryPhase.LANDED, 0.2)
    assert not det.update_landing(0.2, 0.21)
    det.advance(RecoveryPhase.STEPPING_PLANNED, 0.211)
    assert det.phase is RecoveryPhase.STEPPING_PLANNED
    det.advance(RecoveryPhase.SWING, 0.212)
    det.advance(RecoveryPhase.LANDED, 0.5)
    assert det.phase is RecoveryPhase.LANDED


def reach(phase: RecoveryPhase) -> BalanceDetector:
    """A detector brought to ``phase`` by legal moves made at t <= 0.003."""
    det = detector(debounce_cycles=1, capture_hold=0.0)
    if phase is RecoveryPhase.STANDING:
        return det
    det.update([0.08, 0.0], 0.0)
    if phase is RecoveryPhase.STEPPING_PLANNED:
        return det
    det.advance(RecoveryPhase.SWING, 0.001)
    if phase is RecoveryPhase.SWING:
        return det
    det.advance(RecoveryPhase.LANDED, 0.002)
    if phase is RecoveryPhase.CAPTURED:
        assert det.update_landing(0.0, 0.003)
    return det


def test_invalid_transitions_raise():
    """Every move the table leaves out, self-moves included, raises from a
    detector brought to its start by legal moves, and leaves it there; so
    does a landing sample outside ``LANDED``."""
    illegal = [(a, b) for a in RecoveryPhase for b in RecoveryPhase if b not in TRANSITIONS[a]]
    assert len(illegal) == 19
    assert all((phase, phase) in illegal for phase in RecoveryPhase)
    for start, target in illegal:
        det = reach(start)
        assert det.phase is start
        with pytest.raises(PhaseTransitionError, match=f"from {start.value} to {target.value}$"):
            det.advance(target, 0.004)
        assert det.phase is start
    for start in RecoveryPhase:
        if start is not RecoveryPhase.LANDED:
            det = reach(start)
            with pytest.raises(PhaseTransitionError, match=f"currently {start.value}$"):
                det.update_landing(0.0, 0.004)
            assert det.phase is start


def test_time_must_be_nondecreasing():
    det = detector()
    det.update([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        det.update([0.0, 0.0], 0.5)


def test_update_outside_standing_is_inert_but_advances_clock():
    det = detector(debounce_cycles=1)
    det.update([0.08, 0.0], 0.0)
    assert det.update([0.5, 0.5], 1.0) is None
    with pytest.raises(ValueError):
        det.advance(RecoveryPhase.SWING, 0.5)  # clock already advanced to 1.0
    det.advance(RecoveryPhase.SWING, 1.0)


def test_constructor_validation():
    for bad in (0, 1.5, True, False):  # a bool is an Integral, but not a count
        with pytest.raises(ValueError, match="debounce_cycles"):
            detector(debounce_cycles=bad)
    assert detector(debounce_cycles=np.int64(2)).debounce_cycles == 2
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="capture_tolerance"):
            detector(capture_tolerance=bad)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="capture_hold"):
            detector(capture_hold=bad)
    for region, message in ((([0.0], 0.05, 0.05), "center must have exactly 2 components"),
                            (([0.0, math.nan], 0.05, 0.05), "center must be finite"),
                            (([0.0, 0.0], 0.0, 0.05), "semi_axis_x must be positive, got 0.0"),
                            (([0.0, 0.0], 0.05, -1.0), "semi_axis_y must be positive, got -1.0"),
                            (([0.0, 0.0], 0.05, math.inf), "semi_axis_y must be finite, got inf")):
        with pytest.raises(ValueError, match=f"^{message}"):
            BalanceDetector(*region, 1, 0.02, 0.2)


def test_rearm_moves_the_centre_and_checks_it():
    """``rearm`` centres the region on its argument, checked as the
    constructor checks ``center``; a refused centre leaves the region."""
    det = BalanceDetector([0.0, 0.0], 0.125, 0.0625, 1, 0.02, 0.2)
    det.rearm(np.array([0.25, -0.5]))
    for bad, message in (([0.0, 0.0, 0.0], "center must have exactly 2 components"),
                         ((math.inf, 0.0), "center must be finite")):
        with pytest.raises(ValueError, match=f"^{message}"):
            det.rearm(bad)
    assert det.update([0.25, -0.5], 0.0) is None
    assert det.update([0.375, -0.5], 0.001) is None  # on the boundary
    excursion = det.update([0.375, -0.4375], 0.002)
    assert type(excursion) is float
    assert excursion == ellipse_excursion([0.375, -0.4375], [0.25, -0.5], 0.125, 0.0625) == 2.0


#: One timed call of each kind on a detector, at time ``t``.
TIMED_CALLS = {
    "update": lambda det, t: det.update([0.0, 0.0], t),
    "update_landing": lambda det, t: det.update_landing(0.5, t),
    "advance": lambda det, t: det.advance(RecoveryPhase.STEPPING_PLANNED, t),
}


@pytest.mark.parametrize("call", TIMED_CALLS)
def test_a_nan_time_leaves_the_clock(call):
    """A NaN time is not at or after the last one: each timed call refuses
    it, and an earlier time after it is still refused."""
    det = reach(RecoveryPhase.LANDED)
    det.update([0.0, 0.0], 0.5)  # inert outside Standing, but sets the clock
    for t, message in ((math.nan, "got nan after 0.5"), (0.1, "got 0.1 after 0.5")):
        with pytest.raises(ValueError, match=f"^time must be nondecreasing, {message}$"):
            TIMED_CALLS[call](det, t)
    assert det.phase is RecoveryPhase.LANDED
    with pytest.raises(ValueError, match="^time must be nondecreasing, got nan after -inf$"):
        TIMED_CALLS[call](detector(), math.nan)


def test_random_walk_triggers_match_reference_counter():
    """Seeded random DCM walk against an independent debounce counter."""
    rng = np.random.default_rng(88)
    for _ in range(20):
        n_deb = int(rng.integers(1, 4))
        det = detector(debounce_cycles=n_deb)
        count = 0
        fired = None
        for k in range(400):
            xi = rng.normal(scale=0.04, size=2)
            q = (xi[0] / 0.05) ** 2 + (xi[1] / 0.05) ** 2
            expect_count = count + 1 if q > 1.0 else 0
            got = det.update(xi, 0.001 * k)
            if expect_count >= n_deb and fired is None:
                assert got is not None
                fired = k
            elif fired is None:
                assert got is None
                count = expect_count
            else:
                assert got is None  # machine left STANDING, stays quiet
        if fired is None:
            assert det.phase is RecoveryPhase.STANDING
