"""Omnidirectional push-recovery step planning and simulation.

The package models a wearer of a lower-limb exoskeleton as a planar
linear inverted pendulum, watches the divergent component of motion
(DCM) for balance loss, adapts a recovery step (landing point and step
duration) with a small quadratic program, swings the foot along quintic
profiles tracked by per-joint impedance control, and closes the loop in
a fixed-rate simulation with an ankle CoP strategy after touchdown.
"""

from .detector import BalanceDetector, RecoveryPhase
from .errors import (
    ConfigurationError,
    JointLimitError,
    PhaseTransitionError,
    PlannerInfeasibleError,
    ScenarioParseError,
    WorkspaceError,
)
from .impedance import command_torques, impedance_torque, joint_plant_step
from .kinematics import JointLimits, LegGeometry, Side, forward_kinematics, inverse_kinematics
from .lipm import apply_impulse, natural_frequency, step_lipm
from .planner import (
    NominalGait,
    StepBounds,
    StepPlan,
    StepProgram,
    constraint_names,
    mirror_bounds,
    mirror_gait,
    plan_step,
    replan,
    step_program,
)
from .simulation import (
    Event,
    HumanPulse,
    PushEvent,
    ScenarioConfig,
    SimTrace,
    StepSummary,
    estimate_com,
    run_scenario,
    summarize,
)
from .swing import SwingTrajectory, build_swing, retarget, sample, sample_position

__version__ = "0.1.0"
