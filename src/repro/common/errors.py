"""Exception types used across the simulator."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state."""


class VerificationError(ReproError):
    """A verification pass (``repro verify``) could not run to completion
    — e.g. the model checker's state budget was exhausted."""


class InvariantViolation(SimulationError):
    """The runtime sanitizer observed a broken simulator invariant.

    Carries the name of the violated invariant, a human-readable detail
    string, and the suffix of the sanitizer's event trace leading up to the
    violation (most recent last) for debugging.
    """

    def __init__(self, invariant, detail, cycle=0, trace=()):
        self.invariant = invariant
        self.detail = detail
        self.cycle = cycle
        self.trace = tuple(trace)
        message = f"[{invariant}] {detail} (cycle {cycle})"
        if self.trace:
            suffix = "\n  ".join(str(event) for event in self.trace[-12:])
            message = f"{message}\n  recent events:\n  {suffix}"
        super().__init__(message)


class DeadlockError(SimulationError):
    """Forward progress stopped: no core retired an instruction for too long.

    ``dump`` optionally carries the structured diagnostic state of the
    stuck system (``System.diagnostic_dump``): per-core ROB head, oldest
    load, pending events, and pin/CPT occupancy.
    """

    def __init__(self, cycle, detail="", dump=None):
        self.cycle = cycle
        self.detail = detail
        self.dump = dump
        message = f"no forward progress by cycle {cycle}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
