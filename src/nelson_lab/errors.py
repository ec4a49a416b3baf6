"""Exception types shared across the laboratory.

Every failure mode that callers are expected to handle gets its own class;
all inherit from NelsonLabError so scripts can catch the family at once.
Exceptions carry enough structured context (in .args / attributes) to
diagnose the failure without re-running.
"""

from __future__ import annotations


class NelsonLabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDispersion(NelsonLabError):
    """Coupling does not vanish at a mode where the dispersion is (near) zero.

    The form factor divides by sqrt(omega); modes with omega below the
    floor must carry zero coupling weight.
    """

    def __init__(self, mode_index: int, omega_value: float, floor: float):
        self.mode_index = mode_index
        self.omega_value = omega_value
        self.floor = floor
        super().__init__(
            f"coupling weight is nonzero at mode {mode_index} where "
            f"omega={omega_value:.3e} < floor={floor:.3e}"
        )


class StepSizeRejected(NelsonLabError):
    """A time step failed the integrator's stability/accuracy guard."""


class MaxIterationsExceeded(NelsonLabError):
    """Iterative optimisation ran out of its iteration budget.

    Carries the best iterate found so far (attribute ``best``) so callers
    can inspect or restart.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class SectorBasisUnsupported(NelsonLabError):
    """Operation requires a basis kind it was not given.

    E.g. particle-number-changing operators on a fixed-sector nucleon basis.
    """


class BasisTooLarge(NelsonLabError):
    """A Fock basis too large to enumerate, or to key in int64."""


class TruncationInsufficient(NelsonLabError):
    """A truncated construction misses too much weight.

    Attribute ``deficit`` holds the measured missing probability mass.
    """

    def __init__(self, message: str, deficit: float):
        self.deficit = deficit
        super().__init__(f"{message} (deficit={deficit:.3e})")


class ConvergenceFailure(NelsonLabError):
    """An eigensolve or fixed-point loop did not reach tolerance.

    Attribute ``best`` carries the best available approximation, or None.
    """

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class ConfigInvalid(NelsonLabError):
    """A run configuration failed validation.

    Attribute ``path`` names the offending field (dotted path).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
