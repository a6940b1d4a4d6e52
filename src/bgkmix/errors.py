"""Exception types shared across the package."""


class DegenerateDensityError(Exception):
    """Quadrature density fell below the floor; mean velocity and
    temperature are undefined for a (near-)empty distribution.

    `cells` lists the cells below the floor when the distribution had a
    cell axis (None otherwise); `species` is set by a caller that knows
    which species it was.
    """

    def __init__(self, density, floor, cells=None, species=None):
        where = "" if cells is None else f" in cell {cells[0]}"
        if species is not None:
            where += f" of species {species}"
        if cells is not None and len(cells) > 1:
            where += f" ({len(cells)} cells below it)"
        super().__init__(f"density {density:.3e} below floor {floor:.3e}"
                         f"{where}; moments undefined")
        self.density = density
        self.floor = floor
        self.cells = cells
        self.species = species


class MemberError(Exception):
    """Failure of one member of a stacked computation.

    `member` is the member's index in the stack (None for a lone
    matrix); `where`, set by a caller that knows what the member stands
    for, is appended to the first line of the message.
    """

    where = None

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member

    def __str__(self):
        text = super().__str__()
        if self.where is None:
            return text
        head, *rest = text.split("\n", 1)
        return "\n".join([f"{head} ({self.where})", *rest])


class NotSpdError(MemberError):
    """Symmetric matrix failed Cholesky factorization (not positive definite)."""

    def __init__(self, pivot, value, matrix=None, member=None):
        at = "" if member is None else f" (member {member})"
        super().__init__(
            f"matrix not positive definite{at}: pivot {pivot} is {value:.6e}"
            + ("" if matrix is None else f"\n{matrix}"), member)
        self.pivot = pivot
        self.value = value
        self.matrix = matrix


class NoConvergenceError(MemberError):
    """Discrete moment-matching Newton iteration failed to converge.

    Usually means the velocity grid is too coarse for the requested
    parameters or the distribution's support is clipped by the domain.
    """


class InadmissibleTargetError(MemberError):
    """A relaxation target's density or Maxwellian temperature is not
    finite and positive, as after an unstable integrator step."""


class InsufficientWindowError(Exception):
    """Decay series has too few samples inside the fit window."""


class SingularPrefactorError(Exception):
    """An expansion prefactor denominator vanished for these parameters."""


class CflError(Exception):
    """Advection step violates the CFL bound."""


class ConfigError(Exception):
    """Base class for configuration problems."""


class MissingKeyError(ConfigError):
    def __init__(self, key):
        super().__init__(f"missing required config key: {key}")
        self.key = key


class UnknownVariantError(ConfigError):
    def __init__(self, name):
        super().__init__(f"unknown model variant: {name!r}")
        self.name = name


class ValidationFailureError(ConfigError):
    """Parameter bundle violates one or more admissibility bounds."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
