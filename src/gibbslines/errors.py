"""Exception types shared across the package."""

from __future__ import annotations


class GibbsLinesError(Exception):
    """Base class for every error raised by this package."""


class InvalidGrid(GibbsLinesError):
    pass


class InvalidInterval(GibbsLinesError):
    pass


class NonPositiveArgument(GibbsLinesError):
    pass


class LengthMismatch(GibbsLinesError):
    pass


class GridMismatch(GibbsLinesError):
    pass


class OrderViolationInput(GibbsLinesError):
    pass


class ZeroHits(GibbsLinesError):
    """An estimator saw no qualifying samples and cannot report a value."""


class RejectionBudgetExhausted(GibbsLinesError):
    """The candidate/accept loop ran out of attempts before accepting."""

    def __init__(self, attempts: int, detail: str = ""):
        self.attempts = attempts
        msg = f"no acceptance after {attempts} candidate draws"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EffectiveSampleSizeTooSmall(GibbsLinesError):
    """Importance weights degenerated below the usable threshold."""

    def __init__(self, ess: float, threshold: float = 100.0, label: str = "", all_ess=None):
        self.ess = ess
        self.threshold = threshold
        self.all_ess = dict(all_ess or {})  # label -> ESS of every estimator of the run
        where = f" for {label}" if label else ""
        msg = f"effective sample size {ess:.2f}{where} is below {threshold:g}"
        if len(self.all_ess) > 1:
            msg += " (" + ", ".join(f"{lab}: {v:.2f}" for lab, v in self.all_ess.items()) + ")"
        super().__init__(msg)


class ParseError(GibbsLinesError):
    """A config file line could not be read at all."""


class ValidationError(GibbsLinesError):
    """One or more config fields failed validation; carries the full list."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
