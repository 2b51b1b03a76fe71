"""Exception hierarchy shared across the toolkit."""


class RinglabError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RinglabError):
    """Invalid configuration: bad keys, inconsistent grid/window parameters."""


class DegenerateSignalError(RinglabError):
    """Signal has no usable energy on the weighted window."""


class HypothesisError(RinglabError):
    """A quantitative hypothesis of a certified bound is violated."""


class BranchSelectionError(RinglabError):
    """Shift eigenvalue too far from the prior to select a logarithm branch."""


class ContourError(RinglabError):
    """A contour line passes through (or too close to) a pole."""


class StructureError(RinglabError):
    """Operator lacks the assumed structure (kernel dimension, denominators)."""


class InversionError(RinglabError):
    """Newton inversion of the data map failed or left the parameter box."""
