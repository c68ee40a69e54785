"""Exception types shared across the package."""


class CominusculeError(Exception):
    """Base class for all library errors."""


class InvalidDiagramError(CominusculeError, ValueError):
    """Rejected diagram input: unknown family, rank out of bounds, bad spec string."""


class DecorationError(CominusculeError, ValueError):
    """Invalid decoration, e.g. wrong length or a component with no crossed node."""


class NotCominusculeError(CominusculeError, ValueError):
    """A decorated diagram whose cross is not at a cominuscule position."""


class ClassificationError(CominusculeError, RuntimeError):
    """Cartan matrix not of finite type, or a pipeline invariant broke."""
