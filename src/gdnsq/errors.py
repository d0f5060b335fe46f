"""Exception types shared across the package."""


class GdnsqError(Exception):
    """Base class for all package errors."""


class ShapeError(GdnsqError):
    """Operand shapes do not compose (matmul dims, broadcast misuse, ...)."""


class NumericError(GdnsqError):
    """Numeric domain violation (log of non-positive, overflow, NaN loss)."""


class ContractError(GdnsqError):
    """API contract violated (an entry off the chain's line, a parameter
    the sweep never reached, ...)."""


class DomainError(GdnsqError):
    """Parameter outside its mathematical domain (l >= u, p in {0,1}, ...)."""


class FormatError(GdnsqError):
    """Malformed external file (IDX stream, checkpoint container)."""


class FusionError(GdnsqError):
    """Integer fusion requested on a layer kind it does not cover (conv)."""


class DegenerateRangeError(GdnsqError):
    """Min-max calibration found a constant tensor at some site."""


class SpecError(GdnsqError):
    """Model specification cannot be built as requested."""


class PipelineError(GdnsqError):
    """Training stages invoked out of order or on invalid state."""
