"""Exception hierarchy.

Every error raised by the library derives from TileFuseError so callers can
catch broadly; the CLI maps subtrees to distinct exit codes.
"""


class TileFuseError(Exception):
    """Base class for all library errors."""


class BoundsError(TileFuseError, ValueError):
    """A rectangle or index falls outside the canvas."""


class ShapeError(TileFuseError, ValueError):
    """Tensor shapes are inconsistent with the operation's contract."""


class ArgumentError(TileFuseError, ValueError):
    """A scalar argument is outside its documented range."""


class DomainError(TileFuseError, ValueError):
    """A numeric input leaves the formula's domain (e.g. sigma <= 0 with an
    active prior term)."""


class CoverageError(TileFuseError, ValueError):
    """A fusion denominator is zero somewhere: the tile plan does not cover
    the canvas and no prior weight rescues the cell."""


class ConfigError(TileFuseError, ValueError):
    """A run configuration is invalid or internally inconsistent."""


class FileFormatError(TileFuseError, ValueError):
    """A latent, image, or map file is malformed."""


class MetricError(TileFuseError, ValueError):
    """A metric cannot be computed from its inputs (e.g. zero-norm
    embedding)."""


class DenoiseError(TileFuseError, RuntimeError):
    """A denoiser call failed; carries the step and tile context."""


class ProtocolError(TileFuseError, RuntimeError):
    """Base class for wire-protocol failures against an external worker."""


class WorkerReportedError(ProtocolError):
    """The worker answered with an error frame; the conversation stays in
    step and the worker may be asked again."""


class MalformedFrameError(ProtocolError):
    """The peer sent bytes that do not parse as a protocol frame."""


class ProtocolTimeoutError(ProtocolError):
    """The peer did not answer within the configured timeout."""


class WorkerExitError(ProtocolError):
    """The worker process closed its pipe or exited mid-conversation."""
