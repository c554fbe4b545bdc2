"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class FrameTooSparse(PipelineError):
    """Frame has fewer points than the requested neighbor count."""


class ImuCoverageGap(PipelineError):
    """IMU samples do not cover the requested interval densely enough."""


class InvalidInterval(PipelineError):
    """Integration interval end does not come after its start."""


class VoxelKeyOutOfRange(PipelineError):
    """Point is not finite or lies outside the range of packed voxel keys."""


class NonFiniteCovariance(PipelineError):
    """A point's neighbourhood has a sample covariance that is not finite."""


class DuplicateVariable(PipelineError):
    """Variable key already present in the graph."""


class UnknownVariable(PipelineError):
    """Factor references a key that is not in the graph."""


class UnderConstrainedGraph(PipelineError):
    """A variable or connected component has no anchoring constraint."""


class DisconnectedGraph(PipelineError):
    """Marginalization would leave an unanchored component behind."""


class NotConverged(PipelineError):
    """Optimizer gave up; the graph keeps its values from before the solve."""


class MalformedScan(PipelineError):
    """A scan's points are not (n, 3), its stamps are not (n,), or its span
    ends before it starts."""


class MalformedImuSample(PipelineError):
    """An IMU sample's stamp is not one real number or a vector not three."""


class NonFiniteStamp(PipelineError):
    """A scan's start, end or point stamp is NaN or infinite."""


class OutOfOrder(PipelineError):
    """Records arrived with non-increasing timestamps."""


class InvalidConfig(PipelineError, ValueError):
    """Configuration value out of its valid range; carries the key."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


class InsufficientOverlap(PipelineError):
    """Too few time-associated pose pairs for trajectory comparison."""


class GenerationError(PipelineError):
    """Synthetic trajectory leaves the simulated world."""


class InitializationMotion(PipelineError):
    """The stationary initialization window does not qualify.

    ``unusable`` is set when the window's samples can never start a run
    (non-finite values, no gravity direction, motion), and left unset when
    the window is only too short yet.
    """

    def __init__(self, message, unusable=False):
        super().__init__(message)
        self.unusable = unusable
