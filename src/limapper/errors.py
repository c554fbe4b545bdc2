"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class FrameTooSparse(PipelineError):
    """Frame has fewer points than the requested neighbor count."""


class ImuCoverageGap(PipelineError):
    """IMU samples do not cover the requested interval densely enough."""


class InvalidInterval(PipelineError):
    """Integration interval end does not come after its start."""


class RequiresReintegration(PipelineError):
    """Bias moved too far from the linearization point for a first-order fix."""


class VoxelKeyOutOfRange(PipelineError):
    """Point is not finite or lies outside the range of packed voxel keys."""


class DegenerateConstraint(PipelineError):
    """Too few point-to-voxel matches to form a useful constraint."""


class DuplicateVariable(PipelineError):
    """Variable key already present in the graph."""


class UnknownVariable(PipelineError):
    """Factor references a key that is not in the graph."""


class UnderConstrainedGraph(PipelineError):
    """A variable or connected component has no anchoring constraint."""


class DisconnectedGraph(PipelineError):
    """Marginalization would leave an unanchored component behind."""


class NotConverged(PipelineError):
    """Optimizer gave up; carries the best estimates found so far."""

    def __init__(self, message, estimates=None, cost=None):
        super().__init__(message)
        self.estimates = estimates
        self.cost = cost


class RunFinished(PipelineError):
    """Estimator was flushed with finish() and takes no further scans."""


class OutOfOrder(PipelineError):
    """Records arrived with non-increasing timestamps."""


class ParseError(PipelineError):
    """Malformed input file; carries path and byte offset where known."""

    def __init__(self, message, path=None, offset=None):
        super().__init__(message)
        self.path = path
        self.offset = offset


class InsufficientOverlap(PipelineError):
    """Too few time-associated pose pairs for trajectory comparison."""


class InsufficientLength(PipelineError):
    """Trajectory arc length is shorter than the evaluation segment."""


class GenerationError(PipelineError):
    """Synthetic trajectory leaves the simulated world."""


class InitializationMotion(PipelineError):
    """Motion detected during the stationary initialization window."""


class NoData(PipelineError):
    """Dataset is empty."""
