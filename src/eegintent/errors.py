"""Exception hierarchy shared by all pipeline stages.

Every error carries enough context to name the offending trial, channel or
file, so the CLI can report the failing stage without a traceback.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


# --- dataset / manifest ---

class MissingFile(PipelineError):
    pass


class MalformedManifest(PipelineError):
    pass


class DimensionMismatch(PipelineError):
    def __init__(self, trial_id, expected, actual, what="samples of shape"):
        self.trial_id = trial_id
        super().__init__(f"trial {trial_id}: expected {what} {expected}, got {actual}")


class NonFiniteSample(PipelineError):
    def __init__(self, trial_id):
        self.trial_id = trial_id
        super().__init__(f"trial {trial_id}: samples contain non-finite values")


class IoFailure(PipelineError):
    pass


class OutOfMemory(PipelineError):
    """A stage asked for more memory than the process may have."""


class CellTooSmall(PipelineError):
    def __init__(self, class_label, domain_label, count):
        self.class_label = class_label
        self.domain_label = domain_label
        super().__init__(
            f"cell (class={class_label}, domain={domain_label}) has "
            f"{count} trial(s); need at least 2 to split"
        )


class UnknownChannel(PipelineError):
    pass


# --- spectral ---

class NonPowerOfTwoLength(PipelineError):
    pass


class SignalTooShort(PipelineError):
    pass


class EmptyBand(PipelineError):
    pass


# --- statistics ---

class DegenerateSample(PipelineError):
    pass


class InsufficientTrials(PipelineError):
    pass


# --- model ---

class ShapeMismatch(PipelineError):
    pass


class EmptyGroup(PipelineError):
    pass


class NonFiniteLoss(PipelineError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}; training aborted")


# --- evaluation ---

class EmptyTestSet(PipelineError):
    pass


class SplitMismatch(PipelineError):
    """The model's feature scaler was not fitted on this config's train split."""
