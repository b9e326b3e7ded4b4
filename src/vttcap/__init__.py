"""Desk-scale video-to-text captioning pipeline."""

__version__ = "0.1.0"

from .features import DatasetManifest, VideoSample  # noqa: F401
from .metrics import IdfTable, MetricReport  # noqa: F401
from .model import ModelConfig, TransformerModel  # noqa: F401
from .scst import RewardConfig  # noqa: F401
from .tensor import RngState, Tensor  # noqa: F401
from .tokenizer import Vocabulary  # noqa: F401
from .training import ScheduleConfig, TrainRunConfig  # noqa: F401
