"""Location-aware upsampling: samplers, losses, and a toy training harness."""

from .core import ConfigError, LabelMap, Rng, ShapeError, as_tensor4
from .losses import (
    CandidateSet,
    CoordinateMap,
    LossMap,
    build_candidate_set,
    cross_entropy_map,
    guided_terms,
    reduce_loss,
    regression_terms,
    select_theta_opt,
    smooth_l1,
)
from .samplers import (
    CORNERS,
    Corner,
    OffsetField,
    bilinear_upsample,
    corner_upsample,
    lau_backward,
    lau_forward,
    pixel_shuffle,
    pixel_unshuffle,
)
from .net import (
    ConvLayer,
    OffsetPredictor,
    SegNet,
    TrainConfig,
    conv2d_backward,
    conv2d_forward,
    gradcheck,
    leaky_relu,
    poly_lr,
    sgd_step,
    train,
)
from .synth import SynthSample, Tally

__version__ = "0.1.0"
