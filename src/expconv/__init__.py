"""Convolution layers whose receptive-field inputs are raised to learned
exponents, with training, constraint handling, augmentation and dataset
tooling for windowed multivariate time series."""

from .augment import AugmentSpec, apply_pipeline, exp_augment, flip_bidirectional, flip_blockwise, flip_lr
from .constraints import ConstraintPolicy, effective_payload, init_exponents, reparam_forward, reparam_grad, reparam_invert
from .dataset import NormStats, RawRun, SyntheticTask, WindowedDataset, apply_normalize, fit_normalize, gen_synthetic, load_run, make_windows
from .gradients import GradBundle, GradCheckReport, grad_check, layer_backward, run_variant_checks, unit_backward
from .layers import Bilinear, ColShared, Elementwise, FullMatrix, LayerParams, RowShared, Standard, layer_forward, unit_forward
from .numerics import DEFAULT_EPS, extract_patches, kron, log_magnitude, make_rng, signed_pow, vec
from .training import Metrics, Network, TrainConfig, build_network, evaluate, forward_network, load_model, save_model, train

__version__ = "0.1.0"

__all__ = [
    "AugmentSpec", "apply_pipeline", "exp_augment", "flip_bidirectional",
    "flip_blockwise", "flip_lr",
    "ConstraintPolicy", "effective_payload", "init_exponents",
    "reparam_forward", "reparam_grad", "reparam_invert",
    "NormStats", "RawRun", "SyntheticTask", "WindowedDataset",
    "apply_normalize", "fit_normalize", "gen_synthetic", "load_run",
    "make_windows",
    "GradBundle", "GradCheckReport", "grad_check", "layer_backward",
    "run_variant_checks", "unit_backward",
    "Bilinear", "ColShared", "Elementwise", "FullMatrix", "LayerParams",
    "RowShared", "Standard", "layer_forward", "unit_forward",
    "DEFAULT_EPS", "extract_patches", "kron", "log_magnitude", "make_rng",
    "signed_pow", "vec",
    "Metrics", "Network", "TrainConfig", "build_network", "evaluate",
    "forward_network", "load_model", "save_model", "train",
]
