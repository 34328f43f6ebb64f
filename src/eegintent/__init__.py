"""Desk-scale pipeline for decoding speech intention from EEG under
misarticulation: synthetic labeled EEG, Welch spectral features, FDR band
statistics with topographic maps, and a band-suppressed multitask decoder
evaluated against an encoder-only baseline."""

from .data import (
    AcquisitionSpec,
    Dataset,
    load_dataset,
    save_dataset,
    stratified_split_indices,
)
from .evaluation import EvalReport, evaluate, macro_f1
from .model import (
    FeatureScaler,
    LossBreakdown,
    ModelConfig,
    ModelParams,
    TrainMode,
    backward,
    compute_loss,
    forward,
    init_params,
    mmd_rbf,
    predict,
    train,
)
from .montage import Montage, Region, default_montage
from .spectral import (
    BandTable,
    FeatureSet,
    WelchConfig,
    extract_feature_set,
    fft,
    ifft,
)
from .stats import (
    TTestMap,
    TTestResult,
    band_topomaps,
    bh_fdr,
    render_topomap_svg,
    welch_t_test,
)
from .synth import SynthConfig, generate_dataset, generate_trial, pink_noise

__version__ = "0.1.0"
