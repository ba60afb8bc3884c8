"""Detection of possibly overlapping audio events in continuous streams.

Per-class decision forests classify short analysis segments and regress
their position inside an event; leaf votes accumulate into onset and offset
score curves whose paired peaks become detections.
"""

import os

# One BLAS thread, set before any submodule loads numpy: a threaded matrix
# product sums in another order, so feature rows (and everything downstream)
# would depend on the core count. An explicit setting is left alone.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .dataset import (
    EventAnnotation,
    MixtureSpec,
    SynthBenchmark,
    build_training_segments,
    inject_background_segments,
    label_segments,
    mix_overlap,
    parse_annotations,
    scale_to_snr,
    synth_benchmark,
    write_annotations,
)
from .detect import (
    DetectConfig,
    Detection,
    ScoreTrack,
    detect_stream,
    extract_events,
    filter_duration,
    score_track,
    smooth,
    write_detections,
)
from .evaluate import (
    EventScore,
    SegmentScore,
    TuneFold,
    TuneResult,
    event_metrics,
    load_thresholds,
    save_thresholds,
    segment_metrics,
    tune_thresholds,
)
from .features import (
    FeatureConfig,
    FeatureMatrix,
    Waveform,
    gammatone_cepstra,
    load_audio,
    resample,
    subtract_noise_floor,
)
from .forest import (
    Forest,
    ForestConfig,
    SegmentSet,
    Tree,
    calibrate,
    load_forest,
    make_leaf,
    route,
    save_forest,
    select_best_test,
    train_forest,
    train_tree,
)

__version__ = "0.1.0"
