"""Evolutionary synthesis of progressively sparser half-precision networks.

Networks are bred over generations: each offspring's topology is sampled
from a probability model derived from its parent's weight magnitudes,
scaled by an environmental factor, trained at full precision with masked
gradients, and then constrained to IEEE 754 binary16.
"""

from .dataio import (
    Dataset,
    GenerationRecord,
    ModelMeta,
    load_csv_dataset,
    load_idx,
    load_lineage_report,
    load_model,
    load_model_and_meta,
    load_model_meta,
    save_lineage_report,
    save_model,
    synth_gaussians,
)
from .errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    DataError,
    DatasetTooSmall,
    DeadLayer,
    EmptyDataset,
    EvoSynthError,
    FormatVersionUnsupported,
    IntegrityError,
    InvalidLabel,
    InvalidParam,
    InvalidSpec,
    IoError,
    NonFiniteFeature,
    NumericFailure,
    ParseError,
    ShapeMismatch,
    TruncatedFile,
    UsageError,
)
from .evolution import (
    EvolutionConfig,
    Lineage,
    derive_seed,
    evolve,
    step_generation,
)
from .genetics import (
    CalibrationResult,
    calibrate_alpha,
    encode_dna,
    expected_density,
    synthesis_probability,
    synthesize_offspring,
)
from .halfprec import (
    MAX_FINITE_F16,
    NAN_F16,
    SATURATE,
    TO_INFINITY,
    decode_array,
    decode_f16,
    encode_array,
    encode_f16,
    quantize_network,
)
from .netcore import (
    DenseLayer,
    Gradients,
    LayerSpec,
    Network,
    TrainConfig,
    TrainingLog,
    count_active_synapses,
    evaluate_classifier,
    forward,
    forward_batch,
    gradients,
    inference_cost,
    init_network,
    live_counts,
    mean_loss,
    train,
    validation_split,
)

__version__ = "5.0.0"
