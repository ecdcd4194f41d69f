"""Fixed-length binary fingerprint representations from minutia templates.

The pipeline turns a variable-size minutia template (plus its gray image)
into an ordered, fixed-length bit-string: per-minutia local structures,
subspace projection and fusion, cluster-codebook conversion, optional
per-finger bit selection, and bit-level matching. See the README for the
command-line walkthrough.
"""

from .bit_training import (
    FingerModel,
    adaptive_threshold,
    discrimination_power,
    interclass_variance,
    reliability,
    train_finger,
    train_mask,
)
from .codebook import (
    BitString,
    Codebook,
    DistanceVector,
    cardinality_weights,
    cluster_cardinalities,
    distance_vector,
    encode_bitstring,
    estimate_radii,
    global_mean,
    kmeans_train,
    nearest_cluster,
)
from .config import PipelineConfig, load_config, parse_config, serialize_config
from .errors import FpbitsError
from .local_structures import (
    SpreadModel,
    StructureGeometry,
    build_mbls,
    extract_tbls,
    gaussian_response,
    local_frame,
    mbls_distance,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from .matching import (
    MatchScore,
    fold_compress,
    intersection_score,
    lgs_pair_budget,
    lgs_score,
    masked_score,
)
from .model_store import (
    PipelineModel,
    load_bitstring,
    load_finger,
    load_model,
    save_bitstring,
    save_finger,
    save_model,
)
from .protocol import ProtocolReport, compute_eer, fvc_pairs
from .subspace_fusion import (
    FusedVector,
    PcaModel,
    fuse,
    fuse_matrix,
    project,
    train_pca,
    znorm,
)
from .template_io import (
    GrayImage,
    Minutia,
    MinutiaKind,
    MinutiaTemplate,
    parse_iso19794_2,
    parse_text_template,
    read_pgm,
    serialize_iso19794_2,
    serialize_text_template,
    write_pgm,
)

__version__ = "0.1.0"
