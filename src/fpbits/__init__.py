"""Fixed-length binary fingerprint representations from minutia templates.

The pipeline turns a variable-size minutia template (plus its gray image)
into an ordered, fixed-length bit-string: per-minutia local structures,
subspace projection and fusion, cluster-codebook conversion, optional
per-finger bit selection, and bit-level matching. See the README for the
command-line walkthrough.
"""

from .bit_training import FingerModel, train_finger
from .codebook import (
    BitString,
    Codebook,
    DistanceVector,
    kmeans_train,
)
from .config import PipelineConfig, load_config, parse_config, serialize_config
from .errors import FpbitsError
from .local_structures import (
    StructureGeometry,
    build_mbls,
    extract_tbls,
    mbls_matrix,
    normalize_image,
    tbls_matrix,
)
from .matching import (
    MatchScore,
    fold_bits,
    fold_compress,
    intersection_score,
    intersection_scores,
    lgs_score,
    masked_score,
    masked_scores,
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
from .protocol import ProtocolReport, compute_eer, fvc_pair_rows, fvc_pairs
from .subspace_fusion import PcaModel, fuse, project, train_pca
from .template_io import (
    MINUTIA_DTYPE,
    MINUTIA_KINDS,
    GrayImage,
    MinutiaTemplate,
    parse_text_template,
    read_pgm,
    serialize_text_template,
    write_pgm,
)

__version__ = "0.1.0"
