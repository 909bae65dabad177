"""slicekit: adaptive image slicing, token compression, and cost verification."""

from .partition import (
    ImageSize,
    PartitionPlan,
    PixelRect,
    SliceGrid,
    VitSpec,
    candidate_grids,
    ideal_slice_count,
    partition_score,
    select_partition,
)
from .patches import (
    PatchGrid,
    PosEmbedGrid,
    fit_patch_grid,
    interpolate_pos_embed,
    overview_grid,
    reshape_pos_embed_1d_to_2d,
    snap_to_patch,
)
from .resampler import (
    AttentionParams,
    QuerySet,
    TokenMatrix,
    compress_slices,
    cross_attention_forward,
    grad_check,
    init_resampler,
)
from .schema import parse_layout, serialize_layout, token_count
from .cost import CostReport, ModelDims, compare_strategies, estimate_flops, load_model_dims, vit_token_count
from .probes import (
    SceneObject,
    SliceCover,
    SyntheticScene,
    heatmap_probe,
    overlap_tile_cover,
    padding_waste,
    phase_classify,
    render_scene,
    simulate_count,
)
from .verify import (
    DistributionSpec,
    StatReport,
    enumerate_ratio_bound,
    exact_expectations,
    monte_carlo_expectations,
    sweep_slice_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "ImageSize", "VitSpec", "SliceGrid", "PixelRect", "PartitionPlan",
    "ideal_slice_count", "candidate_grids", "partition_score", "select_partition",
    "PatchGrid", "PosEmbedGrid", "fit_patch_grid", "snap_to_patch",
    "reshape_pos_embed_1d_to_2d", "interpolate_pos_embed", "overview_grid",
    "TokenMatrix", "QuerySet", "AttentionParams", "init_resampler",
    "cross_attention_forward", "compress_slices", "grad_check",
    "serialize_layout", "parse_layout", "token_count",
    "ModelDims", "CostReport", "load_model_dims", "vit_token_count",
    "estimate_flops", "compare_strategies",
    "SyntheticScene", "SceneObject", "SliceCover", "overlap_tile_cover",
    "simulate_count", "heatmap_probe", "phase_classify", "padding_waste", "render_scene",
    "DistributionSpec", "StatReport", "enumerate_ratio_bound",
    "sweep_slice_bounds", "monte_carlo_expectations", "exact_expectations",
    "__version__",
]
