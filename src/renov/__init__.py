"""Geometry-conditioned novel-view-synthesis toolkit on procedural scenes.

Core pieces: exact ray-cast scene rendering with per-pixel world coordinates,
point-cloud aggregation and z-buffered warping of arbitrary payloads, Fourier
condition assembly, synthetic feature families with an analysis suite
(correspondence scores, spatial self-similarity), an aggregated attention
block with exact gradients, and a shallow reconstruction probe trained with
hand-rolled Adam.  See the CLI (`renov --help`) for the pipeline stages.
"""

from .analysis import (CorrespondenceReport, cosine_similarity_map, dominant_labels,
                       geometric_correspondence_score, lds_score, semantic_correspondence_score)
from .attention import AttentionBlockInput, AttentionGrads, aggregated_attention, attention_backward
from .camera import CameraPose, intrinsics_from_fov, look_at
from .encoding import (ConditionLayout, ConditionPlane, FourierConfig, NormalizationTransform,
                       build_reference_condition, build_target_condition, fourier_encode,
                       normalize_coords)
from .errors import InputError, NumericalError
from .features import (ChannelReducer, FeatureFamily, concat_global_local, extract_features,
                       reduce_channels)
from .geometry import (FeatureGrid, PointCloud, Pointmap, WarpedPlane, aggregate_pointmaps,
                       project_points, rasterize, subsample_points, token_anchors,
                       token_feature_cloud)
from .metrics import MetricReport, psnr, ssim
from .probe import (ProbeDecoder, TrainConfig, eval_probe, patchify, pixel_hole_mask,
                    probe_backward, probe_forward, train_probe, unpatchify)
from .scene import (Quad, RenderedView, SceneSpec, SyntheticScene, TextureSpec, generate_scene,
                    make_camera_arc, render_view)

__version__ = "0.1.0"
