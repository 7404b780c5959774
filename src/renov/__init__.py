"""Geometry-conditioned novel-view-synthesis toolkit on procedural scenes.

Core pieces: exact ray-cast scene rendering with per-pixel world coordinates,
point-cloud aggregation and z-buffered warping of arbitrary payloads, Fourier
condition assembly, synthetic feature families with an analysis suite
(correspondence scores, spatial self-similarity), an aggregated attention
block with exact gradients, and a shallow reconstruction probe trained with
hand-rolled Adam.  See the CLI (`renov --help`) for the pipeline stages.
"""

import ctypes


def _keep_freed_heap() -> bool:
    """Have glibc keep freed heap mapped for reuse; True where the C library took the setting.

    The layers free numpy temporaries of 0.1-4 MB per call.  By default glibc maps many
    afresh and trims the freed top of the heap, so the next call faults the pages in again:
    about 22k minor faults per benchmark analysis_sweep op, 20 with this policy.  A trim
    threshold of 64 MiB keeps up to 64 MiB of freed heap resident after a peak.  An mmap
    threshold of 32 MiB, glibc's maximum, also keeps a short process's first op on the heap
    (4.7k faults, against 14.6k with the trim threshold alone and 24k with neither).
    Outputs and determinism do not change; peak RSS moves by under 0.3 MB.  Fork-pool
    workers inherit the setting.  Without mallopt (macOS, Windows), or with a stub (musl),
    nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows cannot dlopen(NULL)
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    return all([mallopt(m_trim_threshold, 64 << 20), mallopt(m_mmap_threshold, 32 << 20)])


_heap_kept = _keep_freed_heap()  # before any layer allocates

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
                    render_view)

__version__ = "0.1.0"
