"""The algorithm layer: PIM-friendly mappings of the EBVO hot kernels.

Every kernel comes in (up to) three forms that are tested to agree:

* ``*_fast`` -- a vectorized numpy implementation with *exactly* the
  arithmetic the PIM executes (same op order, same rounding, same
  saturation).  The EBVO tracker runs on these.
* ``*_pim`` -- the optimized device program of the paper (data reuse,
  Tmp-register chaining, pipelined shifts).  Used to measure cycles.
* ``*_pim_naive`` -- the naive device mapping Fig. 9-b compares
  against (no reuse, per-step SRAM write-back).
"""

from repro.kernels.common import KERNEL_PROGRAM_CACHE
from repro.kernels.lpf import lpf_fast, lpf_pim, lpf_pim_naive, lpf_program
from repro.kernels.hpf import (
    hpf_fast,
    hpf_pim,
    hpf_pim_naive,
    hpf_pim_replay,
    hpf_program,
)
from repro.kernels.nms import (
    nms_fast,
    nms_pim,
    nms_pim_naive,
    nms_pim_replay,
    nms_program,
)
from repro.kernels.edge_detect import (
    EdgeDetectionResult,
    detect_edges_fast,
    detect_edges_pim,
    detect_edges_replay,
)
from repro.kernels.warp import (
    WarpResult,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
    warp_pim,
    warp_pim_batched,
    warp_program,
)
from repro.kernels.jacobian import jacobian_fast, jacobian_float, jacobian_pim
from repro.kernels.hessian import (
    hessian_fast,
    hessian_float,
    hessian_pim,
    unpack_symmetric,
)
from repro.kernels.lm_pipeline import (
    LMCycleBreakdown,
    lm_iteration_pim,
)
from repro.kernels.conv2d import Conv2dLayer, conv2d_fast, conv2d_pim
from repro.kernels.sobel import sobel_hpf_fast, sobel_hpf_pim

__all__ = [
    "KERNEL_PROGRAM_CACHE",
    "lpf_fast", "lpf_pim", "lpf_pim_naive", "lpf_program",
    "hpf_fast", "hpf_pim", "hpf_pim_naive", "hpf_pim_replay", "hpf_program",
    "nms_fast", "nms_pim", "nms_pim_naive", "nms_pim_replay", "nms_program",
    "EdgeDetectionResult", "detect_edges_fast", "detect_edges_pim",
    "detect_edges_replay",
    "WarpResult", "quantize_features", "quantize_pose",
    "warp_fast", "warp_float", "warp_pim", "warp_pim_batched",
    "warp_program",
    "jacobian_fast", "jacobian_float", "jacobian_pim",
    "hessian_fast", "hessian_float", "hessian_pim", "unpack_symmetric",
    "LMCycleBreakdown", "lm_iteration_pim",
    "Conv2dLayer", "conv2d_fast", "conv2d_pim",
    "sobel_hpf_fast", "sobel_hpf_pim",
]
