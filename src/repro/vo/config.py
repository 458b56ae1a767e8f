"""Tracker configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.geometry.camera import CameraIntrinsics, TUM_QVGA

__all__ = ["TrackerConfig"]


@dataclass
class TrackerConfig:
    """Parameters of the EBVO tracker.

    Attributes:
        camera: Pinhole intrinsics of the input frames.
        th1: Edge-strength threshold of the NMS stage.
        th2: Local-maximum margin of the NMS stage.
        max_features: Feature budget per frame (the paper tracks
            3000~6000 at QVGA).
        min_depth / max_depth: Valid depth range for features (metres);
            the minimum also keeps inverse depth inside Q4.12.
        residual_clamp: Residual lookups are clamped to this many
            pixels - a crude robustifier applied identically in both
            frontends.
        huber_delta: Optional Huber threshold (pixels) for the float
            frontend's iteratively-reweighted least squares; ``None``
            (default) keeps plain least squares for comparability with
            the PIM frontend, whose hardware-friendly robustifier is
            the residual clamp.
        pim_bilinear_residual: Use the quarter-pixel integer bilinear
            DT lookup in the PIM frontend (4 reads, 2-bit weights)
            instead of nearest-pixel (1 read).  Off by default: the
            lookup ablation shows nearest is cheaper *and* at least as
            accurate at QVGA (the smoothed residual pairs
            inconsistently with the nearest-sampled gradient maps);
            bilinear only pays off at coarser resolutions.
        lm_max_iterations: LM iteration cap (the paper converges in
            ~8.1 iterations on average).
        lm_lambda_init: Initial damping (scaled by diag(H)).
        lm_min_delta: Twist-norm convergence threshold.
        keyframe_translation / keyframe_rotation: Relative-pose
            distances (m / rad) that trigger a new keyframe, keeping
            pose entries inside Q1.15.
        keyframe_min_valid: Valid-warp ratio under which a new keyframe
            is forced.
        keyframe_max_error: Mean squared residual (px^2) above which a
            new keyframe is forced - alignment quality degrades with
            viewpoint change (occlusion edges) before the pose-distance
            triggers fire.
        min_features: Below this many features, tracking is declared
            lost for the frame.
        pyramid_levels: Coarse-to-fine levels (1 = the paper's single
            QVGA level; more levels extend the convergence basin for
            fast motion).
        pim_device_detect: Run the PIM frontend's edge detection
            through the simulated device with compiled-program replay
            (bit-identical to the default vectorized path, and it
            fills a per-frame cycle ledger).  Off by default: on a
            QVGA frame the uint8 numpy mirror takes ~0.6-0.8 ms and
            compiled replay ~4-5 ms (``edge_pipeline`` ``mirror_ms``
            and ``compiled_ms`` in ``BENCH_pim.json``), so turn it on
            when the per-frame device cycles are wanted.
        validate_inputs: Reject/repair corrupted gray/depth frames
            (:func:`repro.vo.health.validate_frame`) before they reach
            the frontends.  Clean frames pass through untouched, so
            this costs one finiteness scan and never changes fault-free
            output.
        health_max_error: Mean squared residual (px^2) above which a
            solve is declared diverged -- far above the ~5 px^2
            keyframe re-anchor trigger, so it only fires on garbage.
        health_max_translation / health_max_rotation: Frame-to-frame
            motion bounds (m / rad) of the pose-jump sanity check;
            clean 30 fps motion is millimetres, so these catch only
            solver blow-ups.
        health_max_degraded: Consecutive degraded frames before the
            tracker declares itself LOST and tries relocalization.
        reloc_keyframes: How many recent keyframes to retain as
            relocalization candidates when LOST.
        reloc_max_error: Mean squared residual (px^2) under which a
            relocalization attempt counts as a match.
    """

    camera: CameraIntrinsics = field(default_factory=lambda: TUM_QVGA)
    th1: int = 40
    th2: int = 2
    max_features: int = 6000
    min_depth: float = 0.2
    max_depth: float = 10.0
    residual_clamp: float = 32.0
    huber_delta: Optional[float] = None
    pim_bilinear_residual: bool = False
    lm_max_iterations: int = 10
    lm_lambda_init: float = 1e-4
    lm_min_delta: float = 1e-6
    keyframe_translation: float = 0.20
    keyframe_rotation: float = 0.18
    keyframe_min_valid: float = 0.60
    keyframe_max_error: float = 5.0
    min_features: int = 60
    pyramid_levels: int = 1
    pim_device_detect: bool = False
    validate_inputs: bool = True
    health_max_error: float = 75.0
    health_max_translation: float = 0.30
    health_max_rotation: float = 0.30
    health_max_degraded: int = 3
    reloc_keyframes: int = 3
    reloc_max_error: float = 8.0

    def scaled_for_level(self, level: int) -> "TrackerConfig":
        """Configuration for pyramid level ``level`` (half-res each)."""
        import dataclasses
        factor = 0.5 ** level
        return dataclasses.replace(
            self,
            camera=self.camera.scaled(factor),
            max_features=max(self.max_features // (4 ** level), 200),
            min_features=max(self.min_features // (2 ** level), 20))
