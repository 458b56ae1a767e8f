"""``python -m repro.analysis trace``: end-to-end telemetry capture.

Tracks N synthetic frames through the full PIM stack with the span
tracer enabled -- edge detection on the simulated device per frame,
plus one device LM linearization per tracked frame so the warp /
jacobian / hessian kernels appear on the timeline -- then exports:

* ``trace.json``: Chrome trace-event JSON on the simulated-cycle
  timeline (load in Perfetto or ``chrome://tracing``),
* ``metrics.jsonl``: one JSON line per metric instrument,
* a Fig. 10-a/10-b style console summary (per-kernel cycles/energy and
  mem_rd/mem_wr/tmp_reg access shares).
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from repro.analysis.cli import (emit_json, init_logging,
                                subcommand_parser)
from repro.dataset import make_sequence
from repro.fixedpoint import Q14_2
from repro.geometry import se3_exp
from repro.kernels.lm_pipeline import lm_iteration_pim
from repro.kernels.warp import quantize_pose
from repro.obs import (
    console_summary,
    disable_tracing,
    enable_tracing,
    get_registry,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.pim import PIMDevice
from repro.vo import EBVOTracker, PIMFrontend, TrackerConfig
from repro.vo.features import extract_features

log = logging.getLogger(__name__)


def trace_main(argv=None) -> int:
    """Entry point of the ``trace`` subcommand."""
    parser = subcommand_parser(
        "python -m repro.analysis trace", __doc__)
    parser.add_argument("--frames", type=int, default=8,
                        help="number of synthetic frames to track")
    parser.add_argument("--sequence", default="fr1_xyz",
                        help="synthetic sequence name")
    parser.add_argument("--out", default="analysis_output",
                        help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.frames < 1:
        parser.error("--frames must be >= 1")
    init_logging(args)
    out = Path(args.out)
    out.mkdir(exist_ok=True)

    sequence = make_sequence(args.sequence, n_frames=args.frames,
                             seed=args.seed)
    cfg = TrackerConfig(camera=sequence.camera, pim_device_detect=True)
    tracker = EBVOTracker(PIMFrontend(cfg), cfg)
    lm_device = PIMDevice()
    # A fixed feature set and a small perturbation pose for the
    # per-frame device linearization (the tracker's own solver runs on
    # the vectorized numpy mirror, so this is what puts the LM kernels
    # on the device timeline).
    first = sequence.frames[0]
    edge = tracker.frontend.detect(first.gray)
    qfeats = tracker.frontend.make_features(extract_features(
        edge, first.depth, cfg.max_features, cfg.min_depth,
        cfg.max_depth))
    qpose = quantize_pose(se3_exp(np.full(6, 0.01)))
    clamp = int(Q14_2.quantize(cfg.residual_clamp))

    log.info("tracing %d frames of %s (PIM device detect on)",
             args.frames, args.sequence)
    tracer = enable_tracing()
    try:
        for fr in sequence.frames:
            result = tracker.process(fr.gray, fr.depth, fr.timestamp)
            if result.lm is not None:
                maps = tracker.keyframe_maps(tracker.state.keyframe)
                lm_iteration_pim(lm_device, qpose, qfeats, cfg.camera,
                                 maps.dt_raw, maps.gu_raw, maps.gv_raw,
                                 clamp)
    finally:
        disable_tracing()

    trace_path = out / "trace.json"
    metrics_path = out / "metrics.jsonl"
    write_chrome_trace(trace_path, tracer=tracer)
    write_metrics_jsonl(metrics_path, registry=get_registry())
    summary = console_summary(tracer=tracer)
    log.info("per-kernel attribution:\n%s", summary)
    (out / "trace_summary.txt").write_text(summary + "\n")
    log.info("wrote %s (%d spans) and %s", trace_path,
             len(tracer.spans), metrics_path)
    if args.json:
        emit_json({"trace": str(trace_path),
                   "metrics": str(metrics_path),
                   "summary": str(out / "trace_summary.txt"),
                   "spans": len(tracer.spans)})
    return 0


if __name__ == "__main__":
    raise SystemExit(trace_main())
