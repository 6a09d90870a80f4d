"""Event-camera optical flow estimation and velocity-based segmentation.

The engine consumes an asynchronous event stream and labels each event
with a segment id and that segment's image-plane velocity, with no
frames and no batch optimization: candidate flows are scored by the
sharpness of polarity-signed event projections, stable candidates become
tracking planes, and tracking planes follow their structure through
footprint evolution, merging and pruning.  A synthetic scene generator
with per-event ground truth and a timestamp-surface plane-fit baseline
support evaluation.
"""

__version__ = "0.1.0"

from .engine import (Engine, EngineConfig, UNLABELED, read_labeled,
                     run_stream, write_labeled)
from .events import Event, load_stream, save_stream
from .evaluation import (cross_label_fraction, flow_errors,
                         majority_structure_map)
from .flow_plane import FlowPlaneConfig
from .lk import run_lk
from .render import RenderConfig, render_to_dir
from .synth import ConstantMotion, PendulumMotion, build_contour, generate_scene
from .track_plane import TrackPlaneConfig

__all__ = [
    "ConstantMotion", "Engine", "EngineConfig", "Event", "FlowPlaneConfig",
    "PendulumMotion", "RenderConfig", "TrackPlaneConfig", "UNLABELED",
    "build_contour", "cross_label_fraction", "flow_errors", "generate_scene",
    "load_stream", "majority_structure_map", "read_labeled", "render_to_dir",
    "run_lk", "run_stream", "save_stream", "write_labeled",
]
