"""Sparse semantic 3D Gaussian scenes with Gaussian-to-voxel splatting.

Scenes are sets of 3D Gaussians carrying per-class semantics.  The splatter
converts a scene to a dense semantic occupancy grid by adding each gaussian
over the box of voxels inside its cutoff neighborhood: a large box as dense
blocks of the grid, the others one cache-sized slab of the grid at a time;
the fitter recovers scenes from target grids by gradient descent on
cross-entropy plus Lovasz-softmax losses.
"""

from .core import GaussianScene, gaussian_weight, quat_to_rotation
from .errors import (
    CapacityError,
    DegenerateRotationError,
    DivergenceError,
    FormatError,
    GaussvoxError,
    GridMismatchError,
    InvalidScaleError,
    NonFiniteValueError,
    UndefinedLossError,
    UndefinedMetricError,
)
from .fitter import (
    AdamW,
    FitConfig,
    FitReport,
    Proposals,
    RawGaussianParams,
    SceneInit,
    backward_splat,
    fit,
    init_scene,
    refine_step,
)
from .grid import IGNORE_LABEL, GridSpec, OccupancyGrid
from .losses import LossBreakdown, voxel_losses
from .metrics import ConfusionMatrix, confusion, miou, scene_completion_iou
from .sceneio import gen_synthetic, read_grid, read_scene, write_grid, write_scene
from .splat import (
    DEFAULT_CUTOFF_SIGMA,
    SplatIndex,
    build_splat_index,
    splat,
    splat_oracle,
)

__version__ = "0.1.0"
