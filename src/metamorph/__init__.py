"""Metamorphosis-style indirect image registration for 2D tomography.

A template image is matched against (possibly gated) parallel-beam sinogram
data by jointly estimating a velocity flow that deforms geometry and an
intensity control that creates or removes material along the flow.
"""

from .flow import (
    DeformationMap,
    TimeGrid,
    TimeVaryingScalarField,
    TimeVaryingVectorField,
    maps_from_zero,
)
from .grid import (
    GridSpec,
    Image,
    VectorImage,
    divergence,
    gradient_central,
)
from .harness import Disc, Ellipse, PhantomSpec, Triangle, add_noise, make_phantom, psnr, ssim
from .kernel import KernelSpec, kernel_apply
from .metamorphosis import (
    Trajectories,
    evolve_template,
    group_action,
    trajectories,
)
from .objective import (
    RegParams,
    data_discrepancy,
    discrepancy_gradient,
)
from .optimizer import SolveConfig, SolveReport, reconstruct
from .ray import Geometry, Sinogram, back_project, fbp, forward_project
from .spatiotemporal import (
    GatedData,
    gate_angles,
    reconstruct_gated,
)

__version__ = "0.1.0"
