"""Metamorphosis-style indirect image registration for 2D tomography.

A template image is matched against (possibly gated) parallel-beam sinogram
data by jointly estimating a velocity flow that deforms geometry and an
intensity control that creates or removes material along the flow.
"""

from .flow import TimeGrid, TimeVaryingScalarField, TimeVaryingVectorField
from .grid import GridSpec, Image
from .harness import Disc, Ellipse, PhantomSpec, Triangle, add_noise, make_phantom, psnr, ssim
from .kernel import KernelSpec
from .metamorphosis import Trajectories, evolve_template, trajectories
from .objective import RegParams
from .optimizer import SolveConfig, SolveReport, reconstruct
from .ray import Geometry, Sinogram, back_project, fbp, forward_project
from .spatiotemporal import GatedData, gate_angles

__version__ = "0.1.0"
