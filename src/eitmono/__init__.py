"""Forward solver and monotonicity-scan reconstruction for electrical
impedance tomography with insulating, perfectly conducting, and power-law
weighted inclusions."""

from .coefficient import CoefficientField, SingularNodeError, WeightSpec
from .fem import (DofMap, NeumannLoad, PotentialSolution, StiffnessSystem,
                  solve_neumann)
from .geometry import (Domain, Mesh, PixelFamily, RegionSet, TestInclusion,
                       build_domain, pixel_family, triangulate,
                       validate_regions)
from .monotonicity import ChainReport, bracketing_chain, psd_test
from .ndmap import CurrentBasis, NDMatrix, build_basis, nd_matrix
from .oracle import disk_nd_eigenvalue
from .reconstruction import ReconstructionResult, rasterize, reconstruct

__version__ = "0.1.0"
