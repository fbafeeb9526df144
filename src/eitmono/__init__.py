"""Forward solver and monotonicity-scan reconstruction for electrical
impedance tomography with insulating, perfectly conducting, and power-law
weighted inclusions."""

from .coefficient import (A2Estimate, CoefficientField, SingularNodeError,
                          WeightSpec, bracket_coefficients,
                          estimate_a2_constant, eval_coefficient,
                          homogeneous_field)
from .fem import (DofMap, NeumannLoad, PotentialSolution, StiffnessSystem,
                  energy, solve_neumann)
from .geometry import (Domain, Mesh, PixelFamily, RegionSet, TestInclusion,
                       build_domain, pixel_family, triangulate,
                       validate_regions)
from .monotonicity import (ChainReport, MonotonicityVerdict,
                           bracketing_chain, psd_test, theorem_test)
from .ndmap import CurrentBasis, NDMatrix, build_basis, nd_matrix
from .oracle import brute_force_nd, disk_nd_eigenvalue
from .reconstruction import ReconstructionResult, rasterize, reconstruct

__version__ = "0.1.0"
