"""Exact thickening functors and interleaving distances for graded barcodes
on the real line and the circle."""

from .barcode import (Bar, GradedBarcode, Interval, Kind, CLOSED, OPEN,
                      canonicalize, dualize, global_sections,
                      global_sections_c, iso_equal)
from .circle import (CircleSheaf, CyclicModel, circle_distance,
                     circle_thicken, cyclic_model_of, decompose_cyclic,
                     fourier_sato)
from .extend import (SeedFamily, coherence_check, extend_apply,
                     extend_restrict, lambda_independence, line_seed,
                     circle_seed)
from .interleave import (DistanceBounds, InterleavingCertificate,
                         check_interleaving, critical_grid, distance,
                         finite_gate, verify_certificate)
from .morphisms import (HomSpace, Morphism, compose, hom_dim, restriction,
                        thicken_morphism)
from .plmaps import (PLMap, lipschitz_constant, lipschitz_experiment,
                     pushforward_shriek, stability_experiment, sup_distance)
from .thicken import convolution_ball, thicken

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
