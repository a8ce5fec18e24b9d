"""Exact immanants of Cayley-table matrices of finite abelian groups."""

from .characters import Partition
from .groups import GroupSpec, parse_group
from .immanants import EnvelopeError, determinant, immanant, permanent, twin_difference
from .polynomials import GroupPolynomial
from .supports import count_D, count_I_nearhook, count_P, det_coeff, hall_support, padic_profile
from .verify import VerifyReport, run_minor_checks, run_suite

__version__ = "0.1.0"
