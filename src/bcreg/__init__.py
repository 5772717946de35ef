"""Bias-corrected regularized regression with block-streaming averaging.

Ridge regression and kernel ridge networks with iterative bias
correction, a running-average learner for block-wise data streams, and
a seeded Monte-Carlo harness for bias/variance studies.
"""

from .errors import *
from .experiments import *
from .kernels import *
from .linear import *
from .streaming import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = (
    errors.__all__ + experiments.__all__ + kernels.__all__ + linear.__all__ + streaming.__all__
)
