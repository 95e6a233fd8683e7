"""Fundamental groups of split real Kac-Moody groups and their flag
varieties, computed from a generalized Cartan matrix.

The package re-exports the public names of each layer module, as listed
in that module's ``__all__``."""

from . import errors
from .adm import *
from .cartan import *
from .coxeter import *
from .fpgroup import *
from .pi1 import *

__version__ = "0.1.0"
