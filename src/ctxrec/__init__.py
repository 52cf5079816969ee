"""Context-aware top-N recommendation via self-organizing-map clustering.

The package models ratings as a sparse cube (user x context situation x
item), clusters each user's context situations by usage pattern, collapses
the cube into a virtual-user space, and recommends collaboratively inside
virtual-user clusters.  A flat baseline, an evaluation harness, a synthetic
data generator, and a CLI round it out.

The package root exports only ``CtxRecError`` and ``load_pipeline``; every
other name is imported from its module, such as ``ctxrec.pipeline``.
"""

from .errors import CtxRecError
from .pipeline import load_pipeline

__version__ = "0.1.0"

__all__ = ["CtxRecError", "load_pipeline"]
