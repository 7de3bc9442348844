"""Shape optimization of the clamped-plate fundamental tone on masked grids.

Each name is imported from the module that defines it; the package root
holds only the entry points, ``RunConfig`` and ``optimize``.
"""

from platetone.search import RunConfig, optimize

__version__ = "0.1.0"
