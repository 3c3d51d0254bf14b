"""Simulator for an N-recipient unconditionally secure signature protocol.

The package is organized bottom-up: hashing provides the GF(2^a) affine
tag family, secparams derives thresholds and key counts from failure
budgets, keystore simulates pairwise key pools with rate and noise,
protocol runs the distribution and messaging stages, simlab runs Monte
Carlo attacks and sweeps, and cli fronts it all from the command line.
"""
from . import hashing, keystore, protocol, secparams, simlab
from .hashing import *  # noqa: F403
from .keystore import *  # noqa: F403
from .protocol import *  # noqa: F403
from .secparams import *  # noqa: F403
from .simlab import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += hashing.__all__
__all__ += secparams.__all__
__all__ += keystore.__all__
__all__ += protocol.__all__
__all__ += simlab.__all__
