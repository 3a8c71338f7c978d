"""signadd: multiplication-free sign-additive numerics for radar correlation.

The package replaces every multiplication in correlation-style processing
with ``sign(a*b) * (|a| + |b|)``, builds approximate Fourier transforms on
top of it, and applies them to passive bistatic radar range-Doppler
ambiguity surfaces under Gaussian and heavy-tailed noise.
"""

__version__ = "0.1.0"

# Each module's __all__ is its public names; the package re-exports them all.
from .operator import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .ambiguity import *  # noqa: F401,F403
from .radar import *  # noqa: F401,F403
from .detection import *  # noqa: F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
