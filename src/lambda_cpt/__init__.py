"""Simulator and analysis toolkit for pulsed coherent population trapping
of a single nuclear spin addressed through a microwave Lambda system.

Layers, bottom up:

    spin_model      coupled electron-nuclear level structure and ESR lines
    lambda_system   two-tone drive geometry: dark/bright basis, branching
    rate_model      per-step pumping recursion and its closed forms
    dynamics        three-level density-matrix engine for pulse sequences
    experiments     measurement protocols built on the engine
    fitting         dip, saturation, and composition parameter extraction
    datasets        CSV emission with provenance manifests
    config, cli     INI run files and the lambda-cpt command

Units throughout: frequencies in MHz (linear, not angular), times in
microseconds, angles in radians, field in gauss. Factors of 2 pi appear
only inside the dynamical generators.
"""

__version__ = "0.1.0"

from . import config, datasets, dynamics, experiments, fitting
from . import lambda_system, rate_model, spin_model
from .lambda_system import *  # noqa: F403
from .spin_model import *  # noqa: F403
from .rate_model import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .experiments import *  # noqa: F403
from .fitting import *  # noqa: F403
from .datasets import *  # noqa: F403
from .config import *  # noqa: F403

# The package exports exactly what each layer exports, bottom up.
__all__ = ["__version__"] + [
    name
    for module in (
        lambda_system, spin_model, rate_model, dynamics, experiments, fitting, datasets, config
    )
    for name in module.__all__
]
