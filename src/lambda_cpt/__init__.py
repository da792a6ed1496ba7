"""Simulator and analysis toolkit for pulsed coherent population trapping
of a single nuclear spin addressed through a microwave Lambda system.

Layers, bottom up:

    spin_model      coupled electron-nuclear level structure and ESR lines
    lambda_system   two-tone drive geometry: dark/bright basis, pumping efficiency
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
