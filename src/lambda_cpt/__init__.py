"""Simulator and analysis toolkit for pulsed coherent population trapping
of a single nuclear spin addressed through a microwave Lambda system.

Layers, bottom up:

    spin_model      coupled electron-nuclear level structure and ESR lines
    lambda_system   drive, sequence and readout parameters; pumping efficiency
    rate_model      per-step pumping recursion and its closed forms
    dynamics        density-matrix engine: dark/bright basis, Period and period_form, kernel
    experiments     measurement protocols built on the engine
    fitting         dip, saturation, and composition parameter extraction
    datasets        CSV emission with provenance manifests
    config, cli     INI run files and the lambda-cpt command

The parameter dataclasses (LambdaConfig, SequenceConfig, ReadoutModel) live
in lambda_system, which imports no numpy; nor do spin_model, rate_model,
config and the writers of datasets. numpy enters with dynamics. The cli
imports each command's layers inside its handler, so esr-lines (like
--help) starts without numpy, and no simulation command loads fitting.

Units throughout: frequencies in MHz (linear, not angular), times in
microseconds, angles in radians, field in gauss. Factors of 2 pi appear
only inside the dynamical generators.
"""

__version__ = "0.1.0"
