"""Spin dynamics toolkit for quadrupolar nuclei: operator algebra,
coherent and cat states, nonlinear free evolution, spherical
quasiprobability maps, simulated tomography, and strongly modulating
pulse design."""

__version__ = "0.1.0"
