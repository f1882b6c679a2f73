"""CMC sphere and Hopf torus stability theory of the Berger spheres.

Closed-form fundamental data and spectra, Koiso stability classification,
flat-torus spectra, region constants, and isoperimetric profiles.  Import
each name from its module (bergercmc.tori, ...): the package loads none.
"""

__version__ = "0.1.0"
