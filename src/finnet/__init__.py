"""Cross-border financial asset network toolkit.

Builds thresholded directed networks from bilateral asset/GDP panels,
compares them against null-model graph families, measures robustness
under error/attack node knockouts, and simulates loss-given-default
contagion cascades.

Every public name is imported from its module (``from finnet.lgd import
cascade``); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
