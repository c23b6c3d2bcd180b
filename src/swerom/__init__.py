"""Reduced-order modeling of the 2D shallow water equations.

Three reduction strategies (plain POD-Galerkin, a tensorial variant with
precomputed coefficient tensors, and POD/DEIM hyper-reduction) built on top
of an implicit alternating-direction finite-difference reference solver,
plus a benchmark harness comparing their accuracy and cost.
"""

from swerom.heap import fix_thresholds

__version__ = "0.1.0"

# pinned once per process: see swerom.heap
fix_thresholds()
