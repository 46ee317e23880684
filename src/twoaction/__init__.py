"""Equilibrium counting for m-player games with two actions per player.

The modules are the API; this package root re-exports none of their names,
so importing one module loads only what it needs:

- ``combinatorics``: permutations, derangement counts and the maximal
  equilibrium count;
- ``game_model``: general and product-form games, their construction and
  their files;
- ``kernel``: the census kernel over permutations (``KERNEL`` names it);
- ``candidate_engine``: exact enumeration and classification of the
  equilibrium candidates of product-form games;
- ``solver``: an independent numeric support-enumeration solver, with the
  deformation and random-scan checks;
- ``cli``: the ``twoaction`` console script.

A counting caller never loads ``solver``, and a solve never loads
``candidate_engine`` (``solver.verify_deformation`` imports it when called).
"""

from .kernel import KERNEL

__version__ = "0.1.0"
