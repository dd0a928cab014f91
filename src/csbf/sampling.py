"""Random mass assignments for search and verification harnesses."""

from __future__ import annotations

import numpy as np

from .core import Frame, MassFunction


def random_mass_function(
    frame: Frame,
    rng: np.random.Generator,
    *,
    full_support: bool = False,
    max_focal: int = 8,
    alpha: float = 1.0,
) -> MassFunction:
    """Draw a random mass assignment on the frame.

    With ``full_support`` the weights are Dirichlet over every nonempty
    subset (uniform on the mass simplex for ``alpha=1``).  Otherwise a small
    random family of focal elements is picked first, which keeps consistent
    and inconsistent draws both well represented.
    """
    n_subsets = frame.n_subsets
    if full_support:
        masks = np.arange(1, n_subsets)
    else:
        count = int(rng.integers(1, min(max_focal, n_subsets - 1) + 1))
        masks = rng.choice(np.arange(1, n_subsets), size=count, replace=False)
    weights = rng.dirichlet(np.full(len(masks), alpha))
    return MassFunction(frame, np.bincount(masks, weights=weights, minlength=n_subsets))
