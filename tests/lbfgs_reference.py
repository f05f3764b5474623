"""Reference forms of the L-BFGS memory, for tests only.

Nothing here shares code with :mod:`qnbench.lbfgs`; what reads a memory
reads it through its public ``pairs`` (copies, oldest first):

- :func:`screen_reference` is the curvature screen as a plain yes/no test;
- :func:`two_loop_reference` is the two-loop recursion over one vector per
  pair, the form ``LbfgsMemory.direction`` must reproduce bit for bit;
- :func:`materialize` builds the dense shifted BFGS matrix by textbook
  rank-two updates, which the recursion must invert to 1e-9;
- :func:`bfgs_spectral_bounds` is the eigenvalue envelope of such matrices.
"""

from __future__ import annotations

import numpy as np


def screen_reference(s, y_bar, min_curv: float = 1e-10, max_curv: float = 1e10) -> bool:
    """The curvature screen as a yes/no test, with ``np.isfinite`` as its
    entry, overflow and underflow guard; ``screen_pair`` must admit exactly
    these pairs."""
    s = np.asarray(s, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(y_bar).all()):
        return False
    ss = float(s @ s)
    if ss == 0.0:
        return False
    sy = float(y_bar @ s)
    yy = float(y_bar @ y_bar)
    if not (np.isfinite(ss) and np.isfinite(sy) and np.isfinite(yy)):
        return False
    if not (sy > 0.0 and np.isfinite(1.0 / sy)):
        return False
    return sy >= min_curv * ss and sy >= yy / max_curv


def shifted_gamma(pairs, mu: float) -> float:
    """``||y + mu s||^2 / (y + mu s)'s`` of the oldest pair; ``1 + mu`` when empty."""
    if not pairs:
        return 1.0 + mu
    p = pairs[0]
    return (p.yy + 2.0 * mu * p.sy + mu * mu * p.ss) / (p.sy + mu * p.ss)


def two_loop_reference(pairs, g, mu: float = 0.0) -> np.ndarray:
    """Shifted two-loop direction over a list of pairs, one vector each."""
    g = np.asarray(g, dtype=float)
    if not pairs:
        return -g / (1.0 + mu)
    if mu == 0.0:
        ys = [p.y_bar for p in pairs]
        sys_mu = [p.sy for p in pairs]
    else:
        ys = [p.y_bar + mu * p.s for p in pairs]
        sys_mu = [p.sy + mu * p.ss for p in pairs]
    rhos = []
    for sy_mu in sys_mu:
        if sy_mu <= 0.0:
            raise ValueError("shifted pair lost positive curvature")
        rhos.append(1.0 / sy_mu)
    q = g.copy()
    alphas = [0.0] * len(pairs)
    for i in range(len(pairs) - 1, -1, -1):
        alpha = rhos[i] * float(pairs[i].s @ q)
        alphas[i] = alpha
        q -= alpha * ys[i]
    r = q / shifted_gamma(pairs, mu)
    for i in range(len(pairs)):
        beta = rhos[i] * float(ys[i] @ r)
        r += (alphas[i] - beta) * pairs[i].s
    return -r


def materialize(memory, mu: float, n: int) -> np.ndarray:
    """Dense shifted BFGS matrix of ``memory``, built by rank-two updates.

    Limited to ``n <= 50``; ``memory.direction(g, mu)`` must agree with
    ``-inv(materialize(memory, mu, n)) @ g``.
    """
    if n > 50:
        raise ValueError("materialize is a test oracle, n <= 50 only")
    pairs = memory.pairs
    if not pairs:
        return (1.0 + mu) * np.eye(n)
    b = shifted_gamma(pairs, mu) * np.eye(n)
    for p in pairs:
        y_mu = p.y_bar + mu * p.s
        sy_mu = p.sy + mu * p.ss
        bs = b @ p.s
        sbs = float(p.s @ bs)
        if sbs <= 0.0 or sy_mu <= 0.0:
            raise ValueError("BFGS update would divide by a nonpositive curvature")
        b = b - np.outer(bs, bs) / sbs + np.outer(y_mu, y_mu) / sy_mu
    return b


def bfgs_spectral_bounds(num_pairs: int, min_curv: float, max_curv: float) -> tuple[float, float]:
    """Eigenvalue envelope [m, M] of a BFGS matrix from screened pairs.

    Any matrix built from ``num_pairs`` pairs inside the screen region has
    eigenvalues within these bounds; they shrink/grow geometrically with the
    pair count and the screen condition number.
    """
    kappa = max_curv / min_curv
    big = (1.0 + num_pairs) * max_curv
    small = 1.0 / (
        (1.0 + np.sqrt(kappa)) ** (2 * num_pairs)
        * (1.0 / min_curv + 1.0 / (min_curv * (2.0 * np.sqrt(kappa) + kappa)))
    )
    return small, big
