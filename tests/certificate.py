"""The optimality certificate of the top-ball projection, shared by the tests.

The top ball C = { top_norm <= 1 } is the unit ball of the dual of the
k-support norm, so the support function of C is the k-support norm.
Hence w = P_C(y) exactly when ``top_norm(w) <= 1`` and
``ksupport(y - w) = <y - w, w>``: y - w lies in the normal cone of C at w.
"""

import numpy as np

from ksupport.norms import ksupport_value, top_norm


def certificate_parts(y, w, spec) -> tuple[float, float, float]:
    """``(top_norm(w) - 1, |ksupport(r) - <r, w>|, ksupport(r))`` with ``r = y - w``."""
    r = np.asarray(y, dtype=float) - w
    ks = ksupport_value(r, spec)
    return top_norm(w, spec) - 1.0, abs(ks - float(r @ w)), ks


def certificate_residual(y, w, spec) -> float:
    """The larger residual part, relative to ``max(1, max|y|)``: 0 at the projection."""
    excess, gap, _ = certificate_parts(y, w, spec)
    return max(excess, gap) / max(1.0, float(np.max(np.abs(y))))
