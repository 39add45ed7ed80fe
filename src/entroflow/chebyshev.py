"""Chebyshev panels: the numerics that the flow's table of tau(t) and a
pair's start for its Newton solves share.

A panel [lo, hi] is sampled at the POINTS Chebyshev points of the second
kind (Clenshaw-Curtis), whose values give the coefficients of the
interpolating Chebyshev series in s in [-1, 1], t = hi (1 + s) / 2 +
lo (1 - s) / 2.  ``chop`` is the rule of Aurentz & Trefethen, *Chopping a
Chebyshev Series* (2017), which finds where the coefficients reach a
plateau, and ``clenshaw`` sums series at a batch of points, each with its
own coefficients.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["POINTS", "nodes", "coefficients", "chop", "integral", "clenshaw"]

#: Points per panel, a series of degree 32.  The chop finds a plateau that
#: begins by about 0.8 of the degree, so a panel resolves a rate whose
#: coefficients reach rounding by degree 22; the rates of every shipped run
#: and benchmark table do, and a rate that does not is split.
POINTS = 33
_N = POINTS - 1
#: The points on [-1, 1], ascending: s_j = -cos(pi j / n).
_S = -np.cos(np.pi * np.arange(POINTS) / _N)
_S[_N // 2] = 0.0
# c_k = (2 / n) sum_j'' v_j T_k(s_j), with T_k(s_j) = (-1)^k cos(pi j k / n),
# the first and last terms of the sum, and c_0 and c_n, halved; the sum is
# divided by n / 2 last, so that a constant's c_0 is exact
_TRANSFORM = np.cos(np.pi * np.outer(np.arange(POINTS), np.arange(POINTS)) / _N)
_TRANSFORM[:, [0, _N]] *= 0.5
_TRANSFORM[[0, _N]] *= 0.5
_TRANSFORM[1::2] *= -1.0


def nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The points of each panel [lo, hi] (P, POINTS), with lo and hi exact."""
    return np.multiply.outer(hi, 0.5 * (1.0 + _S)) + np.multiply.outer(lo, 0.5 * (1.0 - _S))


def coefficients(values: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients (P, POINTS, m) of the values (P, POINTS,
    m) at each panel's points."""
    return np.einsum("kj,pjm->pkm", _TRANSFORM, values) / (0.5 * _N)


def chop(coeffs: np.ndarray, tol: float) -> int:
    """How many of ``coeffs`` to keep by the rule of Aurentz & Trefethen:
    len(coeffs) when their envelope reaches no plateau at relative level
    ``tol``, fewer once it does."""
    n = len(coeffs)
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    levels, log_tol = envelope.tolist(), math.log(tol)
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = int(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = levels[j - 1], levels[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / log_tol):
            plateau = j - 1
            break
    if envelope[plateau - 1] == 0.0:
        return plateau
    j3 = int(np.sum(envelope >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7.0 / 6.0)
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def integral(coeffs: np.ndarray) -> np.ndarray:
    """The coefficients (m + 1, ...) of the integral from 1 to s of the
    series ``coeffs`` (m, ...), from int T_0 = T_1, int T_1 = T_2 / 4 and
    int T_k = T_(k+1) / (2 (k + 1)) - T_(k-1) / (2 (k - 1))."""
    padded = np.concatenate([coeffs, np.zeros((2,) + coeffs.shape[1:])])
    k = np.arange(1, len(coeffs) + 1).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    out = np.empty((len(coeffs) + 1,) + coeffs.shape[1:])
    out[1:] = (padded[:-2] - padded[2:]) / (2.0 * k)
    out[1] = coeffs[0] - 0.5 * padded[2]
    out[0] = -np.sum(out[1:], axis=0)  # the integral is 0 at s = 1, where T_k = 1
    return out


def clenshaw(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n, ..., i] T_n(s[i]) for each i, by Clenshaw's
    recurrence: ``coeffs`` (m, ..., k), degree first and points last, and
    ``s`` (k,) give (..., k); the point axis may also be 1, for series that
    every point shares.  Zero coefficients past a series' degree leave its
    sum as it is."""
    x = 2.0 * s
    # the recurrence b1, b2 = c + x b1 - b2, b1 in three buffers, of the
    # shape that the series and the points broadcast to
    b0, b1, b2 = np.zeros((3,) + np.broadcast_shapes(coeffs.shape[1:], np.shape(s)))
    for c in coeffs[:0:-1]:
        np.multiply(x, b1, out=b0)
        b0 += c
        b0 -= b2
        b0, b1, b2 = b2, b0, b1
    return coeffs[0] + 0.5 * x * b1 - b2
