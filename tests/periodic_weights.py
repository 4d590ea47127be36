"""Periodic-point cylinder weights, the oracle for the descent's masses."""

import numpy as np

from mfgibbs.thermodynamics import periodic_sums


def periodic_weights(ifs, psi, n: int) -> np.ndarray:
    """exp(S_n psi)/Z at the periodic point of every length-n word, in
    lexicographic order: the Gibbs cylinder masses of a zero-pressure psi
    up to the distortion constant, and exactly for product measures."""
    sums = periodic_sums(ifs, psi, n)
    e = np.exp(sums - sums.max())
    return e / e.sum()
