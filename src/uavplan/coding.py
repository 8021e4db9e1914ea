"""Coded matrix-multiplication copy arithmetic.

Accounting layer for polynomial-coded square matrix products: how the
input pair is sliced into coded copies, how many computed copies must
come back before decoding succeeds (the recovery threshold), and how
many symbols each pipeline step touches. Nothing here performs actual
encoding; downstream cost models only need the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CodeSplit",
    "FractionalSplit",
    "SymbolCounts",
    "recovery_threshold",
    "optimal_split",
    "fractional_split",
    "symbol_counts",
]


def recovery_threshold(s: int, t: int) -> int:
    """Number of returned copies needed to decode: t^2 * (2s - 1).

    ``s`` and ``t`` are the two slice counts of the split. The threshold
    grows quadratically in ``t`` and linearly in ``s``, which is what
    makes the slicing choice a real trade-off: column-heavy splits
    shrink per-copy work but demand many more returned copies.
    """
    if not isinstance(s, int) or not isinstance(t, int):
        raise TypeError("slice counts must be integers")
    if s < 1 or t < 1:
        raise ValueError(f"slice counts must be >= 1, got s={s}, t={t}")
    return t * t * (2 * s - 1)


@dataclass(frozen=True)
class CodeSplit:
    """A slicing choice (m, s, t) with its recovery threshold k.

    Each coded copy holds a 1/m fraction of the input pair; ``s`` and
    ``t`` are the slice counts along the two axes with s * t = m, and
    k = t^2 * (2s - 1) copies must return before decoding.
    """

    m: int
    s: int
    t: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "s", "t", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.s * self.t != self.m:
            raise ValueError(f"s*t must equal m: {self.s}*{self.t} != {self.m}")
        expected = recovery_threshold(self.s, self.t)
        if self.k != expected:
            raise ValueError(f"k must be t^2*(2s-1) = {expected}, got {self.k}")

    @classmethod
    def from_slices(cls, m: int, s: int, t: int) -> "CodeSplit":
        return cls(m, s, t, recovery_threshold(s, t))


@dataclass(frozen=True)
class FractionalSplit:
    """Relaxed split used by recovery-threshold sweeps.

    Allows t = m / s to be non-integer so that s can range over values
    that do not divide m; k is rounded to the nearest integer. Regular
    planning goes through :class:`CodeSplit`.
    """

    m: int
    s: int
    t: float
    k: int


def fractional_split(m: int, s: int) -> CodeSplit | FractionalSplit:
    """Split with t = m/s, exact when s divides m, rounded-k otherwise."""
    if m < 1 or s < 1:
        raise ValueError("m and s must be positive")
    if m % s == 0:
        return CodeSplit.from_slices(m, s, m // s)
    t = m / s
    k = int(math.floor(t * t * (2 * s - 1) + 0.5))
    return FractionalSplit(m=m, s=s, t=t, k=k)


def optimal_split(m: int, objective: str = "max_k") -> CodeSplit:
    """Best divisor pair (s, t) of m under the given objective.

    ``max_k`` favours resilience (largest recovery threshold), ``min_k``
    favours cheap decoding. Ties break toward the smallest t.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if objective not in ("max_k", "min_k"):
        raise ValueError(f"objective must be 'max_k' or 'min_k', got {objective!r}")
    best: CodeSplit | None = None
    for t in range(1, m + 1):
        if m % t != 0:
            continue
        cand = CodeSplit.from_slices(m, m // t, t)
        if best is None:
            best = cand
            continue
        if objective == "max_k":
            better = cand.k > best.k or (cand.k == best.k and cand.t < best.t)
        else:
            better = cand.k < best.k or (cand.k == best.k and cand.t < best.t)
        if better:
            best = cand
    assert best is not None
    return best


@dataclass(frozen=True)
class SymbolCounts:
    """Symbol counts of one coded copy of an N x N matrix product; the
    decode count covers the whole task."""

    d_enc: float
    d_dec: float
    d_comm_to: float
    d_cmp: float
    d_comm_fr: float


def symbol_counts(n_dim: int, split: CodeSplit | FractionalSplit) -> SymbolCounts:
    """Per-step symbol counts for one coded copy.

    - encode one copy: N^2
    - transmit one copy to a server: N^2 / m
    - compute one copy: N^3 / (m t)
    - receive one computed copy back: N^2 / t^2
    - decode once k copies are back: N^2 k (log2 k)^2
    """
    if not isinstance(n_dim, int) or n_dim < 1:
        raise ValueError(f"matrix dimension must be a positive integer, got {n_dim!r}")
    n2 = float(n_dim) ** 2
    n3 = float(n_dim) ** 3
    kk = split.t * split.t * (2 * split.s - 1)
    log_k = math.log2(kk) if kk > 1 else 0.0
    return SymbolCounts(
        d_enc=n2,
        d_dec=n2 * kk * log_k * log_k,
        d_comm_to=n2 / split.m,
        d_cmp=n3 / (split.m * split.t),
        d_comm_fr=n2 / (split.t * split.t),
    )
