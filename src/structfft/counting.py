"""Exact complex-arithmetic operation counting.

Convention: one complex multiplication (or division) costs 1 op, one complex
addition/subtraction costs 1 op.  Twiddle-factor generation, index arithmetic
and data movement are free.  Under this convention a radix-2 FFT of length N
costs exactly 1.5 * N * log2(N) ops (N/2 multiplications and N additions per
stage).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


class OpCounter:
    """Monotone counter of complex additions and multiplications, by phase.

    Nothing here is global: a caller passes its own counter, and one counter
    may span many calls, each adding its charge to what is already there.
    Counts only ever grow; `reset()` is the one explicit way back to zero.
    """

    __slots__ = ("_adds", "_mults", "_phases", "bit_ops")

    def __init__(self) -> None:
        self._adds = 0
        self._mults = 0
        self._phases: dict[str, list[int]] = {}
        # bookkeeping cost of tree construction, reported separately and
        # never mixed into the complex-op totals
        self.bit_ops = 0

    def add(self, n: int = 1, phase: str = "default") -> None:
        if n < 0:
            raise ValueError("op counts are monotone")
        self._adds += n
        self._phases.setdefault(phase, [0, 0])[0] += n

    def mul(self, n: int = 1, phase: str = "default") -> None:
        if n < 0:
            raise ValueError("op counts are monotone")
        self._mults += n
        self._phases.setdefault(phase, [0, 0])[1] += n

    def count_bit_ops(self, n: int) -> None:
        self.bit_ops += n

    @property
    def complex_adds(self) -> int:
        return self._adds

    @property
    def complex_mults(self) -> int:
        return self._mults

    @property
    def total(self) -> int:
        return self._adds + self._mults

    def phase(self, name: str) -> tuple[int, int]:
        """(adds, mults) recorded under `name`."""
        a, m = self._phases.get(name, (0, 0))
        return a, m

    @property
    def phases(self) -> dict[str, tuple[int, int]]:
        return {k: (v[0], v[1]) for k, v in self._phases.items()}

    def reset(self) -> None:
        self._adds = 0
        self._mults = 0
        self._phases = {}
        self.bit_ops = 0

    def __repr__(self) -> str:
        return f"OpCounter(adds={self._adds}, mults={self._mults}, phases={self.phases})"


@dataclass(frozen=True)
class CostReport:
    """The counted per-phase costs of one transform run and the analytic
    bounds, read-only.  `sas_transform` takes every figure from the plan (J
    and the pivots), never from a counter, so a report is its own call's;
    `charge` passes it on to a counter."""

    tree_build_bitops: int = 0
    hidft_adds: int = 0
    hidft_mults: int = 0
    solve_adds: int = 0
    solve_mults: int = 0
    read_ops: int = 0
    samples_touched: int = 0
    bound_alg1bnd: float = 0.0
    bound_hidft: float = 0.0
    # always 0: nothing escalates or falls back any more; kept while
    # perfbench/run.py reads them
    escalated_nodes: int = 0
    dense_fallbacks: int = 0

    @property
    def ops_hidft(self) -> int:
        return self.hidft_adds + self.hidft_mults

    @property
    def ops_solve(self) -> int:
        return self.solve_adds + self.solve_mults + self.read_ops

    @property
    def total(self) -> int:
        return self.ops_hidft + self.ops_solve

    def charge(self, counter: OpCounter) -> None:
        """Add the bit ops, then the "hidft", "read" and "solve" phases, to
        counter; a phase with no ops gets no entry."""
        counter.count_bit_ops(self.tree_build_bitops)
        for phase, adds, mults in (("hidft", self.hidft_adds, self.hidft_mults),
                                   ("read", 0, self.read_ops),
                                   ("solve", self.solve_adds, self.solve_mults)):
            if adds or mults:
                counter.mul(mults, phase=phase)
                counter.add(adds, phase=phase)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["ops_hidft"] = self.ops_hidft
        d["ops_solve"] = self.ops_solve
        d["ops_total"] = self.total
        return d
