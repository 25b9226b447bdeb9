"""Base class and shared helpers for application models."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.tracing.buffers import Buffer
from repro.tracing.context import RankContext, RequestHandle
from repro.tracing.timebase import DEFAULT_MIPS

#: Fraction of a computation burst during which boundary (to-be-sent) data is
#: produced in the *real* pattern: the tail of the burst.
DEFAULT_TAIL_FRACTION = 0.05
#: Fraction of a computation burst during which halo (received) data is
#: consumed in the *real* pattern: the head of the burst.
DEFAULT_HEAD_FRACTION = 0.03


class ApplicationModel(ABC):
    """A parameterised SPMD application model.

    Subclasses implement :meth:`run`, which is executed once per rank by the
    tracing virtual machine with a :class:`RankContext`.
    """

    #: Short identifier used in reports and trace metadata.
    name = "application"

    def __init__(self, num_ranks: int, iterations: int,
                 mips: float = DEFAULT_MIPS, imbalance: float = 0.0):
        if num_ranks < 2:
            raise ConfigurationError(
                f"{self.name}: at least 2 ranks are required, got {num_ranks}")
        if iterations < 1:
            raise ConfigurationError(
                f"{self.name}: at least 1 iteration is required, got {iterations}")
        if mips <= 0:
            raise ConfigurationError(f"{self.name}: MIPS rate must be positive")
        if not 0.0 <= imbalance < 1.0:
            raise ConfigurationError(
                f"{self.name}: imbalance must be in [0, 1), got {imbalance}")
        self.num_ranks = num_ranks
        self.iterations = iterations
        self.mips = mips
        self.imbalance = imbalance

    # -- interface ---------------------------------------------------------
    @abstractmethod
    def run(self, ctx: RankContext) -> None:
        """Execute the model for the rank described by ``ctx``."""

    def describe(self) -> Dict[str, Any]:
        """Metadata stored in the trace."""
        return {
            "name": self.name,
            "num_ranks": self.num_ranks,
            "iterations": self.iterations,
            "mips": self.mips,
            "imbalance": self.imbalance,
        }

    # -- shared helpers -----------------------------------------------------
    def imbalanced(self, instructions: float, rank: int, iteration: int,
                   phase: int = 0) -> float:
        """Apply deterministic per-rank, per-iteration load imbalance."""
        if self.imbalance <= 0:
            return instructions
        seed = (rank * 2654435761 + iteration * 40503 + phase * 9973) % 1000
        deviation = (seed / 999.0) * 2.0 - 1.0
        return instructions * (1.0 + self.imbalance * deviation)

    @staticmethod
    def stencil_compute(ctx: RankContext, instructions: float,
                        consume: Sequence[Buffer] = (),
                        produce: Sequence[Buffer] = (),
                        head_fraction: float = DEFAULT_HEAD_FRACTION,
                        tail_fraction: float = DEFAULT_TAIL_FRACTION) -> None:
        """One stencil-style computation burst with the *real* access pattern.

        The received halos in ``consume`` are loaded during the head of the
        burst, the interior is computed in the middle, and the boundary data
        in ``produce`` is stored during the tail of the burst (the boundary
        cells are updated last).  This is the measured behaviour the paper
        relies on when it concludes that the real-pattern overlapping
        potential is negligible.
        """
        if instructions < 0:
            raise ConfigurationError(f"negative burst length: {instructions}")
        if head_fraction < 0 or tail_fraction < 0 or head_fraction + tail_fraction > 1:
            raise ConfigurationError("invalid head/tail fractions")
        head = instructions * head_fraction
        tail = instructions * tail_fraction
        body = instructions - head - tail
        if consume:
            share = head / len(consume)
            for buffer in consume:
                ctx.read(buffer)
                ctx.compute(share)
        elif head > 0:
            ctx.compute(head)
        ctx.compute(body)
        if produce:
            share = tail / len(produce)
            for buffer in produce:
                ctx.compute(share)
                ctx.write(buffer)
        elif tail > 0:
            ctx.compute(tail)

    @staticmethod
    def halo_exchange(ctx: RankContext,
                      sends: Sequence[Tuple[int, Buffer, int]],
                      recvs: Sequence[Tuple[int, Buffer, int]]) -> None:
        """Non-blocking neighbour exchange: irecv all, isend all, wait all."""
        requests: List[RequestHandle] = []
        for peer, buffer, tag in recvs:
            requests.append(ctx.irecv(peer, buffer, tag=tag))
        for peer, buffer, tag in sends:
            requests.append(ctx.isend(peer, buffer, tag=tag))
        if requests:
            ctx.waitall(requests)

    @staticmethod
    def edge_message_size(base_size: int, rank_a: int, rank_b: int,
                          variation: float = 0.0) -> int:
        """Deterministic per-edge message size, identical on both endpoints."""
        if variation <= 0:
            return base_size
        low, high = min(rank_a, rank_b), max(rank_a, rank_b)
        seed = (low * 73856093 + high * 19349663) % 1000
        deviation = (seed / 999.0) * 2.0 - 1.0
        return max(1, int(base_size * (1.0 + variation * deviation)))
