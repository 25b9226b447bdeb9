"""NAS CG model: conjugate gradient with an irregular sparse matrix.

Every CG iteration multiplies the sparse matrix by a vector (the dominant
computation), exchanges partial vectors with the transpose partners of the
2-D processor decomposition, and performs two to three dot-product
allreduces.  The allreduces and the load imbalance of the irregular matrix
are what keeps the overlapping potential low (about 10 % in the paper) even
with an ideal computation pattern.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.base import ApplicationModel
from repro.tracing.context import RankContext


class NasCG(ApplicationModel):
    """Synthetic NAS CG (butterfly partner exchange plus dot products)."""

    name = "nas-cg"

    def __init__(self, num_ranks: int = 16, iterations: int = 6,
                 vector_bytes: int = 35_000,
                 instructions_per_iteration: float = 2.5e6,
                 dot_products_per_iteration: int = 3,
                 mips: float = 1000.0, imbalance: float = 0.15):
        super().__init__(num_ranks, iterations, mips=mips, imbalance=imbalance)
        if vector_bytes < 1:
            raise ValueError("vector_bytes must be positive")
        if instructions_per_iteration <= 0:
            raise ValueError("instructions_per_iteration must be positive")
        if dot_products_per_iteration < 0:
            raise ValueError("dot_products_per_iteration must be non-negative")
        self.vector_bytes = int(vector_bytes)
        self.instructions_per_iteration = float(instructions_per_iteration)
        self.dot_products_per_iteration = int(dot_products_per_iteration)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update({
            "vector_bytes": self.vector_bytes,
            "instructions_per_iteration": self.instructions_per_iteration,
            "dot_products_per_iteration": self.dot_products_per_iteration,
        })
        return info

    def _partners(self, rank: int) -> List[int]:
        """Butterfly (transpose) partners, a symmetric relation.

        At ``4m + 1`` ranks the last rank has no partner in range; it
        exchanges with rank 0 (its ring successor), and rank 0 with it.
        """
        last = self.num_ranks - 1
        partners = [rank ^ stride for stride in (1, 2) if rank ^ stride <= last]
        if last % 4 == 0:
            if rank == last:
                return [0]
            if rank == 0:
                partners.append(last)
        return partners

    def run(self, ctx: RankContext) -> None:
        rank = ctx.rank
        partners = self._partners(rank)
        send_buffers = {
            partner: ctx.buffer(f"q_to_{partner}", self.vector_bytes)
            for partner in partners
        }
        recv_buffers = {
            partner: ctx.buffer(f"q_from_{partner}", self.vector_bytes)
            for partner in partners
        }
        sends = [(partner, send_buffers[partner], 20) for partner in partners]
        recvs = [(partner, recv_buffers[partner], 20) for partner in partners]
        for iteration in range(self.iterations):
            # Exchange the vector pieces produced by the previous iteration;
            # the matrix-vector product that follows consumes them right away.
            self.halo_exchange(ctx, sends, recvs)
            instructions = self.imbalanced(
                self.instructions_per_iteration, rank, iteration)
            # Sparse matrix-vector product: consumes the partner pieces just
            # received, produces the partial results for the next exchange.
            self.stencil_compute(ctx, instructions,
                                 consume=list(recv_buffers.values()),
                                 produce=list(send_buffers.values()),
                                 head_fraction=0.03, tail_fraction=0.05)
            # Dot products of the CG recurrence (rho, alpha, beta).
            for _dot in range(self.dot_products_per_iteration):
                ctx.allreduce(count=1)
