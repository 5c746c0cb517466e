"""Lock-order rule: the global lock-acquisition graph must be acyclic.

The distributed backends serialize shared state behind locks
(``TcpTransport._lock`` around the socket, and whatever the elastic
fleet work adds next).  Two locks ever taken in opposite orders on two
code paths is a deadlock waiting for the right interleaving — the kind
of bug that surfaces once a month on a loaded broker and never under a
debugger.  This rule builds the held→acquired graph across *all*
analyzed files (lexical nesting plus calls made while holding a lock,
transitively) and flags every strongly-connected component in it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import ProjectContext
from repro.analysis.dataflow import build_lock_graph, lock_cycles
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_rule

__all__ = ["LockOrderRule"]


class LockOrderRule(ProjectRule):
    """Flag cycles in the project-wide lock-acquisition order."""

    id = "lock-order"
    summary = (
        "lock acquisitions must form a consistent global order: a cycle "
        "in the held->acquired graph is a potential deadlock"
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        lock_graph = ctx._extra.get("lock_graph")
        if lock_graph is None:
            lock_graph = build_lock_graph(ctx.table, ctx.graph)
            ctx._extra["lock_graph"] = lock_graph
        for cycle in lock_cycles(lock_graph):
            # Anchor at the first witness site so the finding lands in
            # real code; the chain carries every edge of the cycle.
            arrow, qual, line = cycle.witnesses[0]
            summary = ctx.table.summary_of(qual)
            path = summary.relpath if summary else "<unknown>"
            info = ctx.table.function(qual)
            chain = tuple(
                (
                    witness_arrow,
                    (
                        ctx.table.summary_of(witness_qual).relpath
                        if ctx.table.summary_of(witness_qual)
                        else "<unknown>"
                    ),
                    witness_line,
                )
                for witness_arrow, witness_qual, witness_line in cycle.witnesses
            )
            yield Finding(
                rule=self.id,
                path=path,
                line=line,
                col=0,
                message=(
                    "lock-order cycle between "
                    + ", ".join(cycle.locks)
                    + ": these locks are acquired in conflicting orders, "
                    "so two threads can deadlock — pick one global order "
                    "(witnesses: "
                    + "; ".join(a for a, _, _ in cycle.witnesses)
                    + ")"
                ),
                code=info.code if info else "",
                chain=chain,
            )


register_rule(LockOrderRule())
