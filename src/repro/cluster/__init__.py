"""Multi-node serving: router front-end + shared verdict-cache tier.

One :class:`~repro.cluster.router.ClusterRouter` fronts N
``repro serve`` worker daemons, sharding submissions over a consistent
hash ring keyed by the same canonical coalescing key the single-node
scheduler deduplicates on — so identical requests land on the same node
and coalesce there exactly as they would against one server.  A
:class:`~repro.cluster.cachetier.CacheTierServer` gives all nodes a
shared verdict-cache tier behind their node-local caches; any tier
outage degrades to purely local caching, never to a failed compile.

Robustness is the point, not an afterthought: per-node health probes
and circuit breakers steer the ring around dead nodes, jobs stranded on
a killed node are re-dispatched (idempotency keys plus compile
determinism make the replay safe and byte-identical), and deadline
budgets follow a job across hops.  ``docs/cluster.md`` walks the
topology and the failure matrix; the ``cluster-chaos`` tests and CI job
prove it by killing a worker mid-job.
"""

from .cachetier import CacheTierClient, CacheTierServer, TieredOracleCache
from .membership import WorkerNode
from .router import ClusterRouter

__all__ = [
    "CacheTierClient",
    "CacheTierServer",
    "TieredOracleCache",
    "WorkerNode",
    "ClusterRouter",
]
