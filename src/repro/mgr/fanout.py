"""Control-plane fanout: one management surface over child libraries.

The paper has one Router Plugin Library under the Plugin Manager
(§3.1).  :class:`FanoutLibrary` keeps that one call surface for the
front ends that compose several routers:

* a :class:`~repro.shard.sharded.ShardedRouter` — the children are the
  per-shard :class:`~repro.mgr.library.RouterPluginLibrary` objects
  (inline backend), or the forked worker pool (mp backend), which
  carries each verb as a typed ``("call", verb, args, kwargs)`` message
  to every worker's own library in one broadcast-then-collect
  roundtrip;
* a :class:`~repro.topo.topology.Topology` — one child per node, itself
  a fanout when the node is sharded.

Every configuration verb broadcasts to all children, which keeps shards
identically configured (the invariant the dispatch equivalence rests
on).  On a topology ``node=`` targets one node (``quarantine("esp",
node="gwb")``); on shards it is refused.  A verb returns the first
child's result — shard 0's handle — except on the mp backend, where
handles stay in the workers and the verb returns ``None``.

Every ``query()`` merges the children's payloads through the strategy
the topic declares in the :mod:`repro.mgr.format` registry;
``"frontend"`` topics (``health``, ``shards``, ``topology``, ``paths``)
are answered by the front end itself.

:func:`library_for` picks the library for any owner, recursively;
``PluginManager(owner)`` uses it, so ``pmgr`` scripts and ``show X
[--json]`` drive a sharded router or a whole network like one router.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.router import Router
from .format import attach_schema, get_topic, merge_topic, topic_names
from .library import RouterPluginLibrary


def library_for(owner: Any) -> Any:
    """The control library for ``owner``: a :class:`RouterPluginLibrary`
    for a Router, a :class:`FanoutLibrary` for a ShardedRouter or a
    Topology — built recursively, so a sharded topology node gets its
    own shard fanout."""
    # Local imports: repro.shard and repro.topo import repro.mgr.
    from ..shard.sharded import ShardedRouter
    from ..topo.topology import Topology

    if isinstance(owner, Topology):
        return FanoutLibrary(
            owner,
            [library_for(node) for node in owner.nodes.values()],
            nodes=list(owner.nodes),
        )
    if isinstance(owner, ShardedRouter):
        return FanoutLibrary(owner, [library_for(r) for r in owner.shards])
    if isinstance(owner, Router):
        return RouterPluginLibrary(owner)
    raise ConfigurationError(
        f"no control library for a {type(owner).__name__}; expected a "
        "Router, ShardedRouter or Topology"
    )


def _verb(name: str) -> Callable[..., Any]:
    def fan(self: "FanoutLibrary", *args: Any, node: Optional[str] = None,
            **kwargs: Any) -> Any:
        return self._fanout(name, args, kwargs, node)

    fan.__name__ = fan.__qualname__ = name
    fan.__doc__ = (
        f"Fan :meth:`RouterPluginLibrary.{name}` out to every child "
        "(``node=`` targets one topology node)."
    )
    return fan


class FanoutLibrary:
    """RouterPluginLibrary's call surface over a sharded router's shards
    or a topology's nodes (see the module docstring)."""

    #: Traced paths kept for ``pmgr show paths`` (newest last).
    PATH_CAPACITY = 16

    def __init__(self, owner: Any, libraries: Sequence[Any],
                 nodes: Optional[Sequence[str]] = None):
        self.router = owner  # the front end; topics and pmgr read it
        self.libraries: List[Any] = list(libraries)
        # Node name -> child library; None for shards, which take no
        # ``node=`` (they must stay identically configured).
        self._nodes: Optional[Dict[str, Any]] = (
            dict(zip(nodes, self.libraries)) if nodes is not None else None
        )
        self.topology = owner if nodes is not None else None
        self.tracer: Any = None  # a PathTracer on topology owners
        self._paths: Deque[Any] = deque(maxlen=self.PATH_CAPACITY)
        if self.topology is not None:
            from ..topo.tracer import PathTracer

            self.tracer = PathTracer(owner)

    # ------------------------------------------------------------------
    # Fanout plumbing
    # ------------------------------------------------------------------
    @property
    def _pool(self) -> Any:
        """The mp worker pool, or None (inline shards, topologies)."""
        return getattr(self.router, "_pool", None)

    def _targets(self, node: Optional[str]) -> List[Any]:
        if node is None:
            return self.libraries
        if self._nodes is None:
            raise ConfigurationError(
                f"node={node!r} targets one topology node; shards take "
                "every verb, so they stay identically configured"
            )
        try:
            return [self._nodes[node]]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {node!r}; known: {sorted(self._nodes)}"
            ) from None

    def _fanout(self, verb: str, args: tuple, kwargs: dict,
                node: Optional[str]) -> Any:
        targets = self._targets(node)
        pool = self._pool
        if pool is not None:
            pool.call(verb, args, kwargs)
            return None
        results = [getattr(lib, verb)(*args, **kwargs) for lib in targets]
        return results[0] if results else None

    # ------------------------------------------------------------------
    # Configuration verbs (broadcast, or one topology node)
    # ------------------------------------------------------------------
    modload = _verb("modload")
    modunload = _verb("modunload")
    create_instance = _verb("create_instance")
    free_instance = _verb("free_instance")
    bind = _verb("bind")
    unbind = _verb("unbind")
    set_scheduler = _verb("set_scheduler")
    add_route = _verb("add_route")
    add_mroute = _verb("add_mroute")
    send_message = _verb("send_message")
    quarantine = _verb("quarantine")
    reinstate = _verb("reinstate")
    set_fault_policy = _verb("set_fault_policy")
    disable_telemetry = _verb("disable_telemetry")
    enable_overload = _verb("enable_overload")
    disable_overload = _verb("disable_overload")
    start_trace = _verb("start_trace")
    stop_trace = _verb("stop_trace")

    def enable_telemetry(self, registry: Any = None,
                         node: Optional[str] = None) -> Any:
        if registry is not None:
            raise ConfigurationError(
                "a fanout attaches one registry per router; pass none "
                "and read the aggregated query('telemetry')"
            )
        return self._fanout("enable_telemetry", (), {}, node)

    def instance(self, name: str, node: Optional[str] = None) -> Any:
        """The first targeted child's instance handle (shard 0's)."""
        targets = self._targets(node)
        if self._pool is not None:
            raise ConfigurationError(
                "instance handles are not available on the mp backend"
            )
        return targets[0].instance(name)

    def instances(self, node: Optional[str] = None) -> List[str]:
        targets = self._targets(node)
        return targets[0].instances() if targets else []

    def analyze(self, include_plugins: bool = True) -> Any:
        """Full sharded sweep: plugin lints once (the fanout keeps shards
        identically configured), per-shard equivalence + codegen audits,
        and the RP404 query-mergeability audit.  Inline shards only —
        worker processes cannot ship live analysis objects back, and a
        topology is analyzed one node at a time."""
        if self.topology is not None:
            raise ConfigurationError(
                "analyze one node at a time: PluginManager(topology.node(name))"
            )
        if self._pool is not None:
            raise ConfigurationError(
                "analyze needs the inline backend (worker processes "
                "cannot ship live analysis objects back)"
            )
        from ..analysis import analyze_sharded

        report = analyze_sharded(
            self.router, libraries=self.libraries,
            include_plugins=include_plugins,
        )
        # The sweep audited every shard, so each shard's ``show aiu``
        # reports it instead of "never"/"stale".
        for lib in self.libraries:
            lib._analysis_cache = (
                lib.router.aiu.plan_epoch, lib._config_revision, report,
            )
        return report

    # ------------------------------------------------------------------
    # Path tracing (topology owners)
    # ------------------------------------------------------------------
    def trace_path(self, probe: Any, entry: Optional[str] = None,
                   now: float = 0.0) -> Any:
        """Trace a probe hop by hop and remember it for ``show paths``."""
        if self.tracer is None:
            raise ConfigurationError(
                "path tracing needs a multi-router topology "
                "(PluginManager over repro.topo.Topology)"
            )
        trace = self.tracer.trace(probe, entry=entry, now=now)
        self._paths.append(trace)
        return trace

    # ------------------------------------------------------------------
    # Aggregated queries
    # ------------------------------------------------------------------
    def query(self, topic: str, **filters: Any) -> dict:
        """Cross-child aggregate of every registered show topic, merged
        per the strategy the topic registry declares
        (docs/OBSERVABILITY.md).  ``"frontend"`` topics are answered by
        a ``_frontend_<topic>`` handler here, or else by the topic's
        query function run against this library."""
        try:
            spec = get_topic(topic)
        except KeyError:
            raise ConfigurationError(
                f"unknown query topic {topic!r}; known: {list(topic_names())}"
            ) from None
        if spec.merge != "frontend":
            data = merge_topic(spec, self._child_queries(topic, **filters))
        else:
            handler = getattr(self, f"_frontend_{topic}", None)
            if handler is not None:
                data = handler(**filters)
            else:
                data = spec.run_query(self, **filters)
        return attach_schema(spec, data)

    def _child_queries(self, topic: str, **filters: Any) -> List[dict]:
        pool = self._pool
        if pool is not None:
            return pool.query(topic, **filters)
        return [lib.query(topic, **filters) for lib in self.libraries]

    def _frontend_health(self) -> dict:
        return self.router.health()

    def _frontend_shards(self) -> dict:
        """Per-shard rows numbered by shard; on a topology every node's
        rows, labelled ``node/shard``."""
        per_child = self._child_queries("shards")
        if self._nodes is None:
            return {
                "nshards": self.router.nshards,
                "backend": self.router.backend,
                "shards": [
                    {**data["shards"][0], "shard": i}
                    for i, data in enumerate(per_child)
                ],
            }
        rows = [
            {**row, "shard": f"{name}/{row['shard']}"}
            for name, data in zip(self._nodes, per_child)
            for row in data["shards"]
        ]
        backends = sorted({data["backend"] for data in per_child})
        return {
            "nshards": len(rows),
            "backend": "+".join(backends) if backends else "topo",
            "shards": rows,
        }
