"""Plugin and plugin-instance base classes (§4).

"Each plugin in our framework is identified by a 32 bit plugin code.
The upper 16 bits of the code identify the plugin type ... there is a
direct correspondence between a gate in our architecture and the plugin
type."

A :class:`Plugin` is a loadable module: it registers a callback with the
PCU and answers the standardized message set.  A :class:`PluginInstance`
is one run-time configuration of a plugin, bindable to flows; its
``process(packet, ctx)`` is "the main packet processing function which is
called at the gate".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..sim.cost import NULL_METER
from .errors import InstanceError, UnknownMessageError
from .messages import (
    Message,
    MSG_CREATE_INSTANCE,
    MSG_DEREGISTER_INSTANCE,
    MSG_FREE_INSTANCE,
    MSG_REGISTER_INSTANCE,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..aiu.records import FlowRecord, GateSlot
    from .pcu import PluginControlUnit

# ---------------------------------------------------------------------------
# Plugin type codes (upper 16 bits of the 32-bit plugin code).
# ---------------------------------------------------------------------------
TYPE_IP_OPTIONS = 1
TYPE_IP_SECURITY = 2
TYPE_PACKET_SCHEDULING = 3
TYPE_BMP = 4
TYPE_ROUTING = 5           # §8 future work: routing in the classifier
TYPE_STATISTICS = 6        # envisioned in §4
TYPE_CONGESTION = 7        # e.g. RED
TYPE_FIREWALL = 8
TYPE_MONITOR = 9           # TCP congestion backoff monitoring

PLUGIN_TYPE_NAMES = {
    TYPE_IP_OPTIONS: "ip_options",
    TYPE_IP_SECURITY: "ip_security",
    TYPE_PACKET_SCHEDULING: "packet_scheduling",
    TYPE_BMP: "bmp",
    TYPE_ROUTING: "routing",
    TYPE_STATISTICS: "statistics",
    TYPE_CONGESTION: "congestion",
    TYPE_FIREWALL: "firewall",
    TYPE_MONITOR: "monitor",
}


def plugin_code(plugin_type: int, plugin_id: int) -> int:
    """Compose the 32-bit plugin code: type in the upper 16 bits."""
    if not 0 <= plugin_type <= 0xFFFF or not 0 <= plugin_id <= 0xFFFF:
        raise ValueError("plugin type/id must fit in 16 bits each")
    return (plugin_type << 16) | plugin_id


def plugin_type_of(code: int) -> int:
    return code >> 16


def plugin_id_of(code: int) -> int:
    return code & 0xFFFF


# ---------------------------------------------------------------------------
# Packet verdicts
# ---------------------------------------------------------------------------
class Verdict:
    """What a plugin instance did with a packet."""

    CONTINUE = "continue"    # keep walking the IP core
    DROP = "drop"            # discard (firewall, RED, failed auth, ...)
    CONSUMED = "consumed"    # plugin took ownership (e.g. queued by a scheduler)


@dataclass
class PluginContext:
    """Everything a plugin instance may need while processing a packet.

    Contract: a context is only valid for the duration of the
    ``process(packet, ctx)`` call it was passed to.  The batched fast
    path (``Router.receive_batch``) pools one context per gate and
    mutates it between packets, so plugins must not retain a reference
    across calls — copy out whatever they need instead.
    """

    router: Any = None
    gate: Optional[str] = None
    now: float = 0.0
    cycles: Any = NULL_METER
    slot: Optional["GateSlot"] = None       # per-flow soft state pointer pair
    flow: Optional["FlowRecord"] = None
    out_interface: Optional[str] = None


class PluginInstance:
    """One configured run-time instance of a plugin, bindable to flows."""

    #: Whether ``process`` may hand a new packet back into the router
    #: (``ctx.router.receive(...)``), as ESP tunnel decapsulation does.
    #: A topology pumps transit into a router whose current plan binds
    #: such an instance one packet at a time, so the re-injected packet
    #: can be adopted as the continuation of the consumed one.  The RP211
    #: lint flags a data-path re-injection from a class that leaves this
    #: False (docs/PLUGIN_AUTHORING.md).
    reinjects = False

    def __init__(self, plugin: "Plugin", name: Optional[str] = None, **config):
        self.plugin = plugin
        self.name = name or f"{plugin.name}#{len(plugin.instances)}"
        self.config: Dict[str, Any] = dict(config)
        self.packets_processed = 0

    # -- data path -----------------------------------------------------
    def process(self, packet, ctx: PluginContext) -> str:
        """Handle one packet; returns a :class:`Verdict` value."""
        self.packets_processed += 1
        return Verdict.CONTINUE

    # -- optional AIU callbacks (§4: "functions which are called by the
    # AIU on removal of an entry in the flow or filter table") ----------
    def on_flow_created(self, flow: "FlowRecord", slot: "GateSlot") -> None:
        """Called when the AIU binds a new flow-table entry to us."""

    def on_flow_removed(self, flow: "FlowRecord", slot: "GateSlot") -> None:
        """Called when a bound flow-table entry is evicted."""

    def free(self) -> None:
        """Release instance resources (free_instance)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Plugin:
    """A loadable code module; subclasses set ``plugin_type`` and
    ``name`` and override :meth:`create_instance`."""

    #: Subclasses must set one of the TYPE_* constants.
    plugin_type: int = 0
    #: Registry name, e.g. "drr" (subclasses override).
    name: str = "plugin"
    #: Instance class to construct by default.
    instance_class = PluginInstance

    def __init__(self):
        self.code: Optional[int] = None          # assigned by the PCU
        self.pcu: Optional["PluginControlUnit"] = None
        self.instances: List[PluginInstance] = []

    # -- lifecycle -----------------------------------------------------
    def attach(self, pcu: "PluginControlUnit", code: int) -> None:
        """Called by the PCU when the plugin is loaded (modload)."""
        self.pcu = pcu
        self.code = code

    def detach(self) -> None:
        """Called by the PCU on unload; frees all instances."""
        for instance in list(self.instances):
            self.free_instance(instance)
        self.pcu = None
        self.code = None

    # -- the registered callback ----------------------------------------
    def callback(self, message: Message):
        """The callback function registered with the PCU (§4).

        Standardized messages map to the four lifecycle methods; anything
        else goes to :meth:`handle_custom`.
        """
        if message.type == MSG_CREATE_INSTANCE:
            return self.create_instance(**message.args)
        if message.type == MSG_FREE_INSTANCE:
            return self.free_instance(message.args["instance"])
        if message.type == MSG_REGISTER_INSTANCE:
            return self.register_instance(
                message.args["instance"],
                message.args["filter"],
                gate=message.args.get("gate"),
                priority=message.args.get("priority", 0),
            )
        if message.type == MSG_DEREGISTER_INSTANCE:
            return self.deregister_instance(
                message.args["instance"], message.args.get("record")
            )
        return self.handle_custom(message)

    # -- standardized message implementations ---------------------------
    def create_instance(self, **config) -> PluginInstance:
        """Allocate and remember a new instance of this plugin."""
        instance = self.instance_class(self, **config)
        self.instances.append(instance)
        return instance

    def free_instance(self, instance: PluginInstance) -> None:
        """Remove instance data structures and all AIU references."""
        if instance not in self.instances:
            raise InstanceError(f"{instance} is not an instance of {self.name}")
        if self.pcu is not None and self.pcu.aiu is not None:
            # Filters bound to the instance *and* any flow-table slot
            # still referencing it — mid-traffic frees must not leave a
            # cached flow that resurrects the dead instance.
            self.pcu.aiu.purge_instance(instance)
        router = self.pcu.router if self.pcu is not None else None
        if router is not None:
            for iface, scheduler in list(router._schedulers.items()):
                if scheduler is instance:
                    del router._schedulers[iface]
            router._quarantined.pop(instance, None)
        instance.free()
        self.instances.remove(instance)

    def register_instance(self, instance: PluginInstance, flt, gate=None, priority=0):
        """Bind the instance to a filter through the AIU (§4: "results in
        a call to a registration function that is published by the AIU")."""
        if self.pcu is None or self.pcu.aiu is None:
            raise InstanceError("plugin is not attached to a PCU with an AIU")
        gate = gate or self.default_gate()
        return self.pcu.aiu.create_filter(gate, flt, instance=instance, priority=priority)

    def deregister_instance(self, instance: PluginInstance, record=None) -> bool:
        if self.pcu is None or self.pcu.aiu is None:
            raise InstanceError("plugin is not attached to a PCU with an AIU")
        if record is not None:
            return self.pcu.aiu.remove_filter(record)
        removed = False
        for rec in list(self.pcu.aiu.filters()):
            if rec.instance is instance:
                removed = self.pcu.aiu.remove_filter(rec) or removed
        return removed

    # -- plugin-specific messages ----------------------------------------
    def handle_custom(self, message: Message):
        """Override to implement plugin-specific messages."""
        raise UnknownMessageError(f"{self.name} does not handle {message.type!r}")

    # -- helpers ----------------------------------------------------------
    def default_gate(self) -> str:
        """The gate corresponding to this plugin's type (§4: "direct
        correspondence between a gate ... and the plugin type")."""
        return PLUGIN_TYPE_NAMES.get(self.plugin_type, "scheduling")

    def __repr__(self) -> str:
        code = f"0x{self.code:08x}" if self.code is not None else "unloaded"
        return f"Plugin({self.name!r}, type={self.plugin_type}, code={code})"
