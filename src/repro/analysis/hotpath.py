"""Plugin hot-path lint (RP2xx) — AST checks over data-path methods.

The data path must never block, must be deterministic (replayable seeded
simulations are the repo's ground truth), must not swallow faults the
circuit breaker needs to see, and must charge the :mod:`repro.sim.cost`
model for any packet-byte work so modelled-cycle experiments stay
honest.  This lint walks the AST of every data-path root method
(``process``, ``enqueue``, ``dequeue``, ``on_flow_created``,
``on_flow_removed``) of a plugin's instance classes, following the
transitive closure of ``self.*``/``super()`` method calls and
same-package helper functions, and flags:

* RP201 — blocking I/O (``open``/``input``, ``socket``/``subprocess``/
  ``requests``/``urllib``, ``time.sleep``, ``os.system`` & co).
* RP202 — nondeterminism (module-level ``random``/``uuid``/``secrets``,
  ``time.*``, ``datetime.now``, ``os.urandom``).  A *seeded* private RNG
  (``self._rng``) is fine and not flagged.
* RP203 — bare ``except``.
* RP204 — attribute creation outside ``__init__`` on a class whose MRO
  declares ``__slots__``.
* RP205 — packet-byte touches (``.payload`` access, ``.serialize()``)
  with no ``charge``/``charge_memory``/``access`` call anywhere in the
  root's closure.
* RP206 — ``except Exception`` (warning; the fault domains already
  contain plugin exceptions, catching them hides real bugs).
* RP207 — metric emission that bypasses the telemetry registry: a
  subscript store into a metric-named ``self`` dict (``self.stats[...]``,
  ``self.counters[...] += 1``, …) on the data path.  Plugin-local metrics
  belong in registry handles grabbed at bind time (docs/OBSERVABILITY.md)
  so exporters and ``pmgr show telemetry`` can see them.
* RP208 — per-packet work inside a batch hook (``on_batch_start``,
  ``process_batch``, ``on_batch_end``) that does not depend on the
  packet being iterated: an assignment inside a loop over a hook
  parameter whose right-hand side calls or dereferences only
  loop-invariant names.  The whole point of the batch hooks is hoisting
  such work to one evaluation per batch (docs/PERFORMANCE.md, "Batched
  pipeline"); recomputing it per packet silently re-creates the scalar
  overhead the compiled batch loops removed.
* RP211 — a data-path re-injection (``ctx.router.receive(...)`` or
  ``.receive_batch(...)``) from an instance class that does not declare
  ``reinjects = True``.  Topology transit runs a router's deliveries
  through its batch loop unless the plan binds a re-injecting instance,
  and a re-injection inside that loop is never adopted as the
  continuation of the packet it replaced (docs/PLUGIN_AUTHORING.md).

Findings on a source line carrying ``# rp: ignore[RPxxx]`` (or a blanket
``# rp: ignore``) are suppressed.  Everything runs on source text via
``inspect``/``ast`` — no packet ever flows through the lint.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.plugin import PluginInstance
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    is_suppressed,
    unknown_suppressed_codes,
)

#: Data-path root methods, per the plugin/scheduler contracts.
ROOT_METHODS = ("process", "enqueue", "dequeue", "on_flow_created", "on_flow_removed")

#: Batch-pipeline hooks (repro.core.batch): called once per batch, so
#: they are data-path roots too — and additionally get the RP208
#: loop-invariance check.
BATCH_HOOKS = ("on_batch_start", "process_batch", "on_batch_end")

_BLOCKING_BUILTINS = {"open", "input"}
_BLOCKING_MODULES = {"socket", "subprocess", "requests", "urllib", "http", "select"}
_BLOCKING_OS = {"system", "popen", "read", "write", "open", "fork", "wait"}
_NONDET_MODULES = {"random", "uuid", "secrets"}
_NONDET_DATETIME = {"now", "utcnow", "today"}
_CHARGE_NAMES = {"charge", "charge_memory", "access"}
_TOUCH_ATTRS = {"payload"}
_TOUCH_CALLS = {"serialize"}
#: Router entry points a plugin re-injects through (RP211).
_REINJECT_CALLS = {"receive", "receive_batch"}
#: self-attribute names that read as ad-hoc metric stores (RP207).
_METRIC_ATTRS = {
    "stats", "metrics", "counters", "counts", "histograms", "gauges",
    "telemetry", "meters",
}


class _FunctionLint:
    """One function's parsed source plus its per-function findings."""

    def __init__(self, fn, owner: Optional[type]):
        self.fn = fn
        self.owner = owner
        self.file = inspect.getsourcefile(fn)
        lines, start = inspect.getsourcelines(fn)
        self.lines = lines
        self.start = start
        tree = ast.parse(textwrap.dedent("".join(lines)))
        self.node = tree.body[0]
        # Function-local imports (``import time`` inside the body) bind
        # names that never appear in ``fn.__globals__``; track them so
        # local imports cannot smuggle blocking modules past the lint.
        self.local_modules: Dict[str, str] = {}          # alias -> module
        self.local_names: Dict[str, Tuple[str, str]] = {}  # alias -> (module, attr)
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Import):
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.local_modules[bound] = alias.name
            elif isinstance(sub, ast.ImportFrom) and sub.module and sub.level == 0:
                for alias in sub.names:
                    bound = alias.asname or alias.name
                    self.local_names[bound] = (sub.module, alias.name)
        self.calls_self: Set[str] = set()
        self.calls_super: Set[str] = set()
        self.calls_global: Set[str] = set()
        self.has_charge = False
        self.touches: List[Tuple[int, str]] = []      # (lineno, what)
        self.reinjections: List[int] = []             # linenos (RP211)
        self.diagnostics: List[Diagnostic] = []

    def absolute_line(self, node: ast.AST) -> int:
        return self.start + getattr(node, "lineno", 1) - 1

    def source_line(self, node: ast.AST) -> str:
        index = getattr(node, "lineno", 1) - 1
        if 0 <= index < len(self.lines):
            return self.lines[index]
        return ""

    def emit(self, code: str, node: ast.AST, message: str, hint: str) -> None:
        if is_suppressed(code, self.source_line(node)):
            return
        subject = self._subject()
        self.diagnostics.append(
            Diagnostic(
                code,
                message,
                subject=subject,
                file=self.file,
                line=self.absolute_line(node),
                hint=hint,
            )
        )

    def _subject(self) -> str:
        qual = getattr(self.fn, "__qualname__", getattr(self.fn, "__name__", "?"))
        if self.owner is not None:
            return f"{self.owner.__name__}.{self.fn.__name__}"
        return qual

    # ------------------------------------------------------------------
    def run(self) -> None:
        slots = _slot_union(self.owner) if self.owner is not None else None
        for node in ast.walk(self.node):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, ast.ExceptHandler):
                self._check_except(node)
            elif isinstance(node, ast.Attribute):
                if node.attr in _TOUCH_ATTRS:
                    self.touches.append((self.absolute_line(node), f".{node.attr}"))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if slots is not None:
                    self._check_slots_assign(node, slots)
                self._check_metric_assign(node)
        self._check_suppressions()

    def _check_suppressions(self) -> None:
        """RP210: a ``# rp: ignore[...]`` comment naming a code that does
        not exist suppresses nothing — usually a typo that leaves the
        author believing a finding is handled."""
        for offset, line in enumerate(self.lines):
            unknown = sorted(unknown_suppressed_codes(line))
            if not unknown or is_suppressed("RP210", line):
                continue
            self.diagnostics.append(
                Diagnostic(
                    "RP210",
                    "suppression names unknown diagnostic code(s) "
                    f"{', '.join(unknown)}; nothing is suppressed",
                    subject=self._subject(),
                    file=self.file,
                    line=self.start + offset,
                    hint="valid codes are listed in docs/STATIC_ANALYSIS.md; "
                    "fix the typo or drop the comment",
                )
            )

    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _CHARGE_NAMES:
                self.has_charge = True
            if func.attr in _TOUCH_CALLS:
                self.touches.append((self.absolute_line(node), f".{func.attr}()"))
            if (
                func.attr in _REINJECT_CALLS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "router"
            ):
                self.reinjections.append(self.absolute_line(node))
            self._check_dotted(node, func)
            return
        if isinstance(func, ast.Name):
            name = func.id
            if name in _BLOCKING_BUILTINS:
                self.emit(
                    "RP201",
                    node,
                    f"call to {name}() blocks the data path",
                    "move I/O to the control path (a plugin message handler)",
                )
                return
            if (
                name == "hash"
                and name not in self.local_names
                and self.fn.__globals__.get(name) is None
                and node.args
                and not isinstance(node.args[0], ast.Constant)
            ):
                self.emit(
                    "RP209",
                    node,
                    "builtin hash() is process-seeded (PYTHONHASHSEED): the "
                    "same packet hashes differently in different workers",
                    "derive placement from the deterministic five-tuple fold "
                    "(Packet.flow_fold32 / fold_five_tuple), never hash()",
                )
                return
            if name in self.local_names:
                module, attr = self.local_names[name]
                top = module.split(".")[0]
                if (
                    top in _NONDET_MODULES
                    or (top == "time" and attr != "sleep")
                    or (top == "os" and attr == "urandom")
                    or (top == "datetime" and attr in _NONDET_DATETIME)
                ):
                    self.emit(
                        "RP202",
                        node,
                        f"call to {top}.{attr} is nondeterministic on the "
                        "data path",
                        "use a seeded RNG created in __init__ (self._rng) or "
                        "take time from ctx.now",
                    )
                elif (
                    top == "time"
                    or top in _BLOCKING_MODULES
                    or (top == "os" and attr in _BLOCKING_OS)
                ):
                    self.emit(
                        "RP201",
                        node,
                        f"call to {top}.{attr} blocks the data path",
                        "move I/O to the control path (a plugin message "
                        "handler)",
                    )
                return
            target = self.fn.__globals__.get(name)
            if target is None:
                return
            module_name = getattr(target, "__module__", None)
            if inspect.ismodule(target):
                return  # handled via the Attribute branch
            if module_name in _NONDET_MODULES or (
                module_name == "time" and getattr(target, "__name__", "") != "sleep"
            ):
                self.emit(
                    "RP202",
                    node,
                    f"call to {module_name}.{getattr(target, '__name__', name)} "
                    "is nondeterministic on the data path",
                    "use a seeded RNG created in __init__ (self._rng) or take "
                    "time from ctx.now",
                )
                return
            if module_name == "time" or (
                module_name == "os" and getattr(target, "__name__", "") in _BLOCKING_OS
            ):
                self.emit(
                    "RP201",
                    node,
                    f"call to {module_name}.{getattr(target, '__name__', name)} "
                    "blocks the data path",
                    "move I/O to the control path (a plugin message handler)",
                )
                return
            if inspect.isfunction(target) and module_name and module_name.startswith("repro."):
                self.calls_global.add(name)

    def _check_dotted(self, node: ast.Call, func: ast.Attribute) -> None:
        """Calls of the form root.a.b(): resolve the root through the
        function's globals so ``self._rng.random()`` is never confused
        with module-level ``random.random()``."""
        chain = [func.attr]
        root = func.value
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        chain.reverse()
        if isinstance(root, ast.Call) and isinstance(root.func, ast.Name):
            if root.func.id == "super" and len(chain) == 1:
                self.calls_super.add(chain[0])
            return
        if not isinstance(root, ast.Name):
            return
        if root.id == "self":
            if len(chain) == 1:
                self.calls_self.add(chain[0])
            return
        target = self.fn.__globals__.get(root.id)
        if target is not None and inspect.ismodule(target):
            top = getattr(target, "__name__", "").split(".")[0]
        elif root.id in self.local_modules:
            top = self.local_modules[root.id].split(".")[0]
        else:
            return
        last = chain[-1]
        if top in _BLOCKING_MODULES:
            self.emit(
                "RP201",
                node,
                f"call to {top}.{'.'.join(chain)} blocks the data path",
                "move I/O to the control path (a plugin message handler)",
            )
        elif top == "time":
            if last == "sleep":
                self.emit(
                    "RP201",
                    node,
                    "call to time.sleep blocks the data path",
                    "schedulers must return CONSUMED and rely on dequeue(now)",
                )
            else:
                self.emit(
                    "RP202",
                    node,
                    f"call to time.{last} is nondeterministic on the data path",
                    "take time from ctx.now; the simulator owns the clock",
                )
        elif top in _NONDET_MODULES:
            self.emit(
                "RP202",
                node,
                f"call to {top}.{'.'.join(chain)} is nondeterministic on the "
                "data path",
                "create a seeded RNG in __init__ (self._rng = "
                "random.Random(seed)) and use that instead",
            )
        elif top == "os":
            if last == "urandom":
                self.emit(
                    "RP202",
                    node,
                    "call to os.urandom is nondeterministic on the data path",
                    "use a seeded RNG created in __init__",
                )
            elif last in _BLOCKING_OS:
                self.emit(
                    "RP201",
                    node,
                    f"call to os.{last} blocks the data path",
                    "move I/O to the control path (a plugin message handler)",
                )
        elif top == "datetime" and last in _NONDET_DATETIME:
            self.emit(
                "RP202",
                node,
                f"call to {'.'.join(chain)} is nondeterministic on the data path",
                "take time from ctx.now; the simulator owns the clock",
            )

    def _check_except(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(
                "RP203",
                node,
                "bare except swallows every fault, including the ones the "
                "circuit breaker must count",
                "catch the specific exceptions the operation can raise",
            )
        elif isinstance(node.type, ast.Name) and node.type.id in (
            "Exception",
            "BaseException",
        ):
            self.emit(
                "RP206",
                node,
                f"except {node.type.id} hides real bugs; the per-plugin fault "
                "domain already contains uncaught exceptions",
                "catch the specific exceptions the operation can raise",
            )

    def _check_slots_assign(self, node: ast.AST, slots: Set[str]) -> None:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in slots
            ):
                self.emit(
                    "RP204",
                    node,
                    f"assignment to self.{target.attr} outside __init__ on a "
                    "__slots__ class",
                    f"declare {target.attr!r} in __slots__ (or assign it in "
                    "__init__)",
                )

    def check_batch_invariants(self) -> None:
        """RP208: loop-invariant work recomputed per packet in a batch
        hook.  Walks each ``for`` loop over a hook parameter, tracking a
        taint set seeded with the loop targets (names derived from the
        per-item value are loop-variant); an assignment whose right-hand
        side performs work (a call, attribute load, or subscript) while
        referencing no tainted name could have been hoisted."""
        args = self.node.args
        params = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg != "self"
        }
        for loop in ast.walk(self.node):
            if isinstance(loop, ast.For) and self._loops_over(loop.iter, params):
                tainted = {
                    n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)
                }
                self._flag_invariant_assigns(loop.body, tainted)

    @staticmethod
    def _loops_over(iter_node: ast.expr, params: Set[str]) -> bool:
        if isinstance(iter_node, ast.Name):
            return iter_node.id in params
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("enumerate", "reversed", "sorted")
            and iter_node.args
        ):
            first = iter_node.args[0]
            return isinstance(first, ast.Name) and first.id in params
        return False

    def _flag_invariant_assigns(self, body: List[ast.stmt], tainted: Set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                refs = {
                    n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)
                }
                works = any(
                    isinstance(n, (ast.Call, ast.Attribute, ast.Subscript))
                    for n in ast.walk(stmt.value)
                )
                if refs & tainted or not works:
                    # Loop-variant (or trivially cheap): its targets now
                    # carry per-item values.
                    for target in stmt.targets:
                        for n in ast.walk(target):
                            if isinstance(n, ast.Name):
                                tainted.add(n.id)
                else:
                    self.emit(
                        "RP208",
                        stmt,
                        "loop-invariant work recomputed per packet inside a "
                        "batch hook",
                        "hoist the assignment to the per-batch prologue "
                        "(before the packet loop)",
                    )
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    tainted.add(stmt.target.id)
            elif isinstance(stmt, ast.For):
                tainted |= {
                    n.id for n in ast.walk(stmt.target) if isinstance(n, ast.Name)
                }
                self._flag_invariant_assigns(stmt.body, tainted)
                self._flag_invariant_assigns(stmt.orelse, tainted)
                continue
            for field in ("body", "orelse", "finalbody"):
                self._flag_invariant_assigns(getattr(stmt, field, []), tainted)

    def _check_metric_assign(self, node: ast.AST) -> None:
        """RP207: ``self.stats[...] = / += ...`` style ad-hoc metric
        stores on the data path, invisible to exporters."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            container = target.value
            if (
                isinstance(container, ast.Attribute)
                and isinstance(container.value, ast.Name)
                and container.value.id == "self"
                and container.attr in _METRIC_ATTRS
            ):
                self.emit(
                    "RP207",
                    node,
                    f"metric emission into self.{container.attr}[...] bypasses "
                    "the telemetry registry",
                    "grab a Counter/Histogram handle from router.telemetry at "
                    "bind time instead (docs/OBSERVABILITY.md)",
                )


def _slot_union(cls: type) -> Optional[Set[str]]:
    """Union of declared slots and class attributes across the MRO, or
    ``None`` when no class in the MRO uses ``__slots__`` (plain classes
    may create attributes anywhere; that is idiomatic Python)."""
    has_slots = False
    allowed: Set[str] = set()
    for base in cls.__mro__:
        if base is object:
            continue
        slots = base.__dict__.get("__slots__")
        if slots is not None:
            has_slots = True
            if isinstance(slots, str):
                allowed.add(slots)
            else:
                allowed.update(slots)
        allowed.update(base.__dict__.keys())
    return allowed if has_slots else None


def _overrides_create_instance(plugin_cls: type) -> bool:
    from ..core.plugin import Plugin

    for base in plugin_cls.__mro__:
        if base is Plugin or base is object:
            break
        if "create_instance" in base.__dict__:
            return True
    return False


def _instance_classes(plugin_cls: type) -> List[type]:
    """The plugin's instance classes.  Normally just ``instance_class``;
    when the plugin overrides ``create_instance`` (AH/ESP construct
    direction-specific instances there) the declared class alone is
    incomplete, so every PluginInstance subclass defined in the plugin's
    own module is linted too."""
    classes: Dict[str, type] = {}
    declared = getattr(plugin_cls, "instance_class", None)
    if isinstance(declared, type) and issubclass(declared, PluginInstance):
        classes[declared.__qualname__] = declared
    module = sys.modules.get(plugin_cls.__module__)
    if module is not None and _overrides_create_instance(plugin_cls):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, PluginInstance)
                and obj.__module__ == plugin_cls.__module__
            ):
                classes[obj.__qualname__] = obj
    return [classes[name] for name in sorted(classes)]


def _lintable(fn) -> bool:
    try:
        inspect.getsourcelines(fn)
        return True
    except (OSError, TypeError):
        return False


def _closure_lints(root_fn, owner: type) -> List[_FunctionLint]:
    """Lint the root and every reachable helper: ``self.x()`` resolved on
    the concrete instance class (so subclass overrides like the hardware
    crypto ``_charge_crypto`` are honored), ``super().x()`` resolved as
    every base implementation, plus same-package module functions."""
    lints: List[_FunctionLint] = []
    seen: Set[Tuple[int, Optional[int]]] = set()
    work: List[Tuple[object, Optional[type]]] = [(root_fn, owner)]
    while work:
        fn, fn_owner = work.pop()
        fn = inspect.unwrap(fn)
        key = (id(getattr(fn, "__code__", fn)), id(fn_owner))
        if key in seen or not _lintable(fn):
            continue
        seen.add(key)
        lint = _FunctionLint(fn, fn_owner)
        lint.run()
        lints.append(lint)
        for name in lint.calls_self:
            if fn_owner is None:
                continue
            target = getattr(fn_owner, name, None)
            if callable(target) and not isinstance(target, type):
                work.append((target, fn_owner))
        for name in lint.calls_super:
            if fn_owner is None:
                continue
            for base in fn_owner.__mro__[1:]:
                target = base.__dict__.get(name)
                if callable(target) and not isinstance(target, type):
                    work.append((target, fn_owner))
        for name in lint.calls_global:
            target = fn.__globals__.get(name)
            if inspect.isfunction(target):
                work.append((target, None))
    return lints


def lint_plugin(plugin) -> List[Diagnostic]:
    """Lint every data-path root of a plugin (class or instance)."""
    plugin_cls = plugin if isinstance(plugin, type) else type(plugin)
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for instance_cls in _instance_classes(plugin_cls):
        for method_name in (*ROOT_METHODS, *BATCH_HOOKS):
            root = getattr(instance_cls, method_name, None)
            if root is None or not callable(root):
                continue
            lints = _closure_lints(root, instance_cls)
            if method_name in BATCH_HOOKS and lints:
                # The root lint is first on the closure list; only the
                # hook body itself gets the loop-invariance check.
                lints[0].check_batch_invariants()
            has_charge = any(l.has_charge for l in lints)
            for lint in lints:
                for diagnostic in lint.diagnostics:
                    key = (diagnostic.code, diagnostic.file, diagnostic.line)
                    if key not in seen:
                        seen.add(key)
                        diagnostics.append(diagnostic)
            if not getattr(instance_cls, "reinjects", False):
                for lint in lints:
                    for line in lint.reinjections:
                        if is_suppressed("RP211", lint.lines[line - lint.start]):
                            continue
                        key = ("RP211", lint.file, line)
                        if key in seen:
                            continue
                        seen.add(key)
                        diagnostics.append(
                            Diagnostic(
                                "RP211",
                                "packet re-injected into the router from "
                                f"the {instance_cls.__name__}.{method_name} "
                                "path, but the class does not declare "
                                "reinjects = True",
                                subject=f"{instance_cls.__name__}.{method_name}",
                                file=lint.file,
                                line=line,
                                hint="set reinjects = True on the instance "
                                "class so topology transit pumps its router "
                                "one packet at a time and adopts the "
                                "re-injected packet",
                            )
                        )
            if not has_charge:
                for lint in lints:
                    for line, what in lint.touches:
                        if is_suppressed("RP205", lint.lines[line - lint.start]):
                            continue
                        key = ("RP205", lint.file, line)
                        if key in seen:
                            continue
                        seen.add(key)
                        diagnostics.append(
                            Diagnostic(
                                "RP205",
                                f"packet-byte touch ({what}) in the "
                                f"{instance_cls.__name__}.{method_name} path "
                                "never charges the cost model",
                                subject=f"{instance_cls.__name__}.{method_name}",
                                file=lint.file,
                                line=line,
                                hint="charge per-byte work via ctx.cycles."
                                "charge(n, label) (see Costs.SW_AUTH_PER_BYTE)",
                            )
                        )
    return diagnostics


def lint_plugins(plugins: Iterable[object]) -> AnalysisReport:
    report = AnalysisReport()
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for plugin in plugins:
        for diagnostic in lint_plugin(plugin):
            key = (diagnostic.code, diagnostic.file, diagnostic.line)
            if key not in seen:
                seen.add(key)
                report.add(diagnostic)
    return report


def lint_module_functions(module) -> List[Diagnostic]:
    """Lint every module-level function defined in ``module`` (plus its
    closure) as data-path code.  Used for non-plugin hot paths like the
    shard dispatch layer, where an RP209 ``hash()`` regression would
    silently break cross-process flow placement."""
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for name in sorted(vars(module)):
        fn = vars(module)[name]
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        for lint in _closure_lints(fn, None):
            for diagnostic in lint.diagnostics:
                key = (diagnostic.code, diagnostic.file, diagnostic.line)
                if key not in seen:
                    seen.add(key)
                    diagnostics.append(diagnostic)
    return diagnostics


def lint_shard_dispatch() -> AnalysisReport:
    """RP2xx over the shard dispatch/handoff layer (repro.shard.dispatch
    and the worker pool's hot methods)."""
    import importlib

    from ..shard import mp as shard_mp

    report = AnalysisReport()
    dispatch = importlib.import_module("repro.shard.dispatch")
    for diagnostic in lint_module_functions(dispatch):
        report.add(diagnostic)
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for root in (shard_mp.ShardWorkerPool.process_wire, shard_mp._worker_main):
        owner = shard_mp.ShardWorkerPool if root.__name__ == "process_wire" else None
        for lint in _closure_lints(root, owner):
            for diagnostic in lint.diagnostics:
                key = (diagnostic.code, diagnostic.file, diagnostic.line)
                if key not in seen:
                    seen.add(key)
                    report.add(diagnostic)
    return report


def builtin_plugin_classes() -> List[type]:
    """Every plugin class shipped in the registry, deduplicated."""
    from ..mgr.library import PLUGIN_REGISTRY

    unique: Dict[str, type] = {}
    for cls in PLUGIN_REGISTRY.values():
        unique.setdefault(f"{cls.__module__}.{cls.__qualname__}", cls)
    return [unique[name] for name in sorted(unique)]


def lint_builtin_plugins() -> AnalysisReport:
    """Run the hot-path lint over every registry plugin (the self-lint
    gate pinned by tests/analysis/test_self_lint.py)."""
    return lint_plugins(builtin_plugin_classes())
