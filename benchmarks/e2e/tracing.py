"""Harness-side span tracer: per-layer self time without touching ``src/``.

The ``ObsOverheadMeter`` technique, extended from "obs vs everything" to
every layer: for the length of one traced run the public bound methods of
the *live instances* (``cluster.network.send``, ``node.wal.append``,
``server.registry.request`` ...) are shadowed by instance attributes that
open a span, call the original and close the span.  Work that the kernel
runs later is caught where it is handed over: callbacks passed to
``kernel.schedule`` and generators passed to ``kernel.spawn`` are wrapped
on the way in, so a message delivery or a process resume is a span too.

A span is ``(name, layer, start, end, parent, action)``.  Everything runs
on one thread, so the open spans form a stack and ``parent`` is simply
the span below.  Spans live in flat arrays until the run ends; a layer's
self time is its spans' duration minus their children's.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.message import Message
from repro.cluster.transport import BATCH_KIND

#: module of a scheduled callback / spawned generator -> layer
_MODULE_LAYER = {
    "repro.cluster.network": "network",
    "repro.cluster.transport": "transport",
    "repro.cluster.deadlock": "deadlock",
    "repro.cluster.client": "client",
    "repro.cluster.server": "server",
    "repro.cluster.node": "server",
    "repro.locking.registry": "locking",
}

#: wire kind of a delivered message -> (layer, bucket); the bucket is what
#: the ``server.*_self_us_per_commit`` metrics sum over
_KIND_LAYER = {
    "rpc_reply": ("transport", "reply"),
    "rpc_ack": ("transport", "reply"),
    "create": ("server", "invoke"),
    "invoke": ("server", "invoke"),
    "lock": ("server", "invoke"),
    "txn_prepare": ("server", "prepare"),
    "txn_commit": ("server", "decide"),
    "txn_abort": ("server", "decide"),
    "finish_commit": ("server", "decide"),
    "abort_action": ("server", "decide"),
    "dl_probe": ("deadlock", "probe"),
    "dl_victim": ("deadlock", "probe"),
    "dl_cancel_wait": ("deadlock", "probe"),
}


def _action_label(payload: Dict[str, Any]) -> Optional[str]:
    """The action a request payload belongs to, as ``str(action.uid)``."""
    raw = payload.get("action_uid")
    if raw is None:
        context = payload.get("action")
        if not context:
            return None
        raw = context[-1]["uid"]
    return f"{raw[0]}:{raw[1]}"


class Tracer:
    """Span store + the wrappers that feed it (see the module docstring)."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        #: span-name id -> (name, layer, bucket)
        self.names: List[Tuple[str, str, str]] = []
        self._name_ids: Dict[Tuple[str, str, str], int] = {}
        #: calls per span-name id (a generator is one call, many spans)
        self.calls: List[int] = []
        #: action id -> ``str(action.uid)``
        self.actions: List[str] = []
        self._action_ids: Dict[str, int] = {}
        # one entry per span
        self.name = array("i")
        self.parent = array("i")
        self.action = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str]] = []
        #: bytes handed to stable_store.write_shadow / write_committed
        self.store_bytes = 0
        #: WAL records appended, by record kind
        self.wal_kinds: Dict[str, int] = {}
        #: wall spent inside the cyclic garbage collector
        self.gc_seconds = 0.0
        self._gc_started = 0.0
        self._delivery_ids: Dict[str, int] = {}

    # -- ids -------------------------------------------------------------------

    def name_id(self, name: str, layer: str, bucket: str = "") -> int:
        """Intern a span name; ``layer`` is one of ``metrics.LAYERS``."""
        key = (name, layer, bucket)
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.calls.append(0)
        return found

    def action_id(self, label: Optional[str]) -> int:
        """Intern an action label; ``None`` is -1 (inherit from the parent)."""
        if label is None:
            return -1
        found = self._action_ids.get(label)
        if found is None:
            found = self._action_ids[label] = len(self.actions)
            self.actions.append(label)
        return found

    # -- the span stack ----------------------------------------------------------

    def _begin(self, name_id: int, action: int) -> int:
        stack = self._stack
        if stack:
            parent = stack[-1]
            if action < 0:
                action = self.action[parent]
        else:
            parent = -1
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(parent)
        self.action.append(action)
        self.end.append(0.0)
        stack.append(index)
        # the clock is read last, so the bookkeeping above is charged to
        # the parent and not to this span
        self.start.append(self._clock())
        return index

    def _end(self, index: int) -> None:
        self.end[index] = self._clock()
        self._stack.pop()

    def _current_action(self) -> int:
        return self.action[self._stack[-1]] if self._stack else -1

    # -- wrappers ------------------------------------------------------------------

    def _shadow(self, obj: Any, attr: str, replacement: Callable) -> None:
        if attr in vars(obj):
            raise RuntimeError(f"{obj!r}.{attr} is already shadowed")
        setattr(obj, attr, replacement)
        self._installed.append((obj, attr))

    def wrap_method(self, obj: Any, attr: str, name: str, layer: str,
                    bucket: str = "",
                    on_call: Optional[Callable] = None) -> None:
        """Shadow ``obj.attr`` with a span-recording bound method.

        ``on_call`` sees the arguments first, outside the span (counters
        that need more than the number of calls).
        """
        original = getattr(obj, attr)
        name_id = self.name_id(name, layer, bucket)
        begin, end, calls = self._begin, self._end, self.calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[name_id] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            index = begin(name_id, -1)
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        self._shadow(obj, attr, traced)

    def wrap_generator_method(self, obj: Any, attr: str, name: str,
                              layer: str, bucket: str = "",
                              action_arg: bool = False) -> None:
        """Shadow a generator method: one span per resume of its generator.

        With ``action_arg`` the first positional argument is a
        ``ClusterAction`` and its uid becomes the spans' action id.
        """
        original = getattr(obj, attr)
        name_id = self.name_id(name, layer, bucket)
        calls = self.calls

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            calls[name_id] += 1
            action = (self.action_id(str(args[0].uid)) if action_arg
                      else self._current_action())
            return self.trace_generator(original(*args, **kwargs),
                                        name_id, action)

        self._shadow(obj, attr, traced)

    def trace_generator(self, body: Iterator[Any], name_id: int,
                        action: int) -> Iterator[Any]:
        """Drive ``body`` transparently, one span per resume."""
        begin, end = self._begin, self._end
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                index = begin(name_id, action)
                try:
                    if error is None:
                        yielded = body.send(value)
                    else:
                        thrown, error = error, None
                        yielded = body.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end(index)
                try:
                    value = yield yielded
                except GeneratorExit:
                    raise
                except BaseException as thrown_in:  # forwarded to body
                    error = thrown_in
        finally:
            body.close()

    def _run_traced(self, name_id: int, action: int, fn: Callable,
                    *args: Any) -> None:
        index = self._begin(name_id, action)
        try:
            fn(*args)
        finally:
            self._end(index)

    def _delivery(self, message: Message) -> Tuple[int, int]:
        """Span-name id and action id of a network delivery."""
        kind = layer_kind = message.kind
        payload = message.payload
        if kind == BATCH_KIND:
            # a batch is charged to the layer (and action) of what it carries
            first = (payload.get("calls") or [{}])[0]
            layer_kind = first.get("kind", "")
            kind = f"{BATCH_KIND}[{layer_kind}]"
            payload = first.get("payload", {})
        found = self._delivery_ids.get(kind)
        if found is None:
            layer, bucket = _KIND_LAYER.get(layer_kind, ("server", "other"))
            found = self._delivery_ids[kind] = self.name_id(
                f"deliver.{kind}", layer, bucket)
        return found, self.action_id(_action_label(payload))

    # -- install / uninstall -----------------------------------------------------------

    def install(self, cluster: Any, clients: List[Any]) -> None:
        """Shadow every layer's public entry points on ``cluster``."""
        kernel = cluster.kernel
        self.wrap_method(kernel, "run", "kernel.run", "kernel")
        self._install_schedule(kernel)
        self._install_spawn(kernel)
        self.wrap_method(cluster.network, "send", "network.send", "network")
        obs = cluster.obs
        for attr in ("count", "observe", "span", "emit"):
            self.wrap_method(obs, attr, f"obs.{attr}", "obs", "call")
        self.wrap_method(obs.bus, "publish", "obs.bus.publish", "obs",
                         "event")
        for name in cluster.nodes:
            node = cluster.nodes[name]
            transport = cluster.transports[name]
            for attr in ("call", "call_many"):
                self.wrap_generator_method(transport, attr,
                                           f"transport.{attr}", "transport",
                                           attr)
            self.wrap_method(node.wal, "append", "store.wal.append", "store",
                             "wal_append", on_call=self._count_wal_kind)
            self.wrap_method(node.wal, "truncate_before",
                             "store.wal.truncate_before", "store",
                             "wal_truncate")
            self.wrap_method(node.wal, "last", "store.wal.last", "store",
                             "wal_scan")
            self._install_wal_records(node.wal)
            store = node.stable_store
            for attr in ("write_shadow", "write_committed"):
                self.wrap_method(store, attr, f"store.{attr}", "store",
                                 "state_write", on_call=self._count_bytes)
            self.wrap_method(store, "commit_shadow", "store.commit_shadow",
                             "store", "state_write")
            self.wrap_method(store, "read_committed", "store.read_committed",
                             "store", "state_read")
            self._install_server(cluster.servers[name])
            self._install_restart(node, cluster.servers[name])
        for client in clients:
            self.wrap_generator_method(client, "invoke", "client.invoke",
                                       "client", "invoke", action_arg=True)
            for attr in ("commit", "abort"):
                self.wrap_generator_method(client, attr, f"client.{attr}",
                                           "client", "commit",
                                           action_arg=True)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Remove every shadow; the class attributes show through again."""
        gc.callbacks.remove(self._on_gc)
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = self._clock()
        else:
            self.gc_seconds += self._clock() - self._gc_started

    def _install_schedule(self, kernel: Any) -> None:
        original = kernel.schedule
        run_traced = self._run_traced

        def schedule(delay: float, fn: Callable, *args: Any) -> None:
            if args and type(args[0]) is Message:
                # a network delivery: the span is named after the wire kind
                original(delay, run_traced, *self._delivery(args[0]), fn,
                         *args)
                return
            layer = _MODULE_LAYER.get(getattr(fn, "__module__", ""))
            if layer is None:
                original(delay, fn, *args)  # the kernel's own timers
                return
            name = getattr(fn, "__name__", "callback")
            original(delay, run_traced,
                     self.name_id(f"{layer}.timer.{name}", layer, "timer"),
                     self._current_action(), fn, *args)

        self._shadow(kernel, "schedule", schedule)

    def _install_spawn(self, kernel: Any) -> None:
        original = kernel.spawn

        def spawn(body: Any, name: str = "") -> Any:
            frame = getattr(body, "gi_frame", None)
            if frame is None:
                return original(body, name=name)
            module = frame.f_globals.get("__name__", "")
            layer = _MODULE_LAYER.get(module, "harness")
            name_id = self.name_id(
                f"{layer}.process.{body.gi_code.co_name}", layer,
                "commit" if layer == "client" else "process")
            self.calls[name_id] += 1
            traced = self.trace_generator(body, name_id,
                                          self._current_action())
            return original(traced, name=name)

        self._shadow(kernel, "spawn", spawn)

    def _count_wal_kind(self, kind: str, **_payload: Any) -> None:
        self.wal_kinds[kind] = self.wal_kinds.get(kind, 0) + 1

    def _count_bytes(self, state: Any) -> None:
        self.store_bytes += len(state.payload)

    def _install_wal_records(self, wal: Any) -> None:
        original = wal.records
        name_id = self.name_id("store.wal.records", "store", "wal_scan")
        begin, end, calls = self._begin, self._end, self.calls

        def records(kind: Optional[str] = None) -> Iterator[Any]:
            # the scan is lazy: materialise it inside the span so the span
            # covers the scan and not just the generator's construction
            calls[name_id] += 1
            index = begin(name_id, -1)
            try:
                return iter(list(original(kind)))
            finally:
                end(index)

        self._shadow(wal, "records", records)

    def _install_server(self, server: Any) -> None:
        """Lock registry + edge chaser of one server (redone after restart:
        recovery builds a fresh registry)."""
        registry = server.registry
        original = registry.request
        name_id = self.name_id("locking.request", "locking", "request")
        granted_id = self.name_id("server.lock_settled", "server", "invoke")
        begin, end, calls = self._begin, self._end, self.calls
        run_traced = self._run_traced

        def request(owner: Any, object_uid: Any, mode: Any, colour: Any,
                    on_complete: Optional[Callable] = None) -> Any:
            # the completion callback is the server continuing the invoke;
            # the registry may run it synchronously or from a later release
            calls[name_id] += 1
            settled = on_complete
            if on_complete is not None:
                action = self._current_action()

                def settled(req: Any) -> None:
                    run_traced(granted_id, action, on_complete, req)

            index = begin(name_id, -1)
            try:
                return original(owner, object_uid, mode, colour, settled)
            finally:
                end(index)

        self._shadow(registry, "request", request)
        for attr in ("release_action", "release_colour",
                     "transfer_on_commit"):
            self.wrap_method(registry, attr, f"locking.{attr}", "locking",
                             "release")
        chaser = server.edge_chaser
        if chaser is not None and "chase_from" not in vars(chaser):
            self.wrap_method(chaser, "chase_from", "deadlock.chase_from",
                             "deadlock", "probe")

    def _install_restart(self, node: Any, server: Any) -> None:
        original = node.restart
        name_id = self.name_id("server.recover", "server", "recover")
        begin, end, calls = self._begin, self._end, self.calls

        def restart() -> None:
            if node.alive:
                original()  # a no-op, and no recovery to time
                return
            calls[name_id] += 1
            index = begin(name_id, -1)
            try:
                original()
            finally:
                end(index)
            self._install_server(server)

        self._shadow(node, "restart", restart)

    # -- results ---------------------------------------------------------------------

    def open_spans(self) -> int:
        """Spans still open (0 once the run has drained)."""
        return len(self._stack)

    def self_times(self) -> List[float]:
        """Self time per span: duration minus the children's durations."""
        count = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        selfs = [end[i] - start[i] for i in range(count)]
        for i in range(count):
            above = parent[i]
            if above >= 0:
                selfs[above] -= end[i] - start[i]
        return selfs

    def aggregate(self) -> List[Dict[str, Any]]:
        """One row per span name: layer, bucket, calls, spans, self time."""
        totals = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        name = self.name
        for i, self_time in enumerate(self.self_times()):
            totals[name[i]] += self_time
            spans[name[i]] += 1
        return [
            {"name": label, "layer": layer, "bucket": bucket,
             "calls": self.calls[i], "spans": spans[i], "self_s": totals[i]}
            for i, (label, layer, bucket) in enumerate(self.names)
        ]

    def durations(self, span_name: str) -> List[float]:
        """Durations of every span called ``span_name``, in seconds."""
        wanted = {i for i, (label, _, _) in enumerate(self.names)
                  if label == span_name}
        return [self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.name[i] in wanted]

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON lines (times in µs since ``origin``)."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.start)):
                label, layer, _bucket = self.names[self.name[i]]
                action = self.action[i]
                out.write(json.dumps({
                    "id": i, "name": label, "layer": layer,
                    "start": round((self.start[i] - origin) * 1e6, 3),
                    "end": round((self.end[i] - origin) * 1e6, 3),
                    "parent": self.parent[i],
                    "action": self.actions[action] if action >= 0 else None,
                }) + "\n")
