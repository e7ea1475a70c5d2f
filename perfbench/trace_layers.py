"""Per-layer self time from a traced run.

A traced run leaves two Chrome-trace pieces: the service tracer's spans
(the program's own request -> rung -> DP level -> memo spans, the net
spans, and the benchmark's request spans, which it records on the same
tracer) and the benchmark's own tracer (set-up and layer-replay spans). This
module merges them onto one timeline, ties every span to the request that
caused it, and splits each request's latency across layers.

Attribution. A request's root span is the benchmark's call (bench.submit
in-process, client.session over the network). Service spans carry the
service's correlation id; the benchmark learns which id belongs to which
request from nesting on one thread: request.open runs inside the benchmark's
bench.submit, and over the network the benchmark's net.resolve (the query
resolver the server calls) runs inside the net.read that then opens the
session. Pool tasks carry no id and belong to the request of the spans
they contain; their queue wait becomes a synthetic pool.queue span.

Self time. At each instant of a request's root span, the time goes to the
layer of the innermost (shortest) span of that request covering it, on
any thread; instants no span covers are unattributed. Summed over a
layer, this is the layer's span time minus the time its children cover.
"""

import heapq
import json

BENCH_ID_BASE = 1 << 62

ROOTS = {"bench.submit", "client.session"}
# Spans that only wait for other layers; they attribute nothing.
WAITS = {"client.await_first", "session.first_frontier"}
# Recorded after the fact over an interval that other spans of the thread
# fill; never anyone's parent.
MARKERS = {"session.first_frontier"}

LAYER_OF = {
    "client.connect": "net",
    "client.send": "net",
    "net.resolve": "net",
    "net.accept": "net",
    "net.read": "net",
    "net.push": "net",
    "request.open": "service",
    "admission": "service",
    "quick.prelude": "service",
    "request": "service",
    "request.rung": "service",
    "rung.publish": "service",
    "coalesce.wait": "service",
    "pool.task": "service",
    "pool.queue": "queue",
    "cache.probe": "cache",
    "optimize": "core",
    "dp.level": "core",
    "dp.set": "core",
    "dp.barrier_wait": "core",
    "memo.probe": "memo",
    "memo.publish": "memo",
}
LAYERS = ("service", "queue", "cache", "core", "memo", "net")


def _events(path, pid, shift_us):
    with open(path) as f:
        doc = json.load(f)
    out = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        e["pid"] = pid
        e["ts"] = e["ts"] - shift_us
        e.setdefault("args", {})
        out.append(e)
    return out


def _link_parents(events):
    """Sets e["parent"] to the index of the innermost span enclosing e on
    the same thread (or -1)."""
    by_thread = {}
    for i, e in enumerate(events):
        e["parent"] = -1
        by_thread.setdefault((e["pid"], e["tid"]), []).append(i)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in indices:
            e = events[i]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] < e["ts"] + e["dur"]:
                stack.pop()
            if stack:
                e["parent"] = stack[-1]
            if e["name"] not in MARKERS:
                stack.append(i)


def _ancestor(events, i, name):
    j = events[i]["parent"]
    while j >= 0:
        if events[j]["name"] == name:
            return j
        j = events[j]["parent"]
    return -1


def _assign_requests(events):
    """Sets e["request"] (benchmark request id or None) on every event."""
    session_of = {}  # service correlation id -> request
    conn_of = {}  # net connection id -> request
    resolves = {}  # net.read index -> [(ts, request)]
    for i, e in enumerate(events):
        if e["name"] == "net.resolve":
            read = _ancestor(events, i, "net.read")
            if read >= 0:
                resolves.setdefault(read, []).append((e["ts"], e["args"]["id"]))
                conn_of[events[read]["args"].get("id")] = e["args"]["id"]
    for i, e in enumerate(events):
        if e["name"] != "request.open" or "id" not in e["args"]:
            continue
        submit = _ancestor(events, i, "bench.submit")
        if submit >= 0:
            session_of[e["args"]["id"]] = events[submit]["args"]["id"]
            continue
        read = _ancestor(events, i, "net.read")
        before = [r for ts, r in resolves.get(read, []) if ts <= e["ts"]]
        if before:
            session_of[e["args"]["id"]] = before[-1]
    for e in events:
        ident = e["args"].get("id")
        if ident is None or e["pid"] != 1:
            e["request"] = None
        elif ident >= BENCH_ID_BASE:
            e["request"] = ident
        elif e["cat"] == "net":
            e["request"] = conn_of.get(ident)
        else:
            e["request"] = session_of.get(ident)
    # Id-less pool tasks belong to the request of the spans they contain.
    for e in events:
        if e["request"] is not None and e["parent"] >= 0:
            parent = events[e["parent"]]
            if parent["name"] == "pool.task" and parent["request"] is None:
                parent["request"] = e["request"]


def _self_times(root, spans):
    """Splits [root.ts, root.ts + root.dur) across the layers of `spans`
    (innermost span wins); returns ({layer: us}, unattributed_us)."""
    t0, t1 = root["ts"], root["ts"] + root["dur"]
    points = []
    for k, (start, end, layer) in enumerate(spans):
        start, end = max(start, t0), min(end, t1)
        if end > start:
            points.append((start, 0, k))
            points.append((end, 1, k))
    points.sort()
    by_layer = {}
    attributed = 0.0
    active = []  # heap of (duration, -start, k)
    ended = set()
    cursor = t0
    for t, kind, k in points:
        while active and active[0][2] in ended:
            heapq.heappop(active)
        if active and t > cursor:
            layer = spans[active[0][2]][2]
            by_layer[layer] = by_layer.get(layer, 0.0) + (t - cursor)
            attributed += t - cursor
        cursor = max(cursor, t)
        start, end, _ = spans[k]
        if kind == 0:
            heapq.heappush(active, (end - start, -start, k))
        else:
            ended.add(k)
    return by_layer, root["dur"] - attributed


def analyze(service_path, bench_path, offset_us, out_path):
    """Merges both trace pieces into `out_path` and returns
    (samples, values): per-layer samples keyed by metric base name and
    per-layer scalar values keyed by metric name."""
    events = _events(service_path, 1, 0) + _events(bench_path, 2, offset_us)
    _link_parents(events)
    _assign_requests(events)

    synthetic = []
    for e in events:
        if e["name"] == "pool.task" and e["cat"] == "pool":
            queue_us = e["args"].get("queue_us", 0)
            if queue_us > 0:
                synthetic.append({"name": "pool.queue", "cat": "pool", "ph": "X",
                                  "pid": e["pid"], "tid": e["tid"],
                                  "ts": e["ts"] - queue_us, "dur": queue_us,
                                  "args": {}, "parent": -1,
                                  "request": e["request"]})
    events.extend(synthetic)

    roots = {}
    spans = {}
    for e in events:
        r = e["request"]
        if r is None:
            continue
        if e["name"] in ROOTS and e["cat"] == "bench":
            roots[r] = e
        elif e["name"] not in WAITS:
            layer = LAYER_OF.get(e["name"], "other")
            spans.setdefault(r, []).append((e["ts"], e["ts"] + e["dur"], layer))

    total = 0.0
    unattributed = 0.0
    by_layer = {layer: 0.0 for layer in LAYERS}
    for r, root in roots.items():
        if root["dur"] <= 0:
            continue
        layers, missing = _self_times(root, spans.get(r, []))
        total += root["dur"]
        unattributed += missing
        for layer, us in layers.items():
            by_layer[layer] = by_layer.get(layer, 0.0) + us

    values = {"trace.unattributed_share": unattributed / total if total else 0.0,
              "trace.requests": float(len(roots))}
    for layer in LAYERS:
        values["layer.%s.self_share" % layer] = by_layer[layer] / total if total else 0.0

    samples = {"core.level_ms": [], "memo.materialize_ms": [], "service.hit_ms": [],
               "service.queue_wait_ms": [], "service.step_ms": [],
               "service.miss_overhead_ms": [], "net.first_frame_gap_ms": []}
    first_frontier = {}
    service_ms = {}
    optimize_ms = {}
    for e in events:
        name, ms = e["name"], e["dur"] / 1000.0
        sid = e["args"].get("id")
        if name == "dp.level":
            samples["core.level_ms"].append(ms)
        elif name == "memo.probe" and e["args"].get("hits", 0) > 0:
            samples["memo.materialize_ms"].append(ms)
        elif name == "cache.probe" and e["args"].get("hit") == 1 and e["parent"] >= 0:
            parent = events[e["parent"]]
            if parent["name"] == "request.open":
                samples["service.hit_ms"].append(parent["dur"] / 1000.0)
        elif name == "pool.task" and e["cat"] == "pool":
            samples["service.queue_wait_ms"].append(e["args"].get("queue_us", 0) / 1000.0)
        elif name == "session.first_frontier" and sid is not None:
            first_frontier[sid] = ms
        if name in ("request", "request.rung"):
            samples["service.step_ms"].append(ms)
        if name in ("request.open", "request", "request.rung") and sid is not None:
            service_ms[sid] = service_ms.get(sid, 0.0) + ms
        if name == "optimize" and sid is not None:
            optimize_ms[sid] = optimize_ms.get(sid, 0.0) + ms
    for sid, spent in optimize_ms.items():
        samples["service.miss_overhead_ms"].append(service_ms.get(sid, spent) - spent)

    # Wire gap: client OPEN -> first frame, minus the service's own
    # open -> first frontier, per network session.
    session_of_request = {}
    for e in events:
        if e["name"] == "request.open" and e["request"] is not None:
            session_of_request[e["request"]] = e["args"].get("id")
    for e in events:
        if e["name"] == "client.await_first":
            sid = session_of_request.get(e["request"])
            if sid in first_frontier:
                samples["net.first_frame_gap_ms"].append(e["dur"] / 1000.0 - first_frontier[sid])

    with open(out_path, "w") as f:
        f.write('{"displayTimeUnit":"ms","traceEvents":[')
        for i, e in enumerate(events):
            args = dict(e["args"])
            args["cause"] = e["parent"]
            if e["request"] is not None:
                args["request"] = e["request"] - BENCH_ID_BASE
            record = {"ph": "X", "pid": e["pid"], "tid": e["tid"], "ts": e["ts"],
                      "dur": e["dur"], "cat": e["cat"], "name": e["name"], "args": args}
            f.write(("," if i else "") + json.dumps(record))
        f.write("]}\n")
    return samples, values
