"""The traced run: per-layer metrics timed from the benchmark's own code.

``run.py --trace 1`` lands here.  Each timer wraps one call into a
layer's public functions (``repro.trace``, ``repro.core.engine``, the
batch kernels, the shared HB banks, each analysis, ``repro.core.parallel``,
``repro.reporting``, ``repro.server``); the program itself is not
instrumented.  Every timer is a span with a name, start, end and parent;
spans are kept in memory and written, with the host fingerprint, to
``.bench_build/traces/<workload>-<capture>.json`` when the run ends.
``tracing.overhead_s`` is the measured cost of the spans recorded.

Layer calls run on the workload's primary capture (the bulk capture for
``serve-mixed``).  The calls that replay the 12-analysis set, each
analysis solo, the parallel runner and the footprint-sampled runs use
the first ``MATRIX_EVENTS`` events of it, which keeps a traced run well
under a minute on the 1M-event capture.  Where two metrics name the same
call with the same inputs (e.g. ``engine.replay_s`` and
``hb_shared.replay_s`` on the compare workloads) the call runs once.

Every report a layer call returns is compared with the reference pass
over the same events; a mismatch makes ``correct`` false.  ``attempted``
and ``failed`` count the operations of one untraced run of the
workload's command (judged by ``checker.py``), so a traced run fails the
same share of operations as an untraced one.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from typing import Dict, List

import checker
import run as bench

#: Events of the primary capture used by the multi-analysis calls.
MATRIX_EVENTS = 100_000
#: Footprint sampling cadence of the sampled solo runs (``--memory``'s).
SAMPLE_EVERY = 4096
#: Minimum seconds between control-socket status polls.
STATUS_EVERY_S = 0.1

#: All analyses whose solo replay and footprint are reported.
SOLO_SET = bench.COMPARE_SET + ["ft2"]

#: Kinds that end the acting thread's epoch in some analysis (acquire,
#: release, fork, volatile read/write, class init): the same-epoch
#: filter's rule, restated for the benchmark's own filter pass.
EPOCH_ENDERS = (False, False, True, True, True, False, True, True, True,
                False)
TID_BITS = 16


class Tracer:
    """In-memory spans: ``{id, name, parent, start, end, attrs}``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    def start(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> float:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()
        return span["end"] - span["start"]

    def timed(self, name: str, fn, **attrs):
        span = self.start(name, **attrs)
        try:
            result = fn()
        finally:
            elapsed = self.end(span)
        return elapsed, result

    def self_time(self, span: dict) -> float:
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span["id"] and s["end"] is not None)
        return span["end"] - span["start"] - children

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for span in self.spans:
            span["self"] = self.self_time(span)
        doc = dict(extra, trace_id=self.trace_id, spans=self.spans)
        with open(path, "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)


def predecode(events, chunk: int, skip: bool):
    """The same-epoch filter and chunking of the parallel parent, done by
    the benchmark: returns the flat chunks ``feed_decoded`` takes and the
    number of accesses kept and seen."""
    toks: Dict[int, int] = {}
    last_r: Dict[int, int] = {}
    last_w: Dict[int, int] = {}
    chunks = []
    cols = ([], [], [], [], [])
    kept = accesses = 0
    i = -1
    for e in events:
        i += 1
        k, t, x = e.kind, e.tid, e.target
        if k <= 1:
            accesses += 1
            if skip:
                tok = toks.get(t, t)
                if k == 0:
                    if last_r.get(x) == tok:
                        continue
                    last_r[x] = tok
                else:
                    if last_w.get(x) == tok:
                        continue
                    last_w[x] = tok
                    last_r.pop(x, None)
            kept += 1
        elif EPOCH_ENDERS[k]:
            toks[t] = toks.get(t, t) + (1 << TID_BITS)
        for col, v in zip(cols, (i, k, t, x, e.site)):
            col.append(v)
        if len(cols[0]) == chunk:
            chunks.append(cols + (chunk, i + 1))
            cols = ([], [], [], [], [])
    chunks.append(cols + (len(cols[0]), i + 1))
    return chunks, kept, accesses


def entry_signature(entry) -> tuple:
    """What must agree between two passes over the same events."""
    report = entry.report
    return (entry.name, None if report is None else
            (report.static_count, report.dynamic_count,
             tuple(sorted(report.racy_vars))))


def signature(result) -> tuple:
    return tuple(entry_signature(e) for e in result.entries)


def run(name: str, workload: dict, metas: dict, seed: int, env: dict,
        tally: bench.Tally, host: dict):
    sys.path.insert(0, os.path.abspath("src"))
    from repro.core.engine import MultiRunner
    from repro.core.kernels import kernels_available
    from repro.core.parallel import ParallelRunner
    from repro.core.registry import create
    from repro.reporting import emit_live_race, print_entries
    from repro.server import mi
    from repro.trace.format import load_trace, stream_trace
    from repro.trace.trace import Trace

    meta = metas["main"]
    path = meta["path"]
    tracer = Tracer("{}-{}".format(name, os.path.basename(path)))
    root = tracer.start("traced-run", workload=name)
    m: Dict[str, float] = {}
    units: Dict[str, str] = {}
    memo: Dict[tuple, tuple] = {}

    def put(metric: str, value: float, unit: str) -> None:
        m[metric] = value
        units[metric] = unit

    def once(key: tuple, label: str, fn, **attrs):
        if key not in memo:
            memo[key] = tracer.timed(label, fn, **attrs)
        return memo[key]

    def expect(label: str, result, reference) -> None:
        if signature(result) != signature(reference):
            tally.wrong("{}: reports differ from the reference pass".format(
                label))

    # -- the workload's own command, untraced (and its operations) ------
    serve = workload["format"] == "serve"
    if serve:
        inputs = bench.ServeInputs(metas["main"], metas["live"])
        span = tracer.start("path.untraced-round")
        r = bench.serve_round(workload, inputs, env)
        tracer.end(span)
        bench.judge_serve(r, inputs, tally, workload["analyses"])
        per_session = meta["events"] / r["bulk_events_per_s"]
        put("path.untraced_wall_s", per_session, "s")
        put("path.startup_s", r["setup_s"], "s")
    else:
        capture = checker.Capture(path)
        empty = bench.run_child(bench.cli_argv(workload, meta["empty"]), env)
        span = tracer.start("path.untraced-command")
        child = bench.run_child(bench.cli_argv(workload, path), env)
        tracer.end(span)
        text = "\n".join(line for _, line in child.lines)
        tally.judged(checker.judge(bench.parse_report(workload["format"],
                                                      text),
                                   capture, meta["spec"]),
                     workload["analyses"])
        put("path.untraced_wall_s", child.wall_s, "s")
        put("path.startup_s", empty.wall_s, "s")

    # -- trace: decode and load -------------------------------------------
    def drain():
        count = 0
        with stream_trace(path) as stream:
            for _ in stream:
                count += 1
        return count

    dt, count = tracer.timed("trace.decode", drain, events=meta["events"])
    put("trace.decode_s", dt, "s")
    put("trace.decode_events_per_s", count / dt, "events/s")
    dt, trace = tracer.timed("trace.load", lambda: load_trace(path))
    put("trace.load_s", dt, "s")
    if len(trace.events) != meta["events"] or count != meta["events"]:
        tally.wrong("decoded {} / loaded {} events of {}".format(
            count, len(trace.events), meta["events"]))

    names = workload["analyses"]
    events = trace.events
    nkern = kernels_available()

    # -- engine: one session feed, then replay of pre-filtered chunks ----
    def feed(names_, evs):
        def call():
            runner = MultiRunner([create(n, trace) for n in names_])
            sess = runner.session()
            sess.feed(evs)
            return sess.finish()
        return call

    dt, reference = once(("feed", tuple(names), len(events)), "engine.feed",
                         feed(names, events), analyses=len(names))
    put("engine.feed_s", dt, "s")

    skip = all(create(n, trace).SAME_EPOCH_SKIP for n in SOLO_SET)
    span = tracer.start("bench.predecode")
    chunks8k, kept, accesses = predecode(events, 8192, skip)
    chunks256, _, _ = predecode(events, 256, skip)
    tracer.end(span)
    put("engine.filter_kept", kept, "count")
    put("engine.filter_drop_ratio", 1.0 - kept / max(accesses, 1), "ratio")

    def replay(names_, chunks, chunk, use_kernels, share_hb=True):
        def call():
            runner = MultiRunner([create(n, trace) for n in names_],
                                 chunk_events=chunk, use_kernels=use_kernels,
                                 share_hb=share_hb)
            sess = runner.session()
            for c in chunks:
                sess.feed_decoded(*c)
            return sess.finish()
        return call

    def timed_replay(metric, names_, chunks, chunk, use_kernels,
                     share_hb=True, ref=None):
        key = ("replay", tuple(names_), id(chunks), chunk,
               nkern if use_kernels is None else use_kernels, share_hb)
        dt, result = once(key, metric.rsplit("_s", 1)[0], replay(
            names_, chunks, chunk, use_kernels, share_hb),
            analyses=len(names_), chunk=chunk)
        if ref is not None:
            expect(metric, result, ref)
        put(metric, dt, "s")
        return result

    timed_replay("engine.replay_s", names, chunks8k, 8192, None,
                 ref=reference)
    timed_replay("engine.replay_w256_s", names, chunks256, 256, None,
                 ref=reference)
    timed_replay("kernels.replay_s", names, chunks8k, 8192, True,
                 ref=reference)
    timed_replay("kernels.scalar_replay_s", names, chunks8k, 8192, False,
                 ref=reference)
    timed_replay("kernels.replay_w256_s", names, chunks256, 256, True,
                 ref=reference)
    timed_replay("kernels.scalar_replay_w256_s", names, chunks256, 256,
                 False, ref=reference)

    # -- the 12-analysis set, solo analyses, parallel: on the slice ------
    head = events[:MATRIX_EVENTS]
    if len(head) == len(events):
        head_chunks = chunks8k
    else:
        head_chunks, _, _ = predecode(head, 8192, skip)
    matrix = bench.COMPARE_SET
    dt, head_ref = once(("feed", tuple(matrix), len(head)), "engine.feed",
                        feed(matrix, head), analyses=len(matrix))
    put("parallel.serial_run_s", dt, "s")
    timed_replay("hb_shared.replay_s", matrix, head_chunks, 8192, None,
                 ref=head_ref)
    timed_replay("hb_shared.unshared_replay_s", matrix, head_chunks, 8192,
                 None, share_hb=False, ref=head_ref)
    by_name = {e.name: e for e in head_ref.entries}
    for solo in SOLO_SET:
        result = timed_replay("analysis.{}.replay_s".format(solo), [solo],
                              head_chunks, 8192, None)
        if solo in by_name and entry_signature(result.entries[0]) != \
                entry_signature(by_name[solo]):
            tally.wrong("analysis {} solo differs from the set".format(solo))

    def parallel():
        return ParallelRunner(matrix, trace, workers=2).run(head)

    dt, result = once(("parallel", len(head)), "parallel.run", parallel,
                      workers=2)
    expect("parallel.run_s", result, head_ref)
    put("parallel.run_s", dt, "s")

    head_trace = Trace(head, num_threads=trace.num_threads,
                       num_locks=trace.num_locks, num_vars=trace.num_vars,
                       num_volatiles=trace.num_volatiles,
                       num_classes=trace.num_classes, validate=False)
    span = tracer.start("analysis.footprints", sample_every=SAMPLE_EVERY)
    for solo in SOLO_SET:
        report = create(solo, head_trace).run(sample_every=SAMPLE_EVERY)
        put("analysis.{}.footprint_kb".format(solo),
            report.peak_footprint_bytes / 1024.0, "KB")
    tracer.end(span)

    # -- reporting ---------------------------------------------------------
    dt, _ = tracer.timed("reporting.print",
                         lambda: print_entries(reference, out=io.StringIO()))
    put("reporting.print_s", dt, "s")
    races = [(e.name, race) for e in reference.entries if e.report
             for race in e.report.races]

    def emit():
        out = io.StringIO()
        for analysis, race in races:
            emit_live_race(analysis, race, True, tenant="t", out=out)
        return out

    dt, _ = tracer.timed("reporting.emit", emit, races=len(races))
    put("reporting.emit_s", dt, "s")

    # -- the command's path, traced, beside its untraced wall time ------
    if serve:
        def drain_session():
            runner = MultiRunner([create(n, trace) for n in names])
            sess = runner.session()
            with stream_trace(path) as stream:
                for _ in sess.drain(stream, window=256):
                    pass
            return sess.finish()

        dt, result = tracer.timed("path.serve-drain", drain_session)
        expect("path.serve-drain", result, reference)
        total = dt
    elif workload["format"] == "analyze":
        def solo_runs():
            return [create(n, trace).run() for n in names]

        dt, _ = tracer.timed("path.solo-run", solo_runs)
        total = m["trace.load_s"] + dt + m["reporting.print_s"]
    elif "--workers" in workload["args"]:
        def full_parallel():
            return ParallelRunner(names, trace, workers=2).run(trace)

        dt, result = once(("parallel", len(events)), "parallel.run",
                          full_parallel)
        total = m["trace.load_s"] + dt + m["reporting.print_s"]
    else:
        total = m["trace.load_s"] + m["engine.feed_s"] + m["reporting.print_s"]
    put("path.layer_total_s", total, "s")
    put("path.unaccounted_s", m["path.untraced_wall_s"] - total, "s")

    # -- server: handshake and control-socket status ---------------------
    serve_wl = bench.WORKLOADS["serve-mixed"]
    if serve:
        serve_inputs = inputs
    else:
        serve_inputs = bench.ServeInputs(*bench.prepare(serve_wl,
                                                        seed).values())
    polls: Dict[str, List[tuple]] = {}
    last = [0.0]

    def on_status(sock_path):
        now = time.perf_counter()
        if now - last[0] < STATUS_EVERY_S:
            return
        last[0] = now
        doc = mi.query(sock_path, {"command": "status"})
        for tenant, state, events, _, _, rate, lag, _ in \
                doc["results"]["data"]:
            if state == "attached" and events > 0:
                polls.setdefault(tenant, []).append((rate, lag))

    span = tracer.start("server.round")
    r = bench.serve_round(serve_wl, serve_inputs, env, on_status=on_status)
    tracer.end(span)
    put("server.handshake_ms", r["handshake_ms"], "ms")
    for role in ("bulk", "live"):
        rows = polls.get(role) or [(float("nan"), float("nan"))]
        put("server.{}.status_events_per_s".format(role),
            bench.median([x[0] for x in rows]), "events/s")
        put("server.{}.status_lag_s".format(role),
            bench.median([x[1] for x in rows]), "s")

    tracer.end(root)
    probe = Tracer("probe")
    t = time.perf_counter()
    for _ in range(1000):
        probe.end(probe.start("probe"))
    per_span = (time.perf_counter() - t) / 1000
    put("tracing.overhead_s", per_span * len(tracer.spans), "s")
    out = os.path.join(bench.BUILD_DIR, "traces", "{}-{}.json".format(
        name, os.path.basename(path).rsplit(".", 1)[0]))
    tracer.write(out, {"workload": name, "metrics": m, "host": host,
                       "matrix_events": len(head)})
    print("spans: {} written to {}; traced wall {:.2f} s".format(
        len(tracer.spans), out, root["end"] - root["start"]))
    return m, units
