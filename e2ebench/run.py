"""End-to-end benchmark of the ``repro`` command-line program.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload analyze-lockfree --seed 0 \\
        --seconds 50 --trace 0

With ``--trace 0`` every workload runs the real CLI in a child process
(``python3 -m repro`` with ``PYTHONPATH=src``) and reports the
end-to-end metrics.  With ``--trace 1`` the same workload's layers are
timed from this benchmark's own code instead (see ``traced.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the host and the run.

Inputs are generated from ``--seed`` by ``captures.py`` (cached under
``.bench_build/captures``), outside every timed region, and every report
the program prints is judged by ``checker.py``, which does not use the
program.  See README.md for the workloads, metrics and reference
figures.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import platform
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import captures  # noqa: E402
import checker  # noqa: E402

BUILD_DIR = ".bench_build"
CAPTURE_DIR = captures.DEFAULT_DIR

#: The paper's main matrix (11 analyses) plus sync-preserving prediction.
COMPARE_SET = ["unopt-hb", "fto-hb", "unopt-wcp", "fto-wcp", "st-wcp",
               "unopt-dc", "fto-dc", "st-dc", "unopt-wdc", "fto-wdc",
               "st-wdc", "sp"]

#: Analyses with a program fault the checker is known to catch on every
#: capture: their failed reports are counted in ``failed`` and leave
#: ``correct`` true.  Any other failed report makes ``correct`` false.
KNOWN_FAULTS = {
    "sp": "reports races between accesses that hold a common lock",
}

#: Launches of the command on the zero-event header twin per run; the
#: median is ``setup_s``.
SETUP_REPEATS = 9

#: The live tenant's open-loop schedule: one batch every LIVE_BATCH_S
#: seconds, LIVE_RATE events per second (its 6k events take 2.4 s).  At
#: 5000 events/s the live tenant's share of the interpreter, which it
#: shares with the bulk session, came close to what it needed when the
#: host ran slow: its windows queued, and the live p95 moved between 55
#: and 167 ms from run to run while throughput stayed put.
LIVE_RATE = 2500
LIVE_BATCH_S = 0.004
#: When the bulk session's first byte goes out, as a share of the live
#: schedule.  The live capture's races all lie in its last ~18% (the
#: planted patterns follow the program body), so the bulk session (about
#: 1.1 s here) is analyzed while the live races arrive, and no bulk
#: session starts or ends among them unless the server gets 1.8x faster
#: (with sessions back to back, where a boundary fell varied with the
#: host's speed and moved the live p95 between 53 and 88 ms).
BULK_START = 0.75
#: Live captures per run (seed offsets seed*8 .. seed*8+7).
LIVE_CAPTURES = 8

#: Hard cap on one child command or serve round.
CHILD_TIMEOUT_S = 150.0
#: How long processes a child left behind (or the multiprocessing helper
#: of the traced run) get to end on their own before they are killed.
LEFTOVER_GRACE_S = 5.0

WORKLOADS: Dict[str, dict] = {
    "analyze-lockfree": {
        "capture": "kernel", "format": "analyze",
        "args": ["analyze", "{cap}", "-a", "st-wdc"],
        "analyses": ["st-wdc"]},
    # the compare workloads are runnable by name but not in BENCHMARK.json
    # (README.md, "Steadiness")
    "compare-synclocks": {
        "capture": "xalan", "format": "compare",
        "args": ["compare", "{cap}"] + [x for a in COMPARE_SET
                                        for x in ("-a", a)],
        "analyses": COMPARE_SET},
    "compare-synclocks-w2": {
        "capture": "xalan", "format": "compare",
        "args": ["compare", "{cap}"] + [x for a in COMPARE_SET
                                        for x in ("-a", a)]
        + ["--workers", "2"],
        "analyses": COMPARE_SET},
    "serve-mixed": {
        "capture": "h2", "live": "tomcat", "format": "serve",
        "args": ["serve", "{sock}", "--multi", "--emit", "jsonl",
                 "-a", "st-wdc"],
        "analyses": ["st-wdc"]},
}

#: End-to-end metric units (BENCHMARK.json lists the same names).
UNITS = {
    "setup_s": "s", "events_per_s": "events/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "tenant_events_per_s": "events/s",
    "race_latency_p50_ms": "ms", "race_latency_p95_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, child timeout)."""


# -- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def program(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro"] + args


class Child:
    """One program process: stdout lines are timestamped as read, stderr
    is kept, and :meth:`reap` collects its resource usage (its worker
    processes included) with ``wait4``."""

    def __init__(self, argv: List[str], env: dict):
        self.t_launch = time.perf_counter()
        # its own process group: whatever it starts can be found and
        # ended after it exits (see end_group)
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=env,
                                     start_new_session=True)
        self.lines: List[tuple] = []
        self.err = bytearray()
        self._partial = b""
        self._open = {self.proc.stdout.fileno(): "out",
                      self.proc.stderr.fileno(): "err"}
        self.rc: Optional[int] = None
        self.cpu_s = self.rss_mb = self.wall_s = 0.0

    def pump(self, timeout: float) -> List[tuple]:
        """Read whatever output arrives within ``timeout`` seconds;
        return the new ``(time, line)`` pairs."""
        if not self._open:
            time.sleep(max(timeout, 0.0))
            return []
        ready, _, _ = select.select(list(self._open), [], [],
                                    max(timeout, 0.0))
        new = []
        for fd in ready:
            data = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not data:
                del self._open[fd]
                continue
            if self._open[fd] == "err":
                self.err += data
                continue
            data = self._partial + data
            *whole, self._partial = data.split(b"\n")
            for line in whole:
                new.append((now, line.decode("utf-8", "replace")))
        self.lines += new
        return new

    def reap(self, deadline: float) -> None:
        while self._open and time.perf_counter() < deadline:
            self.pump(deadline - time.perf_counter())
        if self._open:
            self.kill()
            raise BenchError("child did not finish: {}".format(
                " ".join(self.proc.args)))
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.wall_s = time.perf_counter() - self.t_launch
        self.proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self.proc.stderr.close()
        end_group(self.proc.pid)

    def kill(self) -> None:
        if self.rc is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.rc = self.proc.returncode
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()
        self._open = {}
        end_group(self.proc.pid, grace=0.0)


def become_subreaper() -> None:
    """Have orphaned descendants (a child's own helper processes)
    re-parented to this process, so they can be waited for (Linux only;
    elsewhere they go to init and are only signalled)."""
    try:
        import ctypes
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def reap(which: int) -> bool:
    """Reap the ended children ``os.waitpid(which)`` selects; whether
    any such child is still running."""
    try:
        while os.waitpid(which, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        return False
    return True


def wait_ended(running, kill, grace: float) -> None:
    """Poll until ``running()`` is false; ``kill()`` what is left after
    ``grace`` seconds, and give up LEFTOVER_GRACE_S after that."""
    deadline = time.perf_counter() + grace
    killed = False
    while running():
        now = time.perf_counter()
        if now >= deadline:
            if killed:
                raise BenchError("processes of the run do not end")
            kill()
            killed = True
            deadline = now + LEFTOVER_GRACE_S
        time.sleep(0.005)


def end_group(pgid: int, grace: float = LEFTOVER_GRACE_S) -> None:
    """Wait until no process of group ``pgid`` is left, reaping those
    re-parented here."""
    def running():
        reap(-pgid)
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def kill():
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    wait_ended(running, kill, grace)


def end_children() -> None:
    """Stop every process this run started and wait for each: the
    multiprocessing resource tracker the traced run's parallel call
    starts, then any other child."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop",
                   None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass

    def kill():
        # the children of every thread, as /proc lists them (Linux)
        try:
            for tid in os.listdir("/proc/self/task"):
                with open("/proc/self/task/{}/children".format(tid)) as fp:
                    for pid in fp.read().split():
                        try:
                            os.kill(int(pid), signal.SIGKILL)
                        except ProcessLookupError:
                            pass
        except OSError:
            pass

    wait_ended(lambda: reap(-1), kill, LEFTOVER_GRACE_S)


def run_child(argv: List[str], env: dict) -> Child:
    child = Child(argv, env)
    try:
        child.reap(child.t_launch + CHILD_TIMEOUT_S)
    finally:
        child.kill()
    return child


def fingerprint(env: dict) -> dict:
    """Host facts recorded with every result.  The child also compiles
    the program's modules, so the first timed launch pays no bytecode
    compilation."""
    probe = ("import compileall, json, sys\n"
             "compileall.compile_dir('src/repro', quiet=1)\n"
             "from repro.core.kernels import kernels_available\n"
             "try:\n    import numpy; npv = numpy.__version__\n"
             "except ImportError:\n    npv = None\n"
             "print(json.dumps({'numpy': npv, "
             "'kernels_active': kernels_available()}))\n")
    child = run_child([sys.executable, "-c", probe], env)
    if child.rc != 0 or not child.lines:
        raise BenchError("cannot import the program from src/: {}".format(
            child.err.decode("utf-8", "replace").strip()[-400:]))
    host = json.loads(child.lines[-1][1])
    host.update({"usable_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine()})
    return host


# -- statistics --------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def time_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more repeat, of the mean length so far, would end
    less than half a repeat past ``seconds``: runs end near their
    length, and every repeat is whole."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


# -- operation bookkeeping ---------------------------------------------------

class Tally:
    """Attempted and failed operations, and whether every failure is a
    known program fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: List[str] = []

    def judged(self, ops: List[checker.Op], expected: List[str]) -> None:
        names = [op.name for op in ops]
        if sorted(names) != sorted(expected):
            self.correct = False
            self.notes.append("reports {} != expected {}".format(
                names, expected))
        self.attempted += len(expected)
        for op in ops:
            if op.failed:
                self.failed += 1
                if op.name not in KNOWN_FAULTS:
                    self.correct = False
                    self.notes.append("{}: {}".format(
                        op.name, "; ".join(op.problems)))
        self.failed += max(len(expected) - len(ops), 0)

    def wrong(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)


# -- CLI workloads (analyze, compare) ----------------------------------------

def cli_argv(workload: dict, path: str) -> List[str]:
    return program([a.format(cap=path) for a in workload["args"]])


def parse_report(fmt: str, text: str) -> List[checker.Op]:
    return (checker.parse_analyze(text) if fmt == "analyze"
            else checker.parse_compare(text))


def race_lines(fmt: str, lines: List[tuple]) -> List[float]:
    """Times at which the lines reporting races were read: analyze's
    per-race lines, compare's rows with at least one race."""
    times = []
    for t, line in lines:
        if fmt == "analyze":
            if checker.ANALYZE_RACE.match(line):
                times.append(t)
        else:
            m = checker.COMPARE_ROW.match(line)
            if m and int(m.group(5)) > 0:
                times.append(t)
    return times


def measure_cli(name: str, workload: dict, meta: dict, capture,
                seconds: float, env: dict, tally: Tally) -> dict:
    fmt = workload["format"]
    setups = []
    for _ in range(SETUP_REPEATS):
        child = run_child(cli_argv(workload, meta["empty"]), env)
        setups.append(child.wall_s)
        text = "\n".join(line for _, line in child.lines)
        ops = parse_report(fmt, text)
        if child.rc != 0 or any(op.dynamic for op in ops) or \
                len(ops) != len(workload["analyses"]):
            tally.wrong("zero-event run: exit {} / {}".format(
                child.rc, text[-300:]))
    setup_s = median(setups)

    children = []
    start = time.perf_counter()
    while True:
        children.append(run_child(cli_argv(workload, meta["path"]), env))
        if not time_for_another(start, len(children), seconds):
            break
    # judged after the timed loop: a pass over a 1M-event capture costs
    # seconds, and the check must not eat into the measured time
    walls, cpus, rsss, p50s, p95s = [], [], [], [], []
    samples = 0
    for child in children:
        if child.rc not in (0, 1):
            tally.wrong("{} exited {}: {}".format(
                name, child.rc, child.err.decode("utf-8", "replace")[-300:]))
        text = "\n".join(line for _, line in child.lines)
        ops = checker.judge(parse_report(fmt, text), capture, meta["spec"])
        tally.judged(ops, workload["analyses"])
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rsss.append(child.rss_mb)
        lat = [(t - child.t_launch) * 1000.0
               for t in race_lines(fmt, child.lines)]
        if lat:
            samples += len(lat)
            p50s.append(percentile(lat, 0.50))
            p95s.append(percentile(lat, 0.95))
        else:
            tally.wrong("no race lines in the report")
    n = meta["events"]
    print("repeats: {} commands of {} events; setup launches {}; race "
          "lines {} ({} per command)".format(
              len(walls), n, len(setups), samples,
              samples // max(len(walls), 1)))
    return {
        "setup_s": setup_s,
        "events_per_s": median([n / w for w in walls]),
        "cpu_s": median(cpus),
        "peak_rss_mb": median(rsss),
        "tenant_events_per_s": median([n / max(w - setup_s, 1e-9)
                                    for w in walls]),
        "race_latency_p50_ms": median(p50s) if p50s else float("nan"),
        "race_latency_p95_ms": median(p95s) if p95s else float("nan"),
    }


# -- serve workload ----------------------------------------------------------

def event_offsets(data: bytes, n: int) -> List[int]:
    """Byte offset of every event in a v2 capture, plus the end offset
    (each event is three LEB128 varints after the six header ones)."""
    offsets = []
    pos = len(captures.MAGIC)
    ends = 0
    want = 6
    for i in range(pos, len(data)):
        if not data[i] & 0x80:
            ends += 1
            if ends == want:
                offsets.append(i + 1)
                want += 3
    if len(offsets) != n + 1:
        raise BenchError("capture has {} events, expected {}".format(
            len(offsets) - 1, n))
    return offsets


def _connect(path: str, deadline: float) -> socket.socket:
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            sock.settimeout(max(deadline - time.perf_counter(), 1.0))
            return sock
        except OSError as exc:
            sock.close()
            if exc.errno not in (errno.ENOENT, errno.ECONNREFUSED) or \
                    time.perf_counter() > deadline:
                raise
            time.sleep(0.002)


def _hello(sock: socket.socket, tenant: str, total: int) -> None:
    sock.sendall("# repro hello v1 tenant={} resume=0 total={}\n".format(
        tenant, total).encode("ascii"))
    reply = b""
    while b"\n" not in reply:
        chunk = sock.recv(256)
        if not chunk:
            raise BenchError("server closed the connection at hello")
        reply += chunk
    if not reply.startswith(b"# repro welcome v1 resume=0"):
        raise BenchError("server refused tenant {}: {!r}".format(
            tenant, reply))


def _shutdown_server(path: str) -> None:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(10.0)
        sock.connect(path + ".ctl")
        sock.sendall(b'{"command": "shutdown"}\n')
        while sock.recv(4096):
            pass
    finally:
        sock.close()


class LiveCapture:
    """One live-tenant capture, loaded and indexed outside the timed
    region."""

    def __init__(self, meta: dict):
        self.meta = meta
        with open(meta["path"], "rb") as fp:
            self.data = fp.read()
        self.offsets = event_offsets(self.data, meta["events"])
        self.capture = checker.Capture(meta["path"])


class ServeInputs:
    """The bulk capture and the live captures; round ``j`` of a run feeds
    live capture ``j`` (cyclically), so one run's latency samples come
    from several race layouts."""

    def __init__(self, bulk_meta: dict, live_metas: List[dict]):
        self.bulk_meta = bulk_meta
        with open(bulk_meta["path"], "rb") as fp:
            self.bulk = fp.read()
        self.bulk_capture = checker.Capture(bulk_meta["path"])
        self.lives = [LiveCapture(meta) for meta in live_metas]


def serve_round(workload: dict, inputs: ServeInputs, env: dict,
                index: int = 0, on_status=None) -> dict:
    """One server lifetime with two tenants over two connections.
    Launch the server; the bulk client says hello at once (its welcome
    ends ``setup_s``); the live client then sends its capture on a fixed
    schedule (open loop), and at BULK_START of that schedule the bulk
    client streams the bulk capture as fast as the socket accepts.  When
    both summaries are read, shut the server down.  Rounds run back to
    back, so the bulk client is a closed loop of one session per round.
    ``on_status(sock_path)`` is called after every live batch and while
    waiting for the summaries, when given (the traced run's
    control-socket polls)."""
    run_dir = os.path.join(BUILD_DIR, "serve-{}".format(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    sock_path = os.path.join(run_dir, "s.sock")
    live = inputs.lives[index % len(inputs.lives)]
    n_bulk = inputs.bulk_meta["events"]
    n_live = live.meta["events"]
    per_batch = max(int(LIVE_RATE * LIVE_BATCH_S), 1)
    batches = -(-n_live // per_batch)
    child = Child(program([a.format(sock=sock_path)
                           for a in workload["args"]]), env)
    deadline = child.t_launch + CHILD_TIMEOUT_S
    socks: List[socket.socket] = []
    bulk: dict = {}
    sender = None

    def send_bulk(sock, start_at):
        try:
            time.sleep(max(start_at - time.perf_counter(), 0.0))
            bulk["t0"] = time.perf_counter()
            sock.sendall(inputs.bulk)
            sock.close()
        except OSError as exc:
            bulk["error"] = exc

    try:
        bulk_sock = _connect(sock_path, deadline)
        socks.append(bulk_sock)
        _hello(bulk_sock, "bulk", n_bulk)
        t_welcome = time.perf_counter()
        live_sock = _connect(sock_path, deadline)
        socks.append(live_sock)
        _hello(live_sock, "live", n_live)
        handshake_ms = (time.perf_counter() - t_welcome) * 1000.0
        live_sock.sendall(live.data[:live.offsets[0]])
        t_live0 = time.perf_counter()
        sender = threading.Thread(target=send_bulk, args=(
            bulk_sock, t_live0 + BULK_START * batches * LIVE_BATCH_S))
        sender.start()
        lateness = []
        for batch in range(batches):
            due = t_live0 + batch * LIVE_BATCH_S
            while time.perf_counter() < due:
                child.pump(due - time.perf_counter())
            lo = batch * per_batch
            hi = min(lo + per_batch, n_live)
            live_sock.sendall(live.data[live.offsets[lo]:live.offsets[hi]])
            lateness.append(time.perf_counter() - due)
            if on_status is not None:
                on_status(sock_path)
        live_sock.close()
        summaries: Dict[str, float] = {}
        while True:
            for t, line in child.lines:
                if '"type": "summary"' in line or '"type": "failure"' in line:
                    summaries.setdefault(json.loads(line)["tenant"], t)
            if len(summaries) == 2:
                break
            if time.perf_counter() > deadline:
                raise BenchError("serve round did not finish")
            if not child._open:
                raise BenchError("server exited early: {}".format(
                    child.err.decode("utf-8", "replace")[-300:]))
            child.pump(0.05)
            if on_status is not None:
                on_status(sock_path)
        sender.join()
        if "error" in bulk:
            raise BenchError("bulk client failed: {}".format(bulk["error"]))
        _shutdown_server(sock_path)
        child.reap(deadline)
    finally:
        for sock in socks:
            sock.close()
        child.kill()
        if sender is not None:
            sender.join(timeout=60.0)
        shutil.rmtree(run_dir, ignore_errors=True)
    latencies = []
    for t, line in child.lines:
        if '"type": "race"' in line:
            doc = json.loads(line)
            if doc.get("tenant") == "live":
                scheduled = t_live0 + (doc["event"] // per_batch) * LIVE_BATCH_S
                latencies.append((t - scheduled) * 1000.0)
    return {
        "child": child, "live": live, "setup_s": t_welcome - child.t_launch,
        "bulk_events_per_s": n_bulk / (summaries["bulk"] - bulk["t0"]),
        "events_per_s": (n_bulk + n_live)
        / (max(summaries.values()) - child.t_launch),
        "latencies": latencies, "lateness": lateness,
        "handshake_ms": handshake_ms,
    }


def judge_serve(r: dict, inputs: ServeInputs, tally: Tally,
                expected: List[str]) -> None:
    """One operation per tenant session; it fails if any of its
    analysis reports fails a check."""
    child = r["child"]
    by_tenant = checker.parse_serve([line for _, line in child.lines])
    for tenant, meta, capture in (
            ("live", r["live"].meta, r["live"].capture),
            ("bulk", inputs.bulk_meta, inputs.bulk_capture)):
        ops = checker.judge(by_tenant.pop(tenant, []), capture,
                            meta["spec"], live_races=True)
        problems = [p for op in ops for p in op.problems]
        if sorted(op.name for op in ops) != sorted(expected):
            problems.append("reports {}".format([op.name for op in ops]))
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.wrong("tenant {}: {}".format(tenant,
                                               "; ".join(problems)[:400]))
    if by_tenant:
        tally.wrong("unexpected tenants {}".format(sorted(by_tenant)))
    if child.rc not in (0, 1):
        tally.wrong("server exited {}: {}".format(
            child.rc, child.err.decode("utf-8", "replace")[-300:]))


def measure_serve(workload: dict, inputs: ServeInputs, seconds: float,
                  env: dict, tally: Tally) -> dict:
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(serve_round(workload, inputs, env, index=len(rounds)))
        if not time_for_another(start, len(rounds), seconds):
            break
    for r in rounds:
        judge_serve(r, inputs, tally, workload["analyses"])
        if len(r["latencies"]) < 200:
            tally.wrong("only {} live race lines".format(len(r["latencies"])))
    lateness = [x * 1000.0 for r in rounds for x in r["lateness"]]
    latencies = [x for r in rounds for x in r["latencies"]]
    samples = len(latencies)
    print("rounds: {} (bulk tenant: closed loop, one session per round; "
          "live tenant: open loop at {} events/s in {:g} ms batches); race "
          "lines {} ({} per round); generator lateness p50 {:.3f} ms, p99 "
          "{:.3f} ms, max {:.3f} ms".format(
              len(rounds), LIVE_RATE, LIVE_BATCH_S * 1000, samples,
              samples // len(rounds), percentile(lateness, 0.5),
              percentile(lateness, 0.99), max(lateness)))
    return {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "events_per_s": median([r["events_per_s"] for r in rounds]),
        "cpu_s": median([r["child"].cpu_s for r in rounds]),
        "peak_rss_mb": median([r["child"].rss_mb for r in rounds]),
        "tenant_events_per_s": median([r["bulk_events_per_s"] for r in rounds]),
        "race_latency_p50_ms": percentile(latencies, 0.50),
        "race_latency_p95_ms": percentile(latencies, 0.95),
    }


# -- entry point -------------------------------------------------------------

def prepare(workload: dict, seed: int) -> dict:
    metas = {"main": captures.build(workload["capture"], seed, CAPTURE_DIR)}
    if "live" in workload:
        metas["live"] = [captures.build(workload["live"],
                                        seed * LIVE_CAPTURES + j, CAPTURE_DIR)
                         for j in range(LIVE_CAPTURES)]
    return metas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (no "
              "src/repro here)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    become_subreaper()
    # a terminated run unwinds like an interrupted one: the finally
    # clauses stop the children, which run in process groups of their own
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args, workload, env)
    except BenchError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    finally:
        end_children()


def measure(args, workload: dict, env: dict) -> int:
    try:
        host = fingerprint(env)
        print("host: " + json.dumps(host, sort_keys=True))
        metas = prepare(workload, args.seed)
        for meta in [metas["main"]] + metas.get("live", []):
            print("capture: {} seed {} events {} ({})".format(
                meta["key"], meta["spec"]["seed"], meta["events"],
                meta["path"]))
        tally = Tally()
        if args.trace:
            import traced
            metrics, units = traced.run(args.workload, workload, metas,
                                        args.seed, env, tally, host)
        else:
            units = UNITS
            if workload["format"] == "serve":
                inputs = ServeInputs(metas["main"], metas["live"])
                metrics = measure_serve(workload, inputs, args.seconds,
                                        env, tally)
            else:
                capture = checker.Capture(metas["main"]["path"])
                metrics = measure_cli(args.workload, workload,
                                      metas["main"], capture, args.seconds,
                                      env, tally)
        # every process this run started has ended before its result
        end_children()
    except (BenchError, OSError, checker.CheckError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    for note in tally.notes[:20]:
        print("check: " + note)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
