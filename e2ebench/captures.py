"""Capture generation: the benchmark's binary v2 input files, made from a seed.

Every workload's input is generated here, outside every timed region,
and written as a v2 binary capture (``# repro trace v2`` magic, six
LEB128 header varints, three varints per event).  The program under test
receives only these files.

The event sequence is the repository's synthetic generator algorithm
(``repro.workloads.generator``), restated here so that the benchmark's
inputs stay fixed when the program changes: a change to the program's
generator must not change what the benchmark measures.  For the specs'
own seeds the files are byte-identical to ``repro generate --binary``
output of the same spec.

Each capture has a *header twin*: the same six header dimensions and
zero events.  Running a workload's exact command on the twin measures
the command's set-up cost (``setup_s``).

Regenerate every capture from the command line::

    python3 e2ebench/captures.py              # the specs' own seeds
    python3 e2ebench/captures.py --seed 3     # each spec seed + 3
    python3 e2ebench/captures.py --out DIR    # default .bench_build/captures
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from typing import Dict, List, Tuple

MAGIC = b"# repro trace v2\n"
DEFAULT_DIR = os.path.join(".bench_build", "captures")

READ, WRITE, ACQUIRE, RELEASE, FORK, JOIN, VOLATILE_READ, VOLATILE_WRITE = \
    range(8)


@dataclasses.dataclass(frozen=True)
class Spec:
    """The shape of one synthetic program (the fields of the
    repository's ``WorkloadSpec``; see its docstring)."""

    name: str
    threads: int
    events: int
    locks: int = 8
    shared_vars: int = 64
    local_vars: int = 16
    p_cs: float = 0.3
    nesting: Tuple[float, float, float] = (0.9, 0.08, 0.02)
    read_fraction: float = 0.7
    burst: float = 6.0
    p_volatile: float = 0.02
    predictive_races: int = 0
    hb_races: int = 0
    hb_single_races: int = 0
    dynamic_multiplier: int = 1
    seed: int = 0


#: The four captures.  ``kernel`` is the lock-light ``kernel-bench`` spec
#: of benchmarks/bench_engine.py at 1M events; ``xalan``, ``h2`` and
#: ``tomcat`` are the DaCapo analogs of repro.workloads.dacapo (xalan and
#: h2 at 5x their default event budget, tomcat at 0.5x: its planted races
#: do not scale, so it keeps all 303 st-wdc dynamic races).
SPECS: Dict[str, Spec] = {
    "kernel": Spec("kernel-bench", threads=8, events=1_000_000, locks=16,
                   shared_vars=512, local_vars=128, p_cs=0.002,
                   read_fraction=0.75, burst=8.0, p_volatile=0.002,
                   predictive_races=2, hb_races=2, seed=11),
    "xalan": Spec("xalan", threads=8, events=75_000, p_cs=0.90,
                  nesting=(0.003, 0.99, 0.007), burst=2.5,
                  predictive_races=43, hb_races=4,
                  dynamic_multiplier=12, seed=110),
    "h2": Spec("h2", threads=9, events=185_000, p_cs=0.62,
               nesting=(0.04, 0.95, 0.01), burst=5.0, hb_races=6,
               hb_single_races=1, dynamic_multiplier=16, seed=103),
    "tomcat": Spec("tomcat", threads=36, events=5_000, locks=12, p_cs=0.10,
                   nesting=(0.45, 0.35, 0.2), burst=2.8, hb_races=40,
                   hb_single_races=17, predictive_races=6,
                   dynamic_multiplier=4, seed=109),
}


# -- generator (same algorithm and random-number use as the program's) -----

class _Ids:
    def __init__(self, spec: Spec):
        self.n_threads = spec.threads + 1
        self.n_locks = spec.locks
        self.n_vars = 0
        self.n_volatiles = spec.threads + 1
        self._sites: Dict[str, int] = {}
        self.shared = [self.new_var() for _ in range(spec.shared_vars)]
        self.init_vars = [self.new_var() for _ in range(8)]
        self.locals = {t: [self.new_var() for _ in range(spec.local_vars)]
                       for t in range(1, self.n_threads)}
        self.by_lock = {m: [v for v in self.shared if v % spec.locks == m]
                        for m in range(spec.locks)}

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars - 1

    def new_lock(self) -> int:
        self.n_locks += 1
        return self.n_locks - 1

    def site(self, key: str) -> int:
        return self._sites.setdefault(key, len(self._sites))


def _geometric(rng: random.Random, mean: float) -> int:
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    n = 1
    while rng.random() > p and n < 64:
        n += 1
    return n


def _worker_steps(spec: Spec, ids: _Ids, tid: int, rng: random.Random,
                  budget: int) -> List[Tuple[int, int, int]]:
    steps: List[Tuple[int, int, int]] = []

    def burst(var: int, tag: str) -> None:
        n = _geometric(rng, spec.burst)
        write_first = rng.random() > spec.read_fraction
        for k in range(n):
            kind = WRITE if (write_first and k == 0) else (
                WRITE if rng.random() > spec.read_fraction else READ)
            steps.append((kind, var, ids.site("{}:{}:{}".format(
                "wr" if kind == WRITE else "rd", tag, var))))

    p_vol, p_cs = spec.p_volatile, spec.p_cs
    while len(steps) < budget:
        r = rng.random()
        if r < p_vol:
            if rng.random() < 0.5:
                steps.append((VOLATILE_WRITE, tid,
                              ids.site("vwr:{}".format(tid))))
            else:
                v = rng.randrange(ids.n_volatiles)
                steps.append((VOLATILE_READ, v, ids.site("vrd:{}".format(v))))
        elif r < p_vol + 0.05:
            var = rng.choice(ids.init_vars)
            steps.append((READ, var, ids.site("rd:init:{}".format(var))))
        elif r < p_vol + 0.05 + p_cs:
            w1, w2, w3 = spec.nesting
            x = rng.random() * (w1 + w2 + w3)
            depth = 1 if x < w1 else (2 if x < w1 + w2 else 3)
            locks = sorted(rng.sample(range(spec.locks),
                                      min(depth, spec.locks)))
            for m in locks:
                steps.append((ACQUIRE, m, 0))
            candidates = ids.by_lock[locks[-1]]
            if candidates:
                for _ in range(rng.randint(1, 2)):
                    burst(rng.choice(candidates), "cs")
            for m in reversed(locks):
                steps.append((RELEASE, m, 0))
        else:
            burst(rng.choice(ids.locals[tid]), "local")
    return steps


def _pick_pair(rng: random.Random, workers: int) -> Tuple[int, int]:
    a = rng.randrange(workers)
    b = rng.randrange(workers)
    while b == a:
        b = rng.randrange(workers)
    return a, b


def _patterns(spec: Spec, ids: _Ids, rng: random.Random, workers: int):
    patterns = []
    if workers < 2:
        return patterns
    for k in range(spec.predictive_races):
        a, b = _pick_pair(rng, workers)
        x, m = ids.new_var(), ids.new_lock()
        junk_a, junk_b = ids.new_var(), ids.new_var()
        gate = ids.new_lock()
        chunks = [
            (a, [(READ, x, ids.site("prace-a:{}".format(k))),
                 (ACQUIRE, m, 0),
                 (WRITE, junk_a, ids.site("prace-junk-a:{}".format(k))),
                 (RELEASE, m, 0)]),
            (b, [(ACQUIRE, m, 0),
                 (READ, junk_b, ids.site("prace-junk-b:{}".format(k))),
                 (RELEASE, m, 0)]),
        ]
        for _ in range(spec.dynamic_multiplier):
            chunks.append((b, [(ACQUIRE, gate, 0),
                               (WRITE, x, ids.site("prace-b:{}".format(k))),
                               (RELEASE, gate, 0)]))
        patterns.append(chunks)
    for k in range(spec.hb_races):
        a, b = _pick_pair(rng, workers)
        x = ids.new_var()
        gate_a, gate_b = ids.new_lock(), ids.new_lock()
        write_a = (a, [(ACQUIRE, gate_a, 0),
                       (WRITE, x, ids.site("hbrace-a:{}".format(k))),
                       (RELEASE, gate_a, 0)])
        chunks = [write_a]
        for r in range(spec.dynamic_multiplier):
            chunks.append((b, [(ACQUIRE, gate_b, 0),
                               (READ, x, ids.site("hbrace-b:{}".format(k))),
                               (RELEASE, gate_b, 0)]))
            if r + 1 < spec.dynamic_multiplier:
                chunks.append(write_a)
        patterns.append(chunks)
    for k in range(spec.hb_single_races):
        a, b = _pick_pair(rng, workers)
        x = ids.new_var()
        patterns.append([
            (a, [(WRITE, x, ids.site("hb1race-a:{}".format(k)))]),
            (b, [(READ, x, ids.site("hb1race-b:{}".format(k)))]),
        ])
    return patterns


def generate(spec: Spec):
    """Return ``(dims, events)``: the six header dimensions and the
    event list of ``(tid, kind, target, site)`` tuples."""
    rng = random.Random(spec.seed)
    ids = _Ids(spec)
    workers = spec.threads
    per_worker = max((spec.events - 4 * workers - 16) // max(workers, 1), 8)
    scripts = [_worker_steps(spec, ids, t, random.Random(rng.randrange(1 << 30)),
                             per_worker)
               for t in range(1, workers + 1)]
    patterns = _patterns(spec, ids, rng, workers)

    site = ids.site("rd:init-write")
    events = [(0, WRITE, v, site) for v in ids.init_vars]
    events += [(0, FORK, t, 0) for t in range(1, workers + 1)]
    pointers = [0] * workers
    held: Dict[int, int] = {}
    pace = [rng.uniform(0.5, 2.0) for _ in range(workers)]
    active = [t for t in range(workers) if scripts[t]]
    while active:
        t = rng.choices(active, weights=[pace[u] for u in active], k=1)[0]
        steps = scripts[t]
        for _ in range(_geometric(rng, 3.0)):
            p = pointers[t]
            if p >= len(steps):
                break
            kind, target, s = steps[p]
            if kind == ACQUIRE:
                holder = held.get(target)
                if holder is not None and holder != t:
                    break
                held[target] = t
            elif kind == RELEASE:
                held.pop(target, None)
            events.append((t + 1, kind, target, s))
            pointers[t] = p + 1
        active = [u for u in active if pointers[u] < len(scripts[u])]
    rng.shuffle(patterns)
    for chunks in patterns:
        for worker, steps in chunks:
            events += [(worker + 1, k, x, s) for k, x, s in steps]
    events += [(0, JOIN, t, 0) for t in range(1, workers + 1)]
    dims = (ids.n_threads, ids.n_locks, ids.n_vars, ids.n_volatiles, 1,
            len(events))
    return dims, events


# -- v2 binary encoding ------------------------------------------------------

def _varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def encode(dims, events) -> bytes:
    buf = bytearray(MAGIC)
    for d in dims:
        _varint(buf, d)
    for tid, kind, target, site in events:
        _varint(buf, kind | (tid << 4))
        _varint(buf, target)
        _varint(buf, site)
    return bytes(buf)


def _write_atomic(path: str, data: bytes) -> None:
    tmp = "{}.tmp{}".format(path, os.getpid())
    with open(tmp, "wb") as fp:
        fp.write(data)
    os.replace(tmp, path)


def capture_paths(out_dir: str, key: str, seed_offset: int):
    stem = os.path.join(out_dir, "{}-s{}".format(key, seed_offset))
    return stem + ".bin", stem + ".empty.bin", stem + ".json"


def build(key: str, seed_offset: int, out_dir: str) -> dict:
    """Write (or reuse) one capture, its header twin and its spec sidecar;
    return the sidecar: ``spec``, ``dims``, ``events`` and the paths."""
    path, empty, meta_path = capture_paths(out_dir, key, seed_offset)
    if os.path.exists(meta_path):
        with open(meta_path) as fp:
            meta = json.load(fp)
        if os.path.exists(path) and os.path.exists(empty):
            return meta
    spec = dataclasses.replace(SPECS[key], seed=SPECS[key].seed + seed_offset)
    dims, events = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(path, encode(dims, events))
    _write_atomic(empty, encode(dims[:5] + (0,), []))
    meta = {"key": key, "spec": dataclasses.asdict(spec), "dims": list(dims),
            "events": len(events), "path": path, "empty": empty}
    _write_atomic(meta_path, json.dumps(meta, sort_keys=True).encode())
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every spec's own seed (default 0)")
    parser.add_argument("--out", default=DEFAULT_DIR)
    parser.add_argument("captures", nargs="*", metavar="KEY",
                        help="any of {} (default: all)".format(
                            ", ".join(sorted(SPECS))))
    args = parser.parse_args(argv)
    unknown = set(args.captures) - set(SPECS)
    if unknown:
        parser.error("unknown capture(s): {}".format(", ".join(sorted(unknown))))
    for key in args.captures or sorted(SPECS):
        meta = build(key, args.seed, args.out)
        print("{:<7} seed {:>4}  {:>8} events  {:>9} bytes  {}".format(
            key, meta["spec"]["seed"], meta["events"],
            os.path.getsize(meta["path"]), meta["path"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
