"""Output checker for the benchmark, made apart from the program.

Nothing here imports ``repro``: the capture is decoded by this file's own
v2 reader, and the expected results come from the capture's spec, not
from a stored copy of an earlier run or from the program's oracle (which
shares the faults it would have to catch).  One *operation* is one
analysis report (a row of ``repro compare``, a block of ``repro
analyze``) or one tenant session's report from ``repro serve --multi``.
An operation fails when any of these checks fails:

* **planted-race arithmetic.**  The spec plants ``hb_races`` alternating
  races (two racy program locations each when ``dynamic_multiplier`` > 1,
  else one), ``hb_single_races`` one-location races and
  ``predictive_races`` races that only the predictive relations (WCP, DC,
  WDC, SP) find.  So an HB analysis reports ``hb_races +
  hb_single_races`` racy variables and ``hb_races * (2 if
  dynamic_multiplier > 1 else 1) + hb_single_races`` static races, and a
  predictive analysis ``predictive_races`` more of each.
* **the lockset property.**  Every predictable race is between two
  conflicting accesses by different threads that hold no common lock.
  So each reported race's access must have an earlier conflicting access
  to its variable, by another thread, whose held locks are disjoint from
  its own; and each reported racy variable must have such a pair.
* **containment** on racy variables: HB within WCP within DC within WDC,
  and HB within SP.  A violation fails the operation of the larger
  relation.
* **serve.**  Every race line's event index lies within its tenant's
  capture, passes the lockset property and appears once; each tenant
  session completes with every event and meets the arithmetic.

Run it on its own against any capture and report::

    python3 e2ebench/checker.py analyze REPORT.txt CAPTURE.json
    python3 e2ebench/checker.py compare REPORT.txt CAPTURE.json
    python3 e2ebench/checker.py serve REPORT.jsonl TENANT=CAPTURE.json ...

``CAPTURE.json`` is the spec sidecar that ``e2ebench/captures.py`` writes
next to each capture.  The run prints one verdict per operation and the
attempted and failed counts, and exits 1 when any operation failed.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Dict, List, Optional, Set

MAGIC = b"# repro trace v2\n"
READ, WRITE, ACQUIRE, RELEASE = 0, 1, 2, 3

#: Relation of every analysis name the program registers.
RELATION = {
    "unopt-hb": "hb", "ft2": "hb", "fto-hb": "hb",
    "unopt-wcp": "wcp", "fto-wcp": "wcp", "st-wcp": "wcp",
    "unopt-dc": "dc", "unopt-dc-g": "dc", "fto-dc": "dc", "st-dc": "dc",
    "unopt-wdc": "wdc", "unopt-wdc-g": "wdc", "fto-wdc": "wdc",
    "st-wdc": "wdc", "unopt-sp": "sp", "sp": "sp",
}
#: (smaller, larger): every racy variable of the first is one of the second.
CONTAINMENT = (("hb", "wcp"), ("wcp", "dc"), ("dc", "wdc"), ("hb", "sp"))


class CheckError(Exception):
    """The input cannot be judged at all (unreadable capture or report)."""


# -- capture -----------------------------------------------------------------

class Capture:
    """A decoded v2 capture: header dimensions and per-event columns."""

    def __init__(self, path: str):
        with open(path, "rb") as fp:
            data = fp.read()
        if not data.startswith(MAGIC):
            raise CheckError("{}: not a v2 binary capture".format(path))
        vals: List[int] = []
        append = vals.append
        cur = shift = 0
        for b in memoryview(data)[len(MAGIC):]:
            if b & 0x80:
                cur |= (b & 0x7F) << shift
                shift += 7
            else:
                append(cur | (b << shift))
                cur = shift = 0
        if shift or len(vals) < 6 or (len(vals) - 6) % 3:
            raise CheckError("{}: truncated capture".format(path))
        self.dims = vals[:6]
        packed = vals[6::3]
        self.kinds = [v & 0xF for v in packed]
        self.tids = [v >> 4 for v in packed]
        self.targets = vals[7::3]
        self.n = len(packed)
        self._scans: Dict[frozenset, tuple] = {}

    def scan(self, queries: Dict[int, tuple]):
        """One pass over the capture.  Returns ``(racy_vars, verdicts)``:
        the variables with a lockset-disjoint conflicting pair, and for
        each queried event index (``index -> (tid, var, is_write)``)
        whether it is that access and has an earlier such partner.
        Results are kept per query set, so judging the same report again
        costs no pass."""
        key = frozenset(queries.items())
        if key not in self._scans:
            self._scans[key] = self._scan(queries)
        return self._scans[key]

    def _scan(self, queries: Dict[int, tuple]):
        held: Dict[int, List[int]] = {}
        locksets: Dict[int, frozenset] = {}
        seen: Dict[int, set] = {}
        racy: Set[int] = set()
        verdicts: Dict[int, bool] = {}
        empty = frozenset()
        kinds, tids, targets = self.kinds, self.tids, self.targets
        for i in range(self.n):
            k = kinds[i]
            t = tids[i]
            if k <= WRITE:
                x = targets[i]
                ls = locksets.get(t, empty)
                combos = seen.get(x)
                if combos is None:
                    combos = seen[x] = set()
                query = queries.get(i)
                if x not in racy or query is not None:
                    hit = False
                    for t2, w2, ls2 in combos:
                        if t2 != t and (w2 or k == WRITE) and not (ls2 & ls):
                            hit = True
                            break
                    if hit:
                        racy.add(x)
                    if query is not None:
                        verdicts[i] = hit and query == (t, x, k == WRITE)
                combos.add((t, k == WRITE, ls))
            elif k == ACQUIRE:
                stack = held.setdefault(t, [])
                stack.append(targets[i])
                locksets[t] = frozenset(stack)
            elif k == RELEASE:
                stack = held.setdefault(t, [])
                if targets[i] in stack:
                    stack.remove(targets[i])
                locksets[t] = frozenset(stack)
        for i in queries:
            verdicts.setdefault(i, False)
        return racy, verdicts


def expected_counts(spec: dict, relation: str):
    """``(static races, racy variables)`` the spec plants for a relation."""
    static = (spec["hb_races"] * (2 if spec["dynamic_multiplier"] > 1 else 1)
              + spec["hb_single_races"])
    variables = spec["hb_races"] + spec["hb_single_races"]
    if relation != "hb":
        static += spec["predictive_races"]
        variables += spec["predictive_races"]
    return static, variables


# -- reports -----------------------------------------------------------------

class Op:
    """One operation's report as parsed from the program's output."""

    def __init__(self, name: str):
        self.name = name
        self.failure: Optional[str] = None
        self.static = self.dynamic = 0
        #: racy variables shown, and how many there are in all (None when
        #: the output does not say)
        self.vars: List[int] = []
        self.vars_total: Optional[int] = None
        #: (event, tid, var, is_write) of each race line
        self.races: List[tuple] = []
        self.events: Optional[int] = None
        self.problems: List[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.problems)


ANALYZE_HEAD = re.compile(r"^(\S+)\s+(\d+) static / (\d+) dynamic race\(s\)")
ANALYZE_RACE = re.compile(
    r"^\s+event\s+(\d+)\s+T(\d+)\s+(read|write) of x(\d+)\s+\(")
FAILED_LINE = re.compile(r"^(\S+)\s+FAILED at event (-?\d+): (.*)$")
COMPARE_HEAD = re.compile(r"^single-pass comparison over .* \((\d+) events\)$")
COMPARE_ROW = re.compile(
    r"^(\S+)\s+(\S+)\s+(\S+)\s+(\d+)\s+(\d+)\s+(\S+)$")


def parse_analyze(text: str) -> List[Op]:
    ops: List[Op] = []
    for line in text.splitlines():
        m = ANALYZE_HEAD.match(line)
        if m:
            op = Op(m.group(1))
            op.static, op.dynamic = int(m.group(2)), int(m.group(3))
            ops.append(op)
            continue
        m = FAILED_LINE.match(line)
        if m:
            op = Op(m.group(1))
            op.failure = line
            ops.append(op)
            continue
        m = ANALYZE_RACE.match(line)
        if m and ops:
            ops[-1].races.append((int(m.group(1)), int(m.group(2)),
                                  int(m.group(4)), m.group(3) == "write"))
    for op in ops:
        op.vars = sorted({r[2] for r in op.races})
        if len(op.races) == op.dynamic:
            op.vars_total = len(op.vars)
    return ops


def parse_compare(text: str):
    events = None
    ops: List[Op] = []
    for line in text.splitlines():
        m = COMPARE_HEAD.match(line)
        if m:
            events = int(m.group(1))
            continue
        m = FAILED_LINE.match(line)
        if m:
            op = Op(m.group(1))
            op.failure = line
            ops.append(op)
            continue
        m = COMPARE_ROW.match(line)
        if m and m.group(1) != "analysis" and m.group(1) != "hierarchy":
            op = Op(m.group(1))
            op.static, op.dynamic = int(m.group(4)), int(m.group(5))
            shown = m.group(6)
            if shown != "-":
                more = 0
                for tok in shown.split(","):
                    if tok.startswith("+"):
                        more = int(tok[1:])
                    else:
                        op.vars.append(int(tok[1:]))
                op.vars_total = len(op.vars) + more
            else:
                op.vars_total = 0
            ops.append(op)
    for op in ops:
        op.events = events
    return ops


def parse_serve(lines: List[str]) -> Dict[str, List[Op]]:
    """Group ``--emit jsonl`` lines by tenant; one Op per (tenant,
    analysis), carrying that tenant's race lines and summary."""
    tenants: Dict[str, Dict[str, Op]] = {}
    states: Dict[str, tuple] = {}
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        tenant = doc.get("tenant")
        if tenant is None:
            continue
        kind = doc.get("type")
        if kind == "session":
            states[tenant] = (doc.get("state"), doc.get("events"))
            tenants.setdefault(tenant, {})
            continue
        name = doc.get("analysis")
        op = tenants.setdefault(tenant, {}).get(name)
        if op is None:
            op = tenants[tenant][name] = Op(name)
            op.dynamic = op.static = -1
        if kind == "race":
            op.races.append((doc["event"], doc["tid"], doc["var"],
                             doc["access"] == "write"))
        elif kind == "summary":
            op.static, op.dynamic = doc["static"], doc["dynamic"]
            op.events = doc["events"]
        elif kind == "failure":
            op.failure = line
    out: Dict[str, List[Op]] = {}
    for tenant, ops in tenants.items():
        state = states.get(tenant, (None, None))
        for op in ops.values():
            op.vars = sorted({r[2] for r in op.races})
            op.vars_total = len(op.vars)
            if state[0] != "complete":
                op.problems.append("session state {!r}".format(state[0]))
        out[tenant] = list(ops.values())
    return out


# -- judging -----------------------------------------------------------------

def judge(ops: List[Op], capture: Capture, spec: dict,
          live_races: bool = False) -> List[Op]:
    """Run every check on the operations of one report of one capture;
    each failed check appends to the operation's ``problems``.
    ``live_races`` marks serve output, where every race is a line."""
    queries = {}
    for op in ops:
        for event, tid, var, is_write in op.races:
            queries[event] = (tid, var, is_write)
    racy, verdicts = capture.scan(queries)
    by_rel: Dict[str, List[Op]] = {}
    for op in ops:
        p = op.problems
        if op.failure is not None:
            p.append("analysis failed: " + op.failure)
            continue
        relation = RELATION.get(op.name)
        if relation is None:
            p.append("unknown analysis")
            continue
        by_rel.setdefault(relation, []).append(op)
        if op.events is not None and op.events != capture.n:
            p.append("{} events analyzed, capture has {}".format(
                op.events, capture.n))
        want_static, want_vars = expected_counts(spec, relation)
        if op.static != want_static:
            p.append("{} static races, spec plants {}".format(
                op.static, want_static))
        if op.vars_total is not None and op.vars_total != want_vars:
            p.append("{} racy variables, spec plants {}".format(
                op.vars_total, want_vars))
        if live_races and len(op.races) != op.dynamic:
            p.append("{} race lines, summary says {} dynamic".format(
                len(op.races), op.dynamic))
        seen = set()
        bad = 0
        for event, tid, var, is_write in op.races:
            if event in seen:
                p.append("event {} reported twice".format(event))
            seen.add(event)
            if not 0 <= event < capture.n:
                p.append("event {} outside the capture".format(event))
            elif not verdicts.get(event):
                bad += 1
        if bad:
            p.append("{} of {} race lines fail the lockset property".format(
                bad, len(op.races)))
        bad_vars = [v for v in op.vars if v not in racy]
        if bad_vars:
            p.append("{} of {} shown racy variables fail the lockset "
                     "property".format(len(bad_vars), len(op.vars)))
    for small, large in CONTAINMENT:
        for a in by_rel.get(small, []):
            for b in by_rel.get(large, []):
                missing = _not_contained(a, b)
                if missing:
                    b.problems.append("{} racy variable(s) of {} missing, "
                                      "e.g. x{}".format(len(missing), a.name,
                                                        missing[0]))
    return ops


def _not_contained(a: Op, b: Op) -> List[int]:
    """Racy variables of ``a`` that ``b``'s output shows it lacks."""
    if a.vars_total is not None and b.vars_total is not None \
            and a.vars_total > b.vars_total:
        return list(a.vars) or [-1]
    b_vars = set(b.vars)
    complete = b.vars_total == len(b.vars)
    limit = b.vars[-1] if b.vars else -1
    return [v for v in a.vars if v not in b_vars and (complete or v < limit)]


def _load_side(path: str):
    with open(path) as fp:
        meta = json.load(fp)
    return meta, Capture(meta["path"])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] not in ("analyze", "compare", "serve"):
        print(__doc__.split("Run it on its own")[1], file=sys.stderr)
        return 2
    fmt, report = argv[0], argv[1]
    with open(report) as fp:
        text = fp.read()
    judged: List[tuple] = []
    if fmt == "serve":
        by_tenant = parse_serve(text.splitlines())
        for arg in argv[2:]:
            tenant, _, side = arg.partition("=")
            meta, cap = _load_side(side)
            ops = by_tenant.get(tenant, [])
            if not ops:
                missing = Op("(no report)")
                missing.problems.append("tenant {} printed nothing".format(
                    tenant))
                ops = [missing]
            judged += [(tenant, op) for op in judge(ops, cap, meta["spec"],
                                                    live_races=True)]
    else:
        meta, cap = _load_side(argv[2])
        ops = parse_analyze(text) if fmt == "analyze" else parse_compare(text)
        judged = [("", op) for op in judge(ops, cap, meta["spec"])]
    failed = 0
    for tenant, op in judged:
        failed += op.failed
        print("{:<8}{:<12} {}".format(tenant, op.name, "FAIL: " + "; ".join(
            op.problems) if op.failed else "ok"))
    print("attempted {} failed {}".format(len(judged), failed))
    return 1 if failed or not judged else 0


if __name__ == "__main__":
    sys.exit(main())
