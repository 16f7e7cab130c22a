"""Workload ``serve-routed``: source text through ``kmt route`` to a thread backend.

Topology: this process (the generator) opens two TCP connections, one per
CPU of the seed host, to ``kmt route``, which fronts one ``kmt serve
--socket`` backend with two worker threads.  A second backend on two CPUs
would add a process to schedule, not capacity.

Traffic: Zipf-distributed repeats over a fixed working set that fits the
session caches (reads), plus a small share of novel cheap queries that miss
and insert (writes), spread over ``equiv``, ``inclusion``, ``sat``,
``member``, ``verify`` and ``dead_code`` on the incnat and bitvec theories.
Every request is source text, so the parser runs on every request and the
caches answer the rest.  Every query comes from a family with a closed-form
answer on its generator parameters.  The mix's values are assumptions, not
a sample of real traffic.

Phase A (latency) is an open loop: seeded Poisson arrivals at the constant
:data:`OPEN_RATE_QPS`, about a fifth of the seed program's capacity, each
request timed from when it was due.  Phase B (capacity) is a closed loop with
:data:`WINDOW_PER_CONNECTION` requests outstanding per connection.  Phase C
(unloaded round trips) keeps one request outstanding, for the per-op
medians.  The phases take turns in short slices, one of each per cycle, and
consecutive cycles swap two CPU placements of the processes; each phase
pools its slices.  The generator drains after every slice.  Servers run
with ``PYTHONHASHSEED`` pinned and are stopped, and waited for, however the
run ends.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from repro import KMT, BitVecTheory, EngineSession, IncNatTheory
from repro.core import terms as T
from repro.engine.batch import execute_query
from repro.lang import while_lang
from repro.theories import build_theory

from kmtperf import measure, oracle, paper_cold
from kmtperf.spans import Tracer, cache_ratios, install_core_layers, layer_metrics, not_crossed

HOST = "127.0.0.1"
CONNECTIONS = 2
BACKEND_WORKERS = 2
#: The traffic mix (working set, Zipf skew, write share and
#: :data:`RANK_FAMILIES`) is assumed, not taken from observed traffic; the
#: README gives the reason for each value.
WORKING_SET = 256
#: The working set is drawn once from this fixed seed, so every run serves
#: the same queries at the same popularity ranks, as ``compare-warm`` asks
#: from a fixed pool; the run's seed picks the request stream.  A working
#: set drawn from the run's seed gives each seed its own mean request cost
#: (100 to 124 us in-process over ten seeds), set mostly by the parameters
#: of the few queries at the head of the Zipf curve.
CATALOGUE_SEED = 0
ZIPF_S = 1.1
WRITE_SHARE = 0.05
#: Open-loop arrival rate, fixed here and never derived from a run, so a
#: faster program is not loaded harder.
OPEN_RATE_QPS = 500.0
#: Slice lengths of phases A, B and C.  One cycle runs one slice of each;
#: consecutive cycles swap the two CPU placements (see :func:`_placements`).
LATENCY_SLICE_S = 1.0
RATE_SLICE_S = 1.0
UNLOADED_SLICE_S = 0.5
CYCLE_S = LATENCY_SLICE_S + RATE_SLICE_S + UNLOADED_SLICE_S
#: Traced run: shares of the run given to traced phase A and to the
#: alternating overhead slices.
PHASE_A_SHARE = 0.4
PHASE_B_SHARE = 0.4
WINDOW_PER_CONNECTION = 8
DRAIN_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
#: Traced run: request pairs sent via the router and direct, interleaved.
HOP_PAIRS = 300
#: Traced run: alternating closed-loop slices with tracing off and on.
OVERHEAD_SLICE_S = 0.5
#: Closed-loop request streams are drawn before their phase starts, this many
#: per second of phase: well above any capacity the phase can reach.
STREAM_QPS = 20000

OUT_DIR = "kmtperf_out"

#: The family at each popularity rank, repeating: 4/20 equiv-shift, 3/20
#: inclusion, and so on; :data:`CATALOGUE_SEED` picks the parameters.
RANK_FAMILIES = (
    "equiv-shift", "inclusion", "member", "sat-nat", "verify", "equiv-loop", "dead_code",
    "equiv-shift", "inclusion", "member", "sat-bool", "equiv-shift", "verify",
    "equiv-loop", "dead_code", "inclusion", "member", "sat-nat", "equiv-shift", "equiv-bool",
)
MEMBER_WORD_LETTERS = 12


# ---------------------------------------------------------------------------
# query families: a request record plus its closed-form answer
# ---------------------------------------------------------------------------

class Query:
    """One request record of a family, with its closed-form answer."""

    __slots__ = ("family", "record", "expected")

    def __init__(self, family, record, expected):
        self.family = family
        self.record = record
        self.expected = expected

    @property
    def key(self):
        return json.dumps(self.record, sort_keys=True)


def _incs(var, k):
    return "; ".join([f"inc({var})"] * k)


def shift_query(k, n, m):
    """``inc(x)^k; x > n`` vs ``x > m; inc(x)^k``: equal iff ``m == n - k`` (n >= k)."""
    record = {"op": "equiv", "theory": "incnat",
              "left": f"{_incs('x', k)}; x > {n}", "right": f"x > {m}; {_incs('x', k)}"}
    return Query("equiv-shift", record, m == n - k)


def sat_nat_query(a, b):
    """``x > a; ~(x > b)`` is satisfiable iff ``b > a``."""
    return Query("sat-nat", {"op": "sat", "theory": "incnat", "pred": f"x > {a}; ~(x > {b})"},
                 b > a)


def _family_query(family, rng):
    if family == "equiv-shift":
        k = rng.randint(1, 4)
        n = rng.randint(k, k + 40)
        return shift_query(k, n, n - k + rng.randint(0, 1))
    if family == "equiv-loop":
        left = (rng.randint(1, 4), rng.randint(1, 4))
        right = left if rng.random() < 0.3 else (rng.randint(1, 4), rng.randint(1, 4))
        # The right side lists its summands the other way round.
        p, q = right
        right_text = "(" + _incs("y", q) + " + " + _incs("x", p) + ")*"
        record = {"op": "equiv", "theory": "incnat", "left": oracle.loop_text(*left),
                  "right": right_text}
        return Query(family, record, left == right)
    if family == "equiv-bool":
        var = rng.choice("abcdefgh")
        block = "; ".join([f"flip {var}"] * (2 * rng.randint(1, 3)))
        record = {"op": "equiv", "theory": "bitvec", "left": f"{var} = F; ({block})*",
                  "right": f"({block})*; {var} = F"}
        return Query(family, record, True)
    if family == "inclusion":
        left = (rng.randint(1, 6), rng.randint(1, 6))
        if rng.random() < 0.5:
            right = (rng.choice([d for d in range(1, 7) if left[0] % d == 0]),
                     rng.choice([d for d in range(1, 7) if left[1] % d == 0]))
        else:
            right = (rng.randint(1, 6), rng.randint(1, 6))
        record = {"op": "inclusion", "theory": "incnat", "left": oracle.loop_text(*left),
                  "right": oracle.loop_text(*right)}
        return Query(family, record, oracle.loop_includes(left, right))
    if family == "sat-nat":
        a = rng.randint(0, 40)
        return sat_nat_query(a, max(0, a + rng.randint(-5, 5)))
    if family == "sat-bool":
        v, w = rng.choice("abcdefgh"), rng.choice("abcdefgh")
        return Query(family, {"op": "sat", "theory": "bitvec", "pred": f"{v} = T; ~({w} = T)"},
                     v != w)
    if family == "member":
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        letters = []
        while len(letters) < MEMBER_WORD_LETTERS:
            letter = rng.choice("xy")
            base = p if letter == "x" else q
            letters += [letter] * (base * rng.randint(1, 2) + (rng.random() < 0.1))
        word = "".join(letters[:MEMBER_WORD_LETTERS])
        record = {"op": "member", "theory": "incnat", "term": oracle.loop_text(p, q),
                  "word": [f"inc({c})" for c in word]}
        return Query(family, record, oracle.loop_member(p, q, word))
    if family == "verify":
        a, k = rng.randint(0, 20), rng.randint(1, 4)
        b = a + rng.randint(0, k + 2)
        record = {"op": "verify", "theory": "incnat", "pre": f"x > {a}",
                  "program": _incs("x", k) + ";", "post": f"x > {b}"}
        return Query(family, record, a + k >= b)
    if family == "dead_code":
        a, b = rng.randint(0, 20), rng.randint(1, 25)
        record = {"op": "dead_code", "theory": "incnat",
                  "program": f"assume x > {a}; if (x < {b}) {{ inc(x); }}"}
        return Query(family, record, [False, False, b <= a + 1])
    raise ValueError(family)


def working_set(rng):
    """Distinct queries in popularity order (rank 0 is the most popular)."""
    out, seen = [], set()
    for _attempt in range(100 * WORKING_SET):
        if len(out) == WORKING_SET:
            return out
        query = _family_query(RANK_FAMILIES[len(out) % len(RANK_FAMILIES)], rng)
        if query.key not in seen:
            seen.add(query.key)
            out.append(query)
    raise RuntimeError("query families too small for the working set")


def novel_queries(rng):
    """Cheap queries no working-set entry or earlier novel query repeats."""
    used = set()
    while True:
        n = rng.randint(1000, 10 ** 6)
        if n in used:
            continue
        used.add(n)
        if len(used) % 2:
            yield sat_nat_query(n, n + rng.randint(-3, 3))
        else:
            k = rng.randint(1, 4)
            yield shift_query(k, n, n - k + rng.randint(0, 1))


# ---------------------------------------------------------------------------
# generator plumbing
# ---------------------------------------------------------------------------

class Connection:
    """One JSONL connection; a reader thread timestamps every response line."""

    def __init__(self, port):
        self.sock = socket.create_connection((HOST, port), timeout=START_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(None)
        self._file = self.sock.makefile("rb")
        self._lock = threading.Lock()
        self._cond = threading.Condition()
        self.sent = 0
        self.received = []
        self.on_response = None
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def send(self, payload):
        with self._lock:
            self.sock.sendall(payload)
            self.sent += 1
        return time.perf_counter()

    def _read(self):
        try:
            for line in self._file:
                stamp = time.perf_counter()
                with self._cond:
                    self.received.append((stamp, line))
                    self._cond.notify_all()
                callback = self.on_response
                if callback is not None:
                    callback(self)
        except (OSError, ValueError):
            pass
        with self._cond:
            self._cond.notify_all()

    def drain(self, timeout=DRAIN_TIMEOUT_S):
        """Wait until every request sent has its response; False on timeout."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            while len(self.received) < self.sent:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._thread.is_alive():
                    return False
                self._cond.wait(remaining)
        return True

    def take(self):
        with self._cond:
            out, self.received = self.received, []
        with self._lock:
            self.sent = 0
        return out

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._thread.join(timeout=5)
        self._file.close()


def _start_server(args, log_path, pattern, cpus):
    """Start ``python -m repro <args>`` on ``cpus``; returns it and its port."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    log = open(log_path, "w", encoding="utf-8")
    own = os.sched_getaffinity(0)
    # The child (and every thread it starts) inherits this affinity.
    os.sched_setaffinity(0, cpus)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "repro"] + args,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=log, env=env)
    finally:
        os.sched_setaffinity(0, own)
        log.close()
    deadline = time.perf_counter() + START_TIMEOUT_S
    while time.perf_counter() < deadline:
        with open(log_path, encoding="utf-8") as handle:
            match = re.search(pattern, handle.read())
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    _stop(proc)
    raise RuntimeError(f"server {' '.join(args[:1])} did not start; see {log_path}")


def _placements(cpus):
    """The two ``(backend CPUs, router and generator CPUs)`` placements.

    Fixed placement keeps the scheduler from moving three busy processes
    over two CPUs differently from run to run (capacity halved in some runs
    without it).  The timed cycles alternate between the two placements, so
    a neighbour slowing one CPU for seconds at a stretch slows both roles
    alike.
    """
    cpus = sorted(cpus)
    if len(cpus) < 2:
        return [(set(cpus), set(cpus))]
    return [({cpus[-1]}, set(cpus[:-1])), ({cpus[0]}, set(cpus[1:]))]


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def _encode(record):
    return (json.dumps(record) + "\n").encode()


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

class ServeRouted:
    name = "serve-routed"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.procs = []
        self.conns = []
        self.affinity = os.sched_getaffinity(0)
        self.sent = {}  # request id -> (query, phase, due time or None)
        self.responses = {}  # request id -> (receive time, raw line)
        self._ids = itertools.count()
        self.params = {"working_set": WORKING_SET, "zipf_s": ZIPF_S,
                       "write_share": WRITE_SHARE, "open_rate_qps": OPEN_RATE_QPS,
                       "connections": CONNECTIONS, "backend_workers": BACKEND_WORKERS,
                       "window_per_connection": WINDOW_PER_CONNECTION,
                       "rank_families": list(RANK_FAMILIES),
                       "member_word_letters": MEMBER_WORD_LETTERS}
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def _start(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"serve-routed-{os.getpid()}")
        self.placements = _placements(self.affinity)
        backend_cpus, front_cpus = self.placements[0]
        backend, backend_port = _start_server(
            ["serve", "--socket", f"{HOST}:0", "--workers", str(BACKEND_WORKERS),
             "--backend", "thread"], stem + "-backend.log", r"listening on [\d.]+:(\d+)",
            backend_cpus)
        self.procs.append(backend)
        router, router_port = _start_server(
            ["route", "--socket", f"{HOST}:0", "--backend", f"{HOST}:{backend_port}"],
            stem + "-router.log", r"routing on [\d.]+:(\d+)", front_cpus)
        self.procs.append(router)
        os.sched_setaffinity(0, front_cpus)
        self.backend_port, self.router_port = backend_port, router_port
        self.conns = [Connection(router_port) for _ in range(CONNECTIONS)]
        self.working = working_set(random.Random(CATALOGUE_SEED))
        self.zipf = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(WORKING_SET)))
        self.novel = novel_queries(random.Random(self.rng.random()))
        # Warm-up: every working-set query once, so the timed phases read
        # warm caches as designed.
        self._closed_loop([(q, "warmup") for q in self.working], math.inf)

    # -- request streams --------------------------------------------------------
    def _draw(self):
        if self.rng.random() < WRITE_SHARE:
            return next(self.novel)
        rank = self.rng.choices(range(WORKING_SET), cum_weights=self.zipf)[0]
        return self.working[rank]

    def _prepare(self, query, phase, due=None, extra=None):
        request_id = f"{phase}-{next(self._ids)}"
        record = dict(query.record, id=request_id)
        if extra:
            record.update(extra)
        self.sent[request_id] = (query, phase, due)
        return _encode(record)

    def _collect(self, conns):
        for conn in conns:
            for stamp, line in conn.take():
                self.responses[json.loads(line)["id"]] = (stamp, line)

    def _closed_loop(self, stream, end, extra=None, conns=None):
        """Keep :data:`WINDOW_PER_CONNECTION` requests outstanding per connection
        until ``stream`` runs out or ``end`` passes, then drain."""
        conns = conns or self.conns
        stream = iter(stream)
        lock = threading.Lock()
        exhausted = threading.Event()

        def next_payload():
            if time.perf_counter() >= end:
                return None
            with lock:
                item = next(stream, None)
                if item is None:
                    exhausted.set()
                    return None
                return self._prepare(*item, extra=extra)

        def refill(conn):
            payload = next_payload()
            if payload is not None:
                conn.send(payload)

        for conn in conns:
            conn.on_response = refill
        for conn in conns:
            for _ in range(WINDOW_PER_CONNECTION):
                refill(conn)
        while time.perf_counter() < end and not exhausted.is_set():
            time.sleep(0.01)
        for conn in conns:
            conn.on_response = None
        drained = all(conn.drain() for conn in conns)
        self._collect(conns)
        return drained

    def _place(self, index):
        """Move backend, router and this process to placement ``index``."""
        backend_cpus, front_cpus = self.placements[index % len(self.placements)]
        measure.pin(self.procs[0].pid, backend_cpus)
        measure.pin(self.procs[1].pid, front_cpus)
        measure.pin(os.getpid(), front_cpus)
        return index % len(self.placements)

    def _open_loop(self, seconds, phase, extra=None):
        """Seeded Poisson arrivals at :data:`OPEN_RATE_QPS` for ``seconds``,
        then a drain; returns each send's lateness in seconds."""
        arrivals = []
        due = 0.0
        while True:
            due += self.rng.expovariate(OPEN_RATE_QPS)
            if due >= seconds:
                break
            arrivals.append((due, self._draw()))
        lags = []
        start = time.perf_counter()
        for index, (offset, query) in enumerate(arrivals):
            due = start + offset
            payload = self._prepare(query, phase, due, extra=extra)
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = self.conns[index % len(self.conns)].send(payload)
            lags.append(sent - due)
        drained = all(conn.drain() for conn in self.conns)
        self._collect(self.conns)
        if not drained:
            raise RuntimeError(f"phase {phase} did not drain")
        return lags

    def _stats(self):
        conn = self.conns[0]
        conn.send(_encode({"op": "stats", "id": "stats"}))
        if not conn.drain():
            raise RuntimeError("no stats response")
        (_stamp, line), = conn.take()
        return json.loads(line)["result"]

    # -- measurement --------------------------------------------------------------
    def measure(self, seconds, trace):
        if trace:
            return self._measure_traced(seconds)
        # The phases take turns, one slice each per cycle, so each of them
        # samples the whole run: on a shared host the speed changes for
        # seconds at a time, and a phase run in one stretch took whatever
        # speed that stretch had.
        cycles = max(len(self.placements), round(seconds / CYCLE_S))
        lags, windows, unloaded = [], [], []
        for index in range(cycles):
            self._place(index)
            lags += self._open_loop(LATENCY_SLICE_S, f"A{index}")
            stream = [(self._draw(), f"B{index}") for _ in range(int(RATE_SLICE_S * STREAM_QPS))]
            start = time.perf_counter()
            if not self._closed_loop(stream, start + RATE_SLICE_S):
                raise RuntimeError("phase B did not drain")
            windows.append((index, start))
            unloaded += self._unloaded(UNLOADED_SLICE_S)
        self._place(0)
        rss = measure.peak_rss_mb(self.procs[0].pid) + measure.peak_rss_mb(self.procs[1].pid)
        router_stats = self._stats()["router"]
        checked = self._check()
        correct = checked["correct"]

        # Every phase pools its slices over both placements.  The tail's
        # percentile is chosen from the arrivals designed for all of phase A.
        latencies = sorted(itertools.chain.from_iterable(
            self._latencies(f"A{index}") for index in range(cycles)))
        tail_q = measure.tail_percentile(OPEN_RATE_QPS * LATENCY_SLICE_S * cycles)
        rates = []
        for index, start in windows:
            done = sum(1 for rid, (stamp, _line) in self.responses.items()
                       if self.sent[rid][1] == f"B{index}" and rid in correct
                       and start <= stamp <= start + RATE_SLICE_S)
            rates.append(done / RATE_SLICE_S)
        per_op = {}
        for rid, latency in unloaded:
            if rid in correct:
                per_op.setdefault(self.sent[rid][0].record["op"], []).append(latency)
        details = {
            "placements": [[sorted(b), sorted(f)] for b, f in self.placements],
            "tail_percentile": tail_q,
            "designed_arrivals": OPEN_RATE_QPS * LATENCY_SLICE_S * cycles,
            "answered_arrivals": len(latencies),
            "capacity_slice_qps": rates,
            "unloaded_op_median_ms": {op: measure.median(v) for op, v in sorted(per_op.items())},
            "generator_lag_p99_ms": measure.nearest_rank(sorted(lags), 99.0) * 1000.0,
            "router_requests": router_stats["requests"],
            "oracle": checked["notes"],
        }
        return {
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "details": details,
            "metrics": {
                "throughput_qps": sum(rates) / len(rates),
                "geomean_query_ms": measure.geomean([measure.median(v) for v in per_op.values()]),
                "latency_ms": measure.median(latencies),
                "latency_tail_ms": measure.nearest_rank(latencies, tail_q),
                "peak_rss_mb": rss,
            },
        }

    def _measure_traced(self, seconds):
        """Per-layer metrics, all in the first placement."""
        stats_before = self._stats()
        lags = self._open_loop(seconds * PHASE_A_SHARE, "A", {"trace": True})
        stats_after = self._stats()
        hop = self._hop_probe()
        overhead = self._overhead(seconds * PHASE_B_SHARE)
        router_stats = self._stats()["router"]
        checked = self._check()
        layers, tracer, details = self._layers((stats_before, stats_after), router_stats,
                                               lags, hop, overhead)
        details.update({"router_requests": router_stats["requests"], "oracle": checked["notes"]})
        out = {"attempted": checked["attempted"], "failed": checked["failed"],
               "details": details, "metrics": layers, "tracer": tracer}
        not_crossed(out, [f"query.{name}.median_ms" for name in paper_cold.ROWS])
        return out

    def _unloaded(self, seconds):
        """One request outstanding at a time; ``(id, round trip ms)`` pairs."""
        conn = self.conns[0]
        out = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            payload = self._prepare(self._draw(), "C")
            sent = conn.send(payload)
            if not conn.drain():
                raise RuntimeError("phase C request unanswered")
            (stamp, line), = conn.take()
            rid = json.loads(line)["id"]
            self.responses[rid] = (stamp, line)
            out.append((rid, (stamp - sent) * 1000.0))
        return out

    def _latencies(self, phase):
        """Latencies (ms, from when each was due) of the answered requests of ``phase``."""
        return [(self.responses[rid][0] - due) * 1000.0
                for rid, (_query, sent_phase, due) in self.sent.items()
                if sent_phase == phase and rid in self.responses]

    # -- traced run ------------------------------------------------------------------
    def _hop_probe(self):
        """Same cached requests via the router and direct, interleaved, one at a time."""
        spare = self.conns.pop()
        spare.close()
        direct = Connection(self.backend_port)
        self.conns.append(direct)
        router = self.conns[0]
        samples = {"router": [], "direct": []}
        queries = [self._draw() for _ in range(HOP_PAIRS)]
        try:
            for index, query in enumerate(queries):
                order = (("router", router), ("direct", direct))
                for path, conn in (order if index % 2 else order[::-1]):
                    payload = self._prepare(query, "hop-" + path, extra={"trace": True})
                    sent = conn.send(payload)
                    if not conn.drain():
                        raise RuntimeError("hop probe request unanswered")
                    (stamp, line), = conn.take()
                    response = json.loads(line)
                    self.responses[response["id"]] = (stamp, line)
                    samples[path].append(((stamp - sent) * 1000.0, response))
        finally:
            self.conns.pop().close()
            self.conns.append(Connection(self.router_port))
        return samples

    def _overhead(self, seconds):
        """Closed-loop slices alternating tracing off and on; returns rates."""
        rates = {"off": [], "on": []}
        slices = int(seconds / OVERHEAD_SLICE_S)
        streams = [[(self._draw(), "C" + ("off", "on")[index % 2])
                    for _ in range(int(OVERHEAD_SLICE_S * STREAM_QPS))]
                   for index in range(slices)]
        for index, stream in enumerate(streams):
            mode = ("off", "on")[index % 2]
            before = len(self.responses)
            start = time.perf_counter()
            self._closed_loop(stream, start + OVERHEAD_SLICE_S,
                              extra={"trace": True} if mode == "on" else None)
            rates[mode].append((len(self.responses) - before) / (time.perf_counter() - start))
        return rates

    def _layers(self, stats_window, router_stats, lags, hop, overhead):
        traced = []
        for rid, (query, phase, due) in self.sent.items():
            if phase == "A" and rid in self.responses:
                stamp, line = self.responses[rid]
                response = json.loads(line)
                if response.get("trace"):
                    traced.append((rid, query, due, stamp, response))
        tracer = self._replay_layers([(rid, query) for rid, query, _, _, _ in traced])
        layers, replay_shares = layer_metrics(tracer, len(traced))
        phase_ms, unattributed, exec_ms = {}, [], 0.0
        for rid, _query, due, stamp, response in traced:
            block = response["trace"]
            for name, entry in block.get("phases", {}).items():
                phase_ms[name] = phase_ms.get(name, 0.0) + entry["ms"]
            unattributed.append(block["unattributed_ms"])
            exec_ms += block["exec_ms"]
            self._record_spans(tracer, rid, due, stamp, block)
        before, after = (self._cache_totals(stats) for stats in stats_window)
        tables = {name: (hits - before.get(name, (0, 0))[0], misses - before.get(name, (0, 0))[1])
                  for name, (hits, misses) in after.items()}
        # The backend keeps its last few thousand queue and exec samples, so
        # the stats taken right after phase A describe phase A's requests.
        backend = stats_window[1]["router"]["backend_servers"][f"{HOST}:{self.backend_port}"]
        direct_wire = [latency - response["trace"]["total_ms"]
                       for latency, response in hop["direct"]]
        layers.update({
            "server.queue_ms": backend["queue_ms"]["p50"],
            "server.exec_ms": backend["exec_ms"]["p50"],
            "server.unattributed_ms": measure.median(unattributed),
            "router.hop_ms": measure.median([l for l, _ in hop["router"]])
            - measure.median([l for l, _ in hop["direct"]]),
            "router.retries": router_stats["requests"]["retried"],
            "router.errors": sum(router_stats["requests"]["errors"].values()),
            "wire.ms": measure.median(direct_wire),
            "generator.lag_ms": measure.nearest_rank(sorted(lags), 99.0) * 1000.0,
            "trace.overhead_frac": measure.median(overhead["off"])
            / measure.median(overhead["on"]) - 1.0,
        })
        layers.update(cache_ratios(tables))
        served = {name: round(ms / exec_ms, 4) for name, ms in sorted(phase_ms.items())}
        served["unattributed"] = round(sum(unattributed) / exec_ms, 4)
        details = {"traced_requests": len(traced),
                   "backend_phase_share_of_exec_time": served,
                   "replay_layer_share_of_query_time": replay_shares}
        return layers, tracer, details

    def _replay_layers(self, traced):
        """Spans of the in-process layers for the traced requests.

        The backend is another process, so its layers cannot be wrapped from
        here.  The traced requests are replayed in this process, in the order
        they were sent, on one session per theory warmed with the working set
        as the backend was, through the same wrappers as the in-process
        workloads: every in-process layer metric then means the same on every
        workload.  Their answers were checked on the served path.
        """
        sessions = {name: EngineSession(build_theory(name)) for name in ("incnat", "bitvec")}
        for query in self.working:
            execute_query(sessions[query.record["theory"]], query.record)
        tracer = Tracer()
        install_core_layers(tracer)
        try:
            for rid, query in traced:
                tracer.request = rid
                span = tracer.begin("query")
                try:
                    execute_query(sessions[query.record["theory"]], query.record)
                finally:
                    tracer.end(span)
        finally:
            tracer.restore()
        return tracer

    @staticmethod
    def _record_spans(tracer, rid, due, stamp, block):
        """Spans of one traced request: the client-observed request (from when
        it was due), the backend's queue wait and execution, and the phases
        inside execution.  Durations are as reported; the child spans are laid
        end to end from the request's end, since the backend's clock is not
        the generator's."""
        tracer.request = rid
        request = tracer.begin("served.request")
        tracer.spans[request][1] = due
        cursor = stamp - block["total_ms"] / 1000.0
        for name, ms in (("queue", block["queue_ms"]), ("exec", block["exec_ms"])):
            index = tracer.begin("served." + name)
            tracer.spans[index][1] = cursor
            if name == "exec":
                inner = cursor
                for phase, entry in sorted(block.get("phases", {}).items()):
                    child = tracer.begin("served." + phase)
                    tracer.spans[child][1] = inner
                    inner += entry["ms"] / 1000.0
                    tracer.end(child)
                    tracer.spans[child][2] = inner
            cursor += ms / 1000.0
            tracer.end(index)
            tracer.spans[index][2] = cursor
        tracer.end(request)
        tracer.spans[request][2] = stamp

    @staticmethod
    def _cache_totals(stats):
        totals = {}
        for theory in ("incnat", "bitvec"):
            for name, table in stats.get(theory, {}).get("tables", {}).items():
                old = totals.get(name, (0, 0))
                totals[name] = (old[0] + table["hits"], old[1] + table["misses"])
        deriv = stats.get("shared", {}).get("tables", {}).get("deriv")
        if deriv:
            totals["deriv"] = (deriv["hits"], deriv["misses"])
        return totals

    # -- oracle ---------------------------------------------------------------------
    def _check(self):
        kmts = {"incnat": KMT(IncNatTheory()), "bitvec": KMT(BitVecTheory())}
        attempted = failed = 0
        correct = set()
        replayed = {}
        reasons = {}
        for rid, (query, phase, _due) in self.sent.items():
            attempted += 1
            entry = self.responses.get(rid)
            if entry is None:
                reason = "missing"
            else:
                reason = self._judge(query, json.loads(entry[1]), kmts, replayed)
            if reason is None:
                correct.add(rid)
            else:
                failed += 1
                reasons[reason] = reasons.get(reason, 0) + 1
        notes = {"failures": reasons, "witnesses_replayed": len(replayed),
                 "witnesses_ok": sum(replayed.values())}
        return {"attempted": attempted, "failed": failed, "correct": correct, "notes": notes}

    def _judge(self, query, response, kmts, replayed):
        if not response.get("ok"):
            return response.get("error_code", "error")
        result = response["result"]
        family = query.family
        if family == "dead_code":
            verdict = [statement["dead"] for statement in result["statements"]]
        elif family == "member":
            verdict = result["member"]
        elif family.startswith("sat"):
            verdict = result["satisfiable"]
        elif family == "inclusion":
            verdict = result["includes"]
        elif family == "verify":
            verdict = result["holds"]
        else:
            verdict = result["equivalent"]
        if verdict != query.expected:
            return "wrong"
        if verdict is False and family not in ("member", "sat-nat", "sat-bool"):
            key = (query.key, result.get("counterexample"))
            if key not in replayed:
                replayed[key] = self._replay(query, result, kmts[query.record["theory"]])
            if not replayed[key]:
                return "witness"
        return None

    @staticmethod
    def _replay(query, result, kmt):
        """Replay a negative answer's witness on the Fig. 5 semantics."""
        record = query.record
        cell, word = oracle.parse_witness(kmt, result["counterexample"])
        if query.family == "verify":
            if oracle.parse_word(kmt, result["witness_trace"]) != word:
                return False
            program = while_lang.parse_program(record["program"], kmt.theory).compile()
            encoding = T.tseq(T.ttest(kmt.parse_pred(record["pre"])),
                              T.tseq(program, T.ttest(T.pnot(kmt.parse_pred(record["post"])))))
            return oracle.replay(kmt.theory, cell, word, encoding, T.tzero(), "incl")
        left, right = kmt.parse(record["left"]), kmt.parse(record["right"])
        if query.family == "inclusion":
            if oracle.parse_word(kmt, result["witness_word"]) != word:
                return False
            return oracle.replay(kmt.theory, cell, word, left, right, "incl")
        return oracle.replay(kmt.theory, cell, word, left, right, "equiv")

    def close(self):
        for conn in self.conns:
            conn.close()
        self.conns = []
        for proc in reversed(self.procs):
            _stop(proc)
        self.procs = []
        os.sched_setaffinity(0, self.affinity)
