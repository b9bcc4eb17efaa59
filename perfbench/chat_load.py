"""chat_short and chat_long: keep-alive clients against the chat server.

The server runs in its own process (``server_main.py``).  The load is a
closed loop: each of ``clients`` threads (at most ``nproc``) holds one
persistent ``http.client`` connection and sends its next request only
after the previous reply has been read in full.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import inputs
from common import fresh_dir, metric, python_child, stop_child
from spans import median, percentile

HOST = "127.0.0.1"
#: Server starts timed per run: set-up time is their median.  Half come
#: before the load (the last one or two of those carry it) and half after
#: it, so the median spans two moments of a machine whose speed drifts:
#: five back-to-back starts gave run medians from 0.38 to 0.64 s.
SETUP_SPAWNS = 10
#: ``POST .../turns`` reply of an execute or re-run turn.
RESULT_RE = re.compile(r"result (run-\d+): (\d+) x \w+ \[([0-9a-f]+)\]")
LOADED_RE = re.compile(r"Loaded dataset '([\w-]+)': (\d+) records")
#: Each client runs a fixed number of sessions, sized from ``--seconds``
#: by these rates (measured with one client on a 2-core box), so every
#: run does the same work: whole rounds of chat_short sessions, whole
#: chat_long sessions.
SHORT_SESSIONS_PER_SECOND = 2.4
LONG_SESSION_SECONDS = 12.0


def client_count() -> int:
    """One client thread.

    The server runs every turn under one interpreter lock, so two
    concurrent clients mostly wait for each other, and a turn's latency
    then depends on which heavy turns happen to coincide: over five seeds
    the quartile spread of turn_p95_ms was 0.30 with two clients and
    0.05 with one.
    """
    return 1


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------

class Server:
    """One ``server_main.py`` process with its own state directories."""

    def __init__(self, root: Path, workdir: Path, trace: bool):
        self.workdir = fresh_dir(workdir)
        self.report_path = workdir / "report.json"
        self.tenants = workdir / "tenants"
        self.stderr = open(workdir / "stderr.log", "w", encoding="utf-8")
        started = time.perf_counter()
        args = ["--root", str(self.tenants),
                "--data-dir", str(workdir / "data"),
                "--telemetry-root", str(workdir / "telemetry"),
                "--report", str(self.report_path)]
        if trace:
            args.append("--trace")
        self.proc = python_child("server_main.py", args, root,
                                 stderr=self.stderr)
        self.port = self._read_port(timeout=120.0)
        self._wait_healthy(timeout=120.0)
        self.setup_s = time.perf_counter() - started

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}; see "
                               f"{self.workdir / 'stderr.log'}")
        return int(line.split()[1])

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """Stop the process and return its exit report."""
        stop_child(self.proc)
        self.stderr.close()
        if self.report_path.is_file():
            with open(self.report_path, encoding="utf-8") as handle:
                return json.load(handle)
        return {}


# ----------------------------------------------------------------------
# The clients.
# ----------------------------------------------------------------------

class CountingConnection(http.client.HTTPConnection):
    """A keep-alive connection that counts how often it (re)connects."""

    def __init__(self, port: int, stats: "ClientStats"):
        super().__init__(HOST, port, timeout=120)
        self.stats = stats

    def connect(self) -> None:
        self.stats.connections += 1
        super().connect()


class ClientStats:
    """What one client thread sent, saw, and checked."""

    def __init__(self):
        self.connections = 0
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.failures: List[str] = []
        self.turns: List[Dict[str, Any]] = []
        self.sessions: List[float] = []
        self.reads: List[float] = []
        self.observed: Dict[str, Dict[str, Any]] = {}
        #: ``(request id, latency)`` of every answered request.
        self.requests: List[tuple] = []
        self.started = self.ended = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


class Client:
    def __init__(self, port: int, pins: Optional[Dict[str, Any]]):
        self.stats = ClientStats()
        self.conn = CountingConnection(port, self.stats)
        self.pins = pins

    def call(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        self.stats.sent += 1
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.stats.fail(f"{method} {path}: {type(exc).__name__}: {exc}")
            return None, None, None, time.perf_counter() - started
        latency = time.perf_counter() - started
        rid = response.getheader("X-Request-Id")
        self.stats.requests.append((rid, latency))
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return response.status, payload, rid, latency

    def expect(self, ok: bool, message: str) -> bool:
        if ok:
            self.stats.succeeded += 1
        else:
            self.stats.fail(message)
        return ok

    def run_session(self, session: Dict[str, Any]) -> None:
        tenant = session["tenant"]
        base = f"/tenants/{tenant}/sessions"
        # Open ``opens`` sessions (as a UI opening tabs); iterate in the
        # last one.
        for _ in range(session["opens"]):
            status, row, _, latency = self.call("POST", base, {})
            if not self.expect(status == 201 and row and "session_id" in row,
                               f"create session: {status} {row}"):
                return
            self.stats.sessions.append(latency)
        sid = row["session_id"]
        turns = session["turns"]
        for index, turn in enumerate(turns):
            status, row, rid, latency = self.call(
                "POST", f"{base}/{sid}/turns", {"message": turn["message"]})
            if status is None:
                return
            answered = (status == 200 and bool(row)
                        and row.get("status") == "ok")
            reply = (row.get("reply") or "") if answered else ""
            problem = (self.check_reply(turn, reply) if answered
                       else f"status {status} {str(row)[:200]}")
            self.stats.turns.append({
                "kind": turn["kind"], "latency": latency, "rid": rid,
                "index": index, "length": len(turns),
                "dataset": turn["dataset"], "reply": reply})
            self.expect(problem is None,
                        f"turn {turn['message']!r}: {problem}")
            if not answered:
                continue
            match = RESULT_RE.search(reply) if turn["pin"] else None
            if match:
                self.read_result(tenant, match.group(1), turn["pin"])
            if turn["kind"] == "execute":
                self.read(f"{base}/{sid}/turns/{row['turn_id']}/events"
                          "?offset=0",
                          lambda p: None if "events" in p else "no events")
            every = session["detail_every"]
            if every and (index + 1) % every == 0:
                self.read(f"{base}/{sid}",
                          lambda p, n=index + 1: None
                          if len(p["turn_log"]) == n
                          else f"{len(p['turn_log'])} turns logged, not {n}")

    def check_reply(self, turn: Dict[str, Any], reply: str) -> Optional[str]:
        kind = turn["kind"]
        if kind == "load":
            match = LOADED_RE.search(reply)
            want = inputs.DEMO_DOCS[turn["dataset"]]
            if not match or int(match.group(2)) != want:
                return f"expected {want} records loaded: {reply[:120]!r}"
        if turn["pin"]:
            match = RESULT_RE.search(reply)
            if not match:
                return f"no result handle in reply {reply[:160]!r}"
            got = {"count": int(match.group(2)),
                   "fingerprint": match.group(3)}
            return self.check_pin(turn["pin"], got)
        return None

    def check_pin(self, key: str, got: Dict[str, Any]) -> Optional[str]:
        seen = self.stats.observed.setdefault(key, got)
        if seen != got:
            return f"{key}: {got} differs from earlier {seen}"
        if self.pins is None:
            return None
        want = self.pins.get(key)
        if want != got:
            return f"{key}: got {got}, pinned {want}"
        return None

    def read_result(self, tenant: str, run_id: str, key: str) -> None:
        def check(payload):
            result = payload["result"]
            got = {"count": result["count"],
                   "fingerprint": result["fingerprint"]}
            if len(payload["records"]) != min(5, got["count"]):
                return f"page of {len(payload['records'])} records"
            return self.check_pin(key, got)

        self.read(f"/tenants/{tenant}/results/{run_id}?offset=0&limit=5",
                  check)

    def read(self, path: str, check) -> None:
        """GET ``path``; ``check(payload)`` returns a problem or None."""
        status, payload, _, latency = self.call("GET", path)
        if status is None:
            return
        if status != 200:
            self.stats.fail(f"GET {path}: {status} {str(payload)[:300]}")
            return
        self.stats.reads.append(latency)
        try:
            problem = check(payload)
        except (KeyError, TypeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        self.expect(problem is None, f"GET {path}: {problem}")

    def close(self) -> None:
        self.conn.close()


def drive(port: int, streams: List[Iterator[Dict[str, Any]]],
          pins: Optional[Dict[str, Any]],
          sessions_each: Optional[int] = None) -> List[ClientStats]:
    """Run one closed-loop client per stream: ``sessions_each`` sessions
    each, or until a stream ends."""
    clients = [Client(port, pins) for _ in streams]

    def loop(client: Client, stream) -> None:
        client.stats.started = time.perf_counter()
        try:
            for number, session in enumerate(stream):
                if sessions_each is not None and number >= sessions_each:
                    break
                client.run_session(session)
        except Exception as exc:  # a client bug must not hang the run
            client.stats.fail(f"client crashed: {type(exc).__name__}: {exc}")
        finally:
            client.close()
            client.stats.ended = time.perf_counter()

    threads = [threading.Thread(target=loop, args=(client, stream))
               for client, stream in zip(clients, streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [client.stats for client in clients]


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------

def _streams(workload: str, seed: int, n: int):
    make = (inputs.chat_short_sessions if workload == "chat_short"
            else inputs.chat_long_sessions)
    return [make(seed, client) for client in range(n)]


def _phase(workload: str, seed: int, port: int, seconds: float, pins,
           share: float = 1.0) -> Dict[str, Any]:
    """Drive the workload's fixed work; ``share`` < 1 runs that share of
    it (the untraced reference phase of a traced run)."""
    n = client_count()
    streams = _streams(workload, seed, n)
    if workload == "chat_short":
        rounds = max(1, round(seconds * share * SHORT_SESSIONS_PER_SECOND
                              / len(inputs.SHORT_COMBOS)))
        each = rounds * len(inputs.SHORT_COMBOS)
    else:
        each = max(1, int(seconds / LONG_SESSION_SECONDS))
        if share < 1:
            streams = [({**s, "turns": s["turns"][:int(len(s["turns"])
                                                      * share)]}
                        for s in stream) for stream in streams]
    started = time.perf_counter()
    stats = drive(port, streams, pins, sessions_each=each)
    ended = max(s.ended for s in stats)
    return {"stats": stats, "seconds": ended - started, "clients": n}


def _merged(stats: List[ClientStats], attr: str) -> list:
    return [item for s in stats for item in getattr(s, attr)]


def end_to_end(phase: Dict[str, Any]) -> Dict[str, Any]:
    stats = phase["stats"]
    turns = _merged(stats, "turns")
    latencies = [t["latency"] for t in turns]
    executes = [t for t in turns if t["kind"] == "execute"]
    reruns = [t["latency"] for t in turns if t["kind"] == "rerun"]
    if not (latencies and executes and reruns):
        raise RuntimeError("the run completed no turns to measure")
    return {
        "turn_p50_ms": metric(median(latencies) * 1e3, "ms"),
        "turn_p95_ms": metric(percentile(latencies, 95) * 1e3, "ms"),
        "turns_per_s": metric(len(latencies) / phase["seconds"], "1/s"),
        "session_p50_ms": metric(
            median(_merged(stats, "sessions")) * 1e3, "ms"),
        "read_p50_ms": metric(median(_merged(stats, "reads")) * 1e3, "ms"),
        # Execute and re-run turns mix datasets and policies whose costs
        # differ several-fold, so a median would jump between clusters;
        # totals over the run's fixed set of such turns move smoothly.
        "docs_per_s": metric(
            sum(inputs.DEMO_DOCS[t["dataset"]] for t in executes)
            / sum(t["latency"] for t in executes), "1/s"),
        "rerun_s": metric(sum(reruns) / len(reruns), "s"),
    }


def counts(phases: List[Dict[str, Any]]) -> Dict[str, int]:
    stats = [s for phase in phases for s in phase["stats"]]
    return {
        "sent": sum(s.sent for s in stats),
        "succeeded": sum(s.succeeded for s in stats),
        "failed": sum(s.failed for s in stats),
        "connections": sum(s.connections for s in stats),
        "clients": sum(phase["clients"] for phase in phases),
    }


def _setup_only(root: Path, work: Path, numbers: range,
                setups: List[float]) -> None:
    """Start and stop a server per number, timing its set-up."""
    for number in numbers:
        server = Server(root, work / f"server{number}", False)
        setups.append(server.setup_s)
        server.stop()


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, work: Path, pins) -> Dict[str, Any]:
    """Set up, load, check; returns the result parts for ``run.py``."""
    setups: List[float] = []
    servers: List[Server] = []
    before = SETUP_SPAWNS // 2
    after = range(before, SETUP_SPAWNS)
    try:
        # The last (untraced) or the last two (traced: one plain, one
        # probed) of the servers started before the load carry it.
        for number in range(before):
            traced = trace and number == before - 1
            server = Server(root, work / f"server{number}", traced)
            setups.append(server.setup_s)
            servers.append(server)
            keep = 2 if trace else 1
            if number < before - keep:
                servers.pop().stop()
        if not trace:
            phase = _phase(workload, seed, servers[-1].port, seconds, pins)
            report = servers.pop().stop()
            _setup_only(root, work, after, setups)
            return {
                "phases": [phase], "setups": setups,
                "metrics": {
                    **end_to_end(phase),
                    "setup_s": metric(median(setups), "s"),
                    "peak_rss_mb": metric(report["peak_rss_kb"] / 1024,
                                          "MiB"),
                },
            }
        plain, probed = servers
        base = _phase(workload, seed, plain.port, seconds, pins, share=1 / 3)
        servers.remove(plain)
        plain.stop()
        traced_phase = _phase(workload, seed, probed.port, seconds, pins)
        tenants = probed.tenants
        servers.remove(probed)
        report = probed.stop()
        _setup_only(root, work, after, setups)
        import layers

        metrics = layers.chat(
            workload, report, base, traced_phase, tenants)
        return {"phases": [base, traced_phase], "setups": setups,
                "metrics": metrics}
    finally:
        for server in servers:
            server.stop()
