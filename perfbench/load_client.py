"""The serve-live load generator: one client process, at most two threads.

It runs in its own interpreter (``child.py load-client``), so the
server under test does not share its interpreter lock with the client;
the parent sends one command per phase over the child's stdin and
receives the counts, latencies and sampled answers on its stdout.  Round trips of a traced
run carry a ``rid`` query parameter that the server-side spans link to.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import select
import threading
import time
from urllib.parse import quote

from benchlib import receive, send

FAILED = float("inf")  # a failed request misses every latency limit
#: Request ids of the client's round trips start here, far above the
#: ids the server process's tracer hands out.
RID_BASE = 1 << 40


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """Status and body; status 0 for a connection error."""
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            return 0, b""

    def close(self) -> None:
        self.connection.close()


class LoadGenerator:
    """Phase runners; every request outcome and sample stays in this process."""

    def __init__(self, port: int, population: list[str], exponent: float) -> None:
        from repro.serve.loadgen import ZipfSampler

        self.port = port
        self.sampler = ZipfSampler(population, exponent=exponent)
        self.traced = False
        self.rids = itertools.count(RID_BASE)  # next() is atomic under the GIL
        self.roundtrips: list[tuple[int, int, int, str]] = []  # rid, start, end, kind

    def site(self, client: Client, host: str, samples: list | None) -> bool:
        path = f"/site?host={quote(host)}"
        if self.traced:
            rid = next(self.rids)
            start = time.perf_counter_ns()
            status, body = client.request("GET", f"{path}&rid={rid}")
            self.roundtrips.append((rid, start, time.perf_counter_ns(), "site"))
        else:
            status, body = client.request("GET", path)
        if status != 200:
            return False
        if samples is not None:
            samples.append((host, json.loads(body)))
        return True

    def batch(self, client: Client, hosts: list[str], version: int | None, samples: list | None) -> bool:
        payload: dict = {"hostnames": hosts}
        if version is not None:
            payload["version"] = version
        body = json.dumps(payload).encode()
        if self.traced:
            rid = next(self.rids)
            start = time.perf_counter_ns()
            status, raw = client.request("POST", f"/batch?rid={rid}", body)
            self.roundtrips.append((rid, start, time.perf_counter_ns(), "batch"))
        else:
            status, raw = client.request("POST", "/batch", body)
        if status != 200:
            return False
        if samples is not None:
            samples.append((hosts, version, json.loads(raw)))
        return True

    # -- phases -------------------------------------------------------------------

    def open_loop(self, duration: float, rate: float, seed: int, sample_every: int) -> dict:
        """Fixed offered rate on two connections; latency from each due time."""
        rng = random.Random(seed)
        total = max(1, int(rate * duration))
        hosts = [self.sampler.sample(rng) for _ in range(total)]
        latencies: list[list[float]] = [[], []]
        lateness: list[list[float]] = [[], []]
        samples: list = []
        clients = [Client(self.port), Client(self.port)]
        begin = time.perf_counter() + 0.05

        def drive(slot: int) -> None:
            client = clients[slot]
            for k in range(slot, total, 2):
                due = begin + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                ok = self.site(client, hosts[k], samples if k % sample_every == 0 else None)
                lateness[slot].append(sent - due)
                latencies[slot].append((time.perf_counter() - due) if ok else FAILED)

        _run([threading.Thread(target=drive, args=(slot,)) for slot in (0, 1)])
        for client in clients:
            client.close()
        merged = latencies[0] + latencies[1]
        return {
            "latencies": merged,
            "lateness": lateness[0] + lateness[1],
            "failed": sum(1 for value in merged if value == FAILED),
            "samples": samples,
        }

    def closed_loop(self, duration: float, seed: int, sample_every: int) -> dict:
        """Two keep-alive connections, each sending as soon as it is answered."""
        counts = [[0, 0], [0, 0]]  # [ok, failed] per connection
        samples: list = []
        clients = [Client(self.port), Client(self.port)]
        rngs = [random.Random(seed * 2 + slot) for slot in (0, 1)]
        stop_at = time.perf_counter() + duration

        def drive(slot: int) -> None:
            client, rng, tally = clients[slot], rngs[slot], counts[slot]
            sample = self.sampler.sample
            n = 0
            while time.perf_counter() < stop_at:
                keep = samples if n % sample_every == 0 else None
                tally[0 if self.site(client, sample(rng), keep) else 1] += 1
                n += 1

        started = time.perf_counter()
        _run([threading.Thread(target=drive, args=(slot,)) for slot in (0, 1)])
        elapsed = time.perf_counter() - started
        for client in clients:
            client.close()
        return {
            "ok": counts[0][0] + counts[1][0],
            "failed": counts[0][1] + counts[1][1],
            "elapsed": elapsed,
            "samples": samples,
        }

    def batch_loop(self, commands, seed: int, size: int, historical: int, sample_every: int) -> dict:
        """/batch on one connection until the parent sends ``stop``; every other batch pinned."""
        rng = random.Random(seed)
        client = Client(self.port)
        samples: list = []
        answered = ok = failed = 0
        sample = self.sampler.sample
        n = 0
        started = time.perf_counter()
        while not select.select([commands], [], [], 0)[0]:
            hosts = [sample(rng) for _ in range(size)]
            version = rng.randrange(historical) if n % 2 else None
            keep = samples if n % sample_every == 0 else None
            if self.batch(client, hosts, version, keep):
                answered += len(hosts)
                ok += 1
            else:
                failed += 1
            n += 1
        elapsed = time.perf_counter() - started
        client.close()
        receive(commands)  # the stop command
        return {"hosts": answered, "ok": ok, "failed": failed, "elapsed": elapsed, "samples": samples}


def _run(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def serve_commands(commands, results, port: int, population: list[str], exponent: float) -> None:
    """Run each phase the parent asks for and reply with its result.

    ``"trace"`` switches on round-trip recording; ``"batch"`` runs until
    the parent sends ``"stop"``; ``"quit"`` replies with every recorded
    round trip and returns.
    """
    generator = LoadGenerator(port, population, exponent)
    while True:
        command, kwargs = receive(commands)
        if command == "quit":
            send(results, {"roundtrips": generator.roundtrips})
            return
        if command == "trace":
            generator.traced = True
            send(results, None)
        elif command == "open":
            send(results, generator.open_loop(**kwargs))
        elif command == "closed":
            send(results, generator.closed_loop(**kwargs))
        else:
            send(results, generator.batch_loop(commands, **kwargs))
