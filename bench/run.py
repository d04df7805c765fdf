"""Outside-in benchmark of the ``repro`` CLI.

Run it from the root of a checkout::

    python3 bench/run.py --workload cold --seed 0 --seconds 12 --trace 0

Every measured operation launches the real CLI (``python -m repro ...``)
in fresh processes. Each one gets its own temporary directory under
``.bench_tmp/`` in the checkout as its working directory, disk cache
(``REPRO_CACHE_DIR``) and ``TMPDIR``; every other ``REPRO_*`` variable
is removed from its environment. Every figure the program prints, or
the server returns, is checked against the SHA-256 digests in
``bench/reference.json``.

Workloads (see ``bench/README.md`` for why each exists):

``cold``   ``repro figures table1 table2 fig4 fig9`` on an empty cache,
           serial, one process after another.
``warm``   the same campaign on a cache one cold run filled, each
           process with its own checkpoint journal.
``pool``   the cold campaign with ``--jobs 2``.
``queue``  the cold campaign with ``--distributed`` and two
           ``repro work`` peers.
``serve``  ``repro serve`` answering two closed-loop clients after one
           cold query per figure, in whole blocks of eight requests.

The seed picks the figure order each campaign starts from, and the
re-asks and tables of the serve schedule and where they go; it never
changes how much work a run does.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones). ``--trace 1`` also runs the
program under ``bench/driver.py`` and prints a waterfall per traced
process. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402  (bench-local module)

WORKLOADS = ("cold", "warm", "pool", "queue", "serve")
TABLES = ("table1", "table2")
#: The campaign set: a CPython breakdown (guest, encode, analysis
#: re-simulation) and a V8 CPI sweep (memory side, OOO core); 12 cells.
FIGURES = ("fig4", "fig9")
#: Figures the serve workload asks for: all three run-times.
SERVE_FIGURES = ("fig4", "fig5", "fig6", "fig8", "fig9")
ORDERS = list(itertools.permutations(FIGURES))
#: Set-up measurements per run; the median is reported.
SETUP_REPEATS = 7
#: A process that takes longer than this is killed and counted failed.
PROCESS_TIMEOUT = 150.0
HEADER = re.compile(r"^== (\S+): .* ==$")
SUMMARY_TITLE = "figure campaign summary"


def figure_blocks(text: str) -> dict[str, str]:
    """Figure id -> the text from its ``== id: title ==`` line through
    its rendered output, exactly as ``str(FigureResult)`` gives it."""
    blocks: dict[str, str] = {}
    current, lines = None, []
    for line in text.split("\n"):
        match = HEADER.match(line)
        if match or line == SUMMARY_TITLE:
            if current is not None:
                blocks[current] = "\n".join(lines)
            current, lines = (match.group(1), [line]) if match \
                else (None, [])
        elif current is not None:
            lines.append(line)
    if current is not None:
        blocks[current] = "\n".join(lines)
    return blocks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values, scale: float = 1.0) -> float | None:
    """``scale`` times the median, or None when there are no values
    (every operation that would have given one failed)."""
    values = list(values)
    return scale * statistics.median(values) if values else None


def excess(traced: float | None, plain: float | None) -> float | None:
    """How much longer the traced operations took, as a share."""
    return traced / plain - 1 if traced and plain else None


def dir_mb(path: Path) -> float:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(folder, name)).st_size
            except FileNotFoundError:
                pass
    return total / 1e6


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def check_figure(self, figure: str, text: str | None) -> None:
        if text is None:
            self.check(False, f"{figure}: missing")
        else:
            self.check(digest(text) == self.reference.get(figure),
                       f"{figure}: bytes differ from the reference")


class Processes:
    """Every process the benchmark starts: spawn, reap with rusage, and
    stop whatever is still running when the run ends."""

    def __init__(self, root: Path, span_dir: Path | None) -> None:
        self.root = root
        self.span_dir = span_dir
        self.live: dict[int, subprocess.Popen] = {}

    def env(self, cache: Path, tmp: Path, traced: bool) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k != "BENCH_SPAN_DIR"}
        tmp.mkdir(parents=True, exist_ok=True)
        env.update(PYTHONPATH=str(self.root / "src"),
                   REPRO_CACHE_DIR=str(cache), TMPDIR=str(tmp))
        if traced:
            env["BENCH_SPAN_DIR"] = str(self.span_dir)
        return env

    def spawn(self, args: list[str], cwd: Path, cache: Path,
              traced: bool, stdout=None) -> subprocess.Popen:
        cwd.mkdir(parents=True, exist_ok=True)
        head = [sys.executable, str(BENCH / "driver.py")] if traced \
            else [sys.executable, "-m", "repro"]
        out = stdout if stdout is not None \
            else open(cwd / "stdout.txt", "w", encoding="utf-8")
        with open(cwd / "stderr.txt", "a", encoding="utf-8") as err:
            proc = subprocess.Popen(
                head + args, cwd=cwd, stdout=out, stderr=err,
                env=self.env(cache, cwd / "tmp", traced),
                text=stdout is not None)
        if stdout is None:
            out.close()
        self.live[proc.pid] = proc
        return proc

    def wait(self, proc: subprocess.Popen,
             timeout: float = PROCESS_TIMEOUT) -> tuple[int, float, float]:
        """Reap ``proc``: exit code, CPU seconds and peak RSS in MB. The
        CPU time adds, and the peak RSS covers, the children it reaped."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(proc.pid, None)
        return (proc.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)

    def stop_all(self) -> None:
        for proc in list(self.live.values()):
            proc.kill()
        for proc in list(self.live.values()):
            self.wait(proc, timeout=30.0)


def closed_loop(op, seconds: float, group: int) -> None:
    """Call ``op(i)`` back to back for about ``seconds``, in whole groups
    of ``group`` operations: start another group while the last one
    would still fit, and always run at least one."""
    start = time.monotonic()
    last = 0.0
    i = 0
    while i == 0 or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for _ in range(group):
            op(i)
            i += 1
        last = time.monotonic() - t0


# ----------------------------------------------------------------------
# Campaign workloads: cold, warm, pool, queue
# ----------------------------------------------------------------------

class Campaign:
    """One campaign workload: repeated ``repro figures`` processes."""

    def __init__(self, name: str, procs: Processes, tmp: Path,
                 tally: Tally, seed: int) -> None:
        self.name = name
        self.procs = procs
        self.tmp = tmp
        self.tally = tally
        self.seed = seed
        self.ops: list[dict] = []
        self.op_index = 0

    def setup_once(self) -> float:
        """Wall of ``repro figures table1 table2`` on an empty cache."""
        op_dir = self.tmp / f"setup{self.op_index}"
        self.op_index += 1
        start = time.perf_counter()
        proc = self.procs.spawn(["figures", *TABLES], op_dir,
                                op_dir / "cache", traced=False)
        rc, _, _ = self.procs.wait(proc)
        wall = time.perf_counter() - start
        self._check_output(op_dir, TABLES, rc)
        shutil.rmtree(op_dir, ignore_errors=True)
        return wall

    def _check_output(self, op_dir: Path, names, rc: int) -> None:
        blocks = figure_blocks(
            (op_dir / "stdout.txt").read_text(encoding="utf-8"))
        for name in names:
            self.tally.check_figure(name, blocks.get(name) if rc == 0
                                    else None)

    def run_op(self, traced: bool, shared: Path | None = None) -> None:
        """One campaign; ``shared`` is the filled cache of ``warm``."""
        op_dir = self.tmp / f"op{self.op_index}"
        # Successive operations (traced and untraced ones apart) rotate
        # through every figure order.
        done = sum(1 for op in self.ops if op["traced"] == traced)
        order = ORDERS[(self.seed + done) % len(ORDERS)]
        self.op_index += 1
        names = [*TABLES, *order]
        cache = shared or op_dir / "cache"
        args = ["figures", *names, "--jobs",
                "2" if self.name == "pool" else "1"]
        journal = cache / "figures.journal"
        if shared is not None:
            # Its own checkpoint, or the campaign would skip every
            # figure the fill already journaled.
            journal = op_dir / "figures.journal"
            args += ["--checkpoint", str(journal)]
        if self.name == "queue":
            args += ["--distributed", "--grace-seconds", "60"]
        start = time.perf_counter()
        proc = self.procs.spawn(args, op_dir, cache, traced)
        peers = []
        if self.name == "queue":
            peers = [self.procs.spawn(["work", "--idle-exit", "2"],
                                      op_dir / f"peer{k}", cache, traced)
                     for k in range(2)]
        rc, cpu, rss = self.procs.wait(proc)
        latency = time.perf_counter() - start
        for peer in peers:
            peer_rc, peer_cpu, peer_rss = self.procs.wait(peer)
            cpu += peer_cpu
            # Peers run side by side, so their memory adds up. Which peer
            # claims which cell is a race; the sum does not depend on it.
            rss += peer_rss
            self.tally.check(peer_rc == 0, f"queue peer exited {peer_rc}")
        self._check_output(op_dir, names, rc)
        figure_s = {}
        if journal.exists():
            for line in journal.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                figure_s[record["figure"]] = record["wall_seconds"]
        self.ops.append({"latency_s": latency, "cpu_s": cpu, "rss_mb": rss,
                         "traced": traced, "cache_mb": dir_mb(cache),
                         "figure_s": figure_s})
        shutil.rmtree(op_dir, ignore_errors=True)

    def run(self, seconds: float, traced: bool) -> dict:
        setup = [self.setup_once() for _ in range(SETUP_REPEATS)]
        shared = None
        if self.name == "warm":
            shared = self.tmp / "shared"
            op_dir = self.tmp / "fill"
            names = [*TABLES, *FIGURES]
            proc = self.procs.spawn(["figures", *names], op_dir, shared,
                                    traced=False)
            rc, _, _ = self.procs.wait(proc)
            self._check_output(op_dir, names, rc)
        # Whole rotations of the figure orders: each order runs equally
        # often, so a median does not depend on the order a run stopped
        # at (the orders peak at different RSS). A traced run alternates
        # untraced and traced operations, so it measures the tracing
        # overhead against itself.
        closed_loop(lambda i: self.run_op(traced and i % 2 == 1, shared),
                    seconds, group=len(ORDERS) * (2 if traced else 1))
        return self.summarize(setup, traced)

    def summarize(self, setup: list[float], traced: bool) -> dict:
        plain = [op for op in self.ops if not op["traced"]]
        latency = median((op["latency_s"] for op in plain), 1000)
        metrics = {
            "setup_s": (median(setup), "s"),
            "latency_ms": (latency, "ms"),
            "peak_rss_mb": (median(op["rss_mb"] for op in plain), "MB"),
            "cache_mb": (median(op["cache_mb"] for op in plain), "MB"),
        }
        extra = {"operations": (len(plain), "count"),
                 "cpu_ms": (median((op["cpu_s"] for op in plain), 1000),
                            "ms")}
        layer = {f"figure.{fig}_s": (median(
            op["figure_s"][fig] for op in plain if fig in op["figure_s"]),
            "s") for fig in FIGURES}
        if traced:
            layer["trace_overhead_share"] = (excess(median(
                (op["latency_s"] for op in self.ops if op["traced"]), 1000),
                latency), "ratio")
        return {"e2e": metrics, "extra": extra, "layer": layer,
                "window": None}


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------

def ask(port: int, message: dict, timeout: float = PROCESS_TIMEOUT) -> dict:
    """One request to ``repro serve`` (one JSON object per line)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as conn:
        conn.sendall((json.dumps(message) + "\n").encode("utf-8"))
        buffer = b""
        while b"\n" not in buffer:
            chunk = conn.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
    return json.loads(buffer.split(b"\n", 1)[0])


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def block_latency(samples: list[dict]) -> float | None:
    """Median over request blocks of the block's mean fresh-query latency,
    in milliseconds.

    In a closed loop of two clients a query waits for the other client's
    request, so one latency is the sum of two service times whose pairing
    changes from run to run. The mean over a block, which asks every
    figure once, does not depend on the pairing; the median over blocks
    does not depend on a short slow spell of the host.
    """
    blocks: dict[int, list[float]] = {}
    for s in samples:
        if s["kind"] == "fresh" and s["response"].get("ok"):
            blocks.setdefault(s["block"], []).append(s["latency_s"])
    return median((statistics.fmean(v) for v in blocks.values()), 1000)


class Serve:
    """The serve workload: set-up, a cold pass, then a closed loop."""

    CLIENTS = 2
    #: Requests per schedule block (see :meth:`schedule`).
    BLOCK = len(SERVE_FIGURES) + 3

    def __init__(self, procs: Processes, tmp: Path, tally: Tally,
                 seed: int) -> None:
        self.procs = procs
        self.tmp = tmp
        self.tally = tally
        self.rng = random.Random(seed)

    def start(self, cwd: Path, cache: Path,
              traced: bool) -> tuple[subprocess.Popen, int, float]:
        """Spawn a server; (process, port, seconds until ready)."""
        start = time.perf_counter()
        proc = self.procs.spawn(
            ["serve", "--tcp", "127.0.0.1:0", "--tenant-rate", "1000",
             "--tenant-burst", "1000"], cwd, cache, traced,
            stdout=subprocess.PIPE)
        guard = threading.Timer(60.0, proc.kill)
        guard.start()
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on tcp:[^ ]*:(\d+)", line)
            if match is None:
                raise RuntimeError(f"serve did not start: {line!r}")
            port = int(match.group(1))
            while not ask(port, {"type": "ready"}).get("ready"):
                time.sleep(0.005)
        finally:
            guard.cancel()
        return proc, port, time.perf_counter() - start

    def stop(self, proc: subprocess.Popen, port: int) -> float:
        """Drain the server, check it exits cleanly; its peak RSS in MB."""
        response = ask(port, {"type": "drain"})
        rc, _, rss = self.procs.wait(proc)
        proc.stdout.close()
        self.tally.check(bool(response.get("ok")) and rc == 0,
                         f"serve drain: {response}, exit {rc}")
        return rss

    def schedule(self, prefix: str):
        """Seeded request stream in blocks of :data:`BLOCK`: one fresh
        query per figure, two re-asks of answered keys and one table.

        The fresh queries keep the order of :data:`SERVE_FIGURES`: which
        traces the server's LRU holds, and so its peak RSS, follow that
        order. The seed picks the re-asked figures and the table, and
        where in the block they go.
        """
        n = 0
        while True:
            block = [("fresh", fig) for fig in SERVE_FIGURES]
            extra = [("reask", self.rng.choice(SERVE_FIGURES))
                     for _ in range(2)]
            extra.append(("table", self.rng.choice(TABLES)))
            for request in extra:
                block.insert(self.rng.randint(0, len(block)), request)
            for kind, figure in block:
                n += 1
                key = f"cold-{figure}" if kind == "reask" \
                    else f"{prefix}-{n}"
                yield kind, figure, key

    def query(self, port: int, figure: str, key: str,
              tenant: str) -> tuple[float, dict]:
        start = time.perf_counter()
        try:
            response = ask(port, {"type": "figure", "figure": figure,
                                  "quick": True, "tenant": tenant,
                                  "key": key})
        except (OSError, ValueError) as exc:
            response = {"ok": False, "error": repr(exc)}
        return time.perf_counter() - start, response

    def check(self, figure: str, response: dict) -> None:
        if not response.get("ok"):
            self.tally.check(False, f"{figure}: {response}")
        else:
            self.tally.check_figure(figure, response.get("rendered"))

    def loop(self, port: int, seconds: float,
             prefix: str) -> tuple[list[dict], float]:
        """Closed loop: each client sends its next request when the
        last one is answered, until ``seconds`` have passed and the
        last block is complete, so every figure is asked equally often."""
        stream = self.schedule(prefix)
        lock = threading.Lock()
        samples: list[dict] = []
        issued = [0]
        start = time.monotonic()

        def client(tenant: str) -> None:
            while True:
                with lock:
                    if time.monotonic() - start >= seconds \
                            and issued[0] % self.BLOCK == 0:
                        return
                    block = issued[0] // self.BLOCK
                    issued[0] += 1
                    kind, figure, key = next(stream)
                latency, response = self.query(port, figure, key, tenant)
                with lock:
                    samples.append({"kind": kind, "figure": figure,
                                    "block": block, "latency_s": latency,
                                    "response": response})

        threads = [threading.Thread(target=client, args=(f"t{k}",))
                   for k in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - start
        for sample in samples:
            self.check(sample["figure"], sample["response"])
        return samples, wall

    def run(self, seconds: float, traced: bool) -> dict:
        setup = []
        for i in range(SETUP_REPEATS):
            cwd = self.tmp / f"serve{i}"
            proc, port, wall = self.start(cwd, cwd / "cache", False)
            setup.append(wall)
            if i < SETUP_REPEATS - 1:
                self.stop(proc, port)
        cache = cwd / "cache"
        cold_start = time.perf_counter()
        for figure in SERVE_FIGURES:
            _, response = self.query(port, figure, f"cold-{figure}", "t0")
            self.check(figure, response)
        cold_pass = time.perf_counter() - cold_start
        # A traced run splits its time between this untraced server and
        # a traced one on the same cache, to measure the overhead.
        loop_seconds = seconds / 2 if traced else seconds
        cpu_before = process_cpu_s(proc.pid)
        samples, wall = self.loop(port, loop_seconds, "a")
        cpu = process_cpu_s(proc.pid) - cpu_before
        rss = self.stop(proc, port)
        window = traced_samples = None
        if traced:
            proc, port, _ = self.start(self.tmp / "traced", cache, True)
            lo = time.monotonic_ns()
            traced_samples, _ = self.loop(port, loop_seconds, "b")
            window = (lo, time.monotonic_ns())
            self.stop(proc, port)
        return self.summarize(setup, cold_pass, samples, wall, cpu, rss,
                              dir_mb(cache), window, traced_samples)

    def summarize(self, setup, cold_pass, samples, wall, cpu, rss_mb,
                  cache_mb, window, traced_samples) -> dict:
        def latencies(kind, of=samples):
            return [s["latency_s"] for s in of
                    if s["kind"] == kind and s["response"].get("ok")]

        fresh = latencies("fresh")
        latency = block_latency(samples)
        metrics = {
            "setup_s": (median(setup), "s"),
            "latency_ms": (latency, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "cache_mb": (cache_mb, "MB"),
        }
        extra = {
            "cpu_ms": (1000 * cpu / len(samples), "ms"),
            "figure_queries": (len(fresh), "count"),
            "query_p50_ms": (median(fresh, 1000), "ms"),
            "requests": (len(samples), "count"),
            "queries_per_s": (len(samples) / wall, "1/s"),
            "table_p50_ms": (median(latencies("table"), 1000), "ms"),
            "reask_p50_ms": (median(latencies("reask"), 1000), "ms"),
            "cold_pass_s": (cold_pass, "s"),
        }
        tail = spans.tail_percentile(fresh)
        if tail is not None:
            extra[f"query_p{tail[0]}_ms"] = (1000 * tail[1], "ms")
        layer = {f"figure.{fig}_s": (median(
            s["response"]["wall_seconds"] for s in samples
            if s["kind"] == "fresh" and s["figure"] == fig
            and s["response"].get("ok")), "s") for fig in FIGURES}
        if traced_samples is not None:
            layer["trace_overhead_share"] = (
                excess(block_latency(traced_samples), latency), "ratio")
        return {"e2e": metrics, "extra": extra, "layer": layer,
                "window": window}


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, reference: dict) -> bool:
    """Run one workload, print its report; True when every check passed."""
    tmp = root / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    span_dir = tmp / "spans"
    procs = Processes(root, span_dir)
    tally = Tally(reference)
    try:
        workload = Serve(procs, tmp, tally, seed) if name == "serve" \
            else Campaign(name, procs, tmp, tally, seed)
        try:
            result = workload.run(seconds, trace)
        except Exception as exc:  # noqa: BLE001  (any failure is reported)
            # The program broke the workload (a server that never came
            # up, a malformed answer): still print a result, marked failed.
            traceback.print_exc()
            tally.check(False, f"workload aborted: {exc!r}")
            result = {"e2e": {}, "extra": {}, "layer": {}, "window": None}
        waterfalls = []
        if trace:
            window = result["window"] or (None, None)
            waterfalls = [spans.process_waterfall(record, *window)
                          for record in spans.load_processes(span_dir)]
    finally:
        procs.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        print(spans.render_waterfall(
            waterfalls, f"waterfall: {name}, seed {seed} (self seconds "
                        "per layer, one block per traced process)"))
        metrics = spans.layer_metrics(waterfalls)
        metrics.update(result["layer"])
    else:
        metrics = dict(result["e2e"])
    # A metric whose every sample failed has no value; the failures
    # are counted in ``failed``.
    metrics = {key: m for key, m in metrics.items() if m[0] is not None}
    extra = {key: m for key, m in result["extra"].items()
             if m[0] is not None}
    for key, (value, unit) in {**extra, **metrics}.items():
        print(f"{name} {key} {value:.6g} {unit}")
    for note in tally.notes:
        print(f"{name} FAILED {note}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Outside-in benchmark of the repro CLI; run it from "
                    "the root of a checkout.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(f"bench: no src/repro under {root}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    reference = json.loads(
        (BENCH / "reference.json").read_text(encoding="utf-8"))["figures"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    passed = [run_workload(name, args.seed, args.seconds,
                           bool(args.trace), root, reference)
              for name in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
