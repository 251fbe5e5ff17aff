"""Socket-backed remote execution: the multi-node fragment backend.

The paper runs LS3DF across thousands of cores by giving every fragment
group its own set of MPI ranks; the driver scatters picklable work units
and gathers results.  This module is the repo's network equivalent: a
tiny length-prefixed-frame protocol over TCP, a ``repro-worker`` daemon
(:class:`WorkerServer` / :func:`worker_main`) that executes the exact
same kernels as the local backends, and a driver-side
:class:`RemoteExecutor` pool implementing the full executor protocol
family — ``run`` / ``run_pipeline`` / ``run_global`` / ``run_bands``
plus the ``install_state`` broadcast channel with fingerprint-keyed
per-worker dedup.  Because workers invoke the same pure kernels on the
same task bytes, remote results are bit-identical to the serial
backend's.

Wire protocol (version 1)
-------------------------
Every message is one *frame*: a 4-byte magic ``b"RPW1"``, an 8-byte
big-endian unsigned payload length, then a pickled python object.  The
driver opens one connection per worker and speaks a strict
request/response alternation; requests are dicts with an ``op`` field:

``hello``
    Handshake; the worker answers with its pid and protocol version (a
    version mismatch is a loud :class:`RemoteProtocolError`).
``ping``
    Heartbeat; answered immediately (used to detect dead workers).
``install``
    ``{key, payload}`` — install a fingerprint-keyed potential in the
    worker's process-level store
    (:func:`repro.core.fragment_task.install_potential`).  The driver
    tracks which keys each worker holds and never re-sends one — the
    install-dedup saving measured in ``benchmarks``.
``task``
    ``{kind, task}`` where ``kind`` selects the kernel (``solve`` /
    ``pipeline`` / ``global`` / ``bands``).  The worker answers
    ``{ok: True, result}`` or ``{ok: False, error_type, error, key}``
    (``key`` set for a missed potential install, which the driver heals
    by resubmitting with the payload attached).
``shutdown``
    Stop the worker after replying.

Failure model (the degradation ladder)
--------------------------------------
Every socket wait is bounded by a configurable timeout, so no failure
mode can hang the driver.  A worker that times out, drops the
connection or dies mid-task is marked dead and its in-flight task is
resubmitted to the surviving workers (results are bit-identical because
the kernels are pure).  When *every* worker is gone the executor
degrades gracefully to a local fallback executor — or raises the typed
:class:`NoRemoteWorkersError` when constructed with ``fallback=None``.
A genuine kernel exception on a worker is *not* retried: it is raised
as a :class:`RemoteTaskError` (the task would fail anywhere).

Security: frames are pickles — run workers only on hosts and networks
you trust, exactly like ``multiprocessing`` or MPI.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import struct
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.fragment_task import (
    ExecutionReport,
    PotentialNotInstalledError,
    install_potential,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.bands import run_band_block_task
from repro.parallel.distributed import run_global_step_task
from repro.parallel.scheduler import FragmentScheduler

__all__ = [
    "PROTOCOL_VERSION",
    "LocalWorkerPool",
    "NoRemoteWorkersError",
    "RemoteExecutor",
    "RemoteExecutorConfig",
    "RemoteProtocolError",
    "RemoteTaskError",
    "WorkerDiedError",
    "WorkerServer",
    "recv_frame",
    "send_frame",
    "start_worker_thread",
    "worker_main",
]

PROTOCOL_VERSION = 1

_MAGIC = b"RPW1"
_HEADER = struct.Struct(">4sQ")
_DEFAULT_MAX_FRAME = 1 << 30


class RemoteProtocolError(RuntimeError):
    """The byte stream violated the framing or handshake protocol."""


class WorkerDiedError(RuntimeError):
    """A remote worker dropped its connection or timed out mid-task."""


class NoRemoteWorkersError(RuntimeError):
    """No remote worker is reachable and no local fallback was allowed."""


class RemoteTaskError(RuntimeError):
    """A task raised inside a remote worker (not a transport failure).

    Deterministic kernel errors are *not* resubmitted — the task would
    fail identically on any worker — so they surface loudly here, with
    the worker-side exception type and message attached.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"remote task failed with {error_type}: {message}")
        self.error_type = error_type


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, obj, max_bytes: int = _DEFAULT_MAX_FRAME) -> int:
    """Pickle ``obj`` and send it as one length-prefixed frame.

    Parameters
    ----------
    sock:
        A connected stream socket.
    obj:
        Any picklable object.
    max_bytes:
        Refuse to send payloads larger than this (a guard against
        runaway task payloads, mirrored on the receive side).

    Returns
    -------
    int
        Bytes written, header included.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_bytes:
        raise RemoteProtocolError(
            f"frame of {len(payload)} bytes exceeds the {max_bytes}-byte limit"
        )
    data = _HEADER.pack(_MAGIC, len(payload)) + payload
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_bytes: int = _DEFAULT_MAX_FRAME):
    """Receive one frame and unpickle it.

    Returns
    -------
    tuple
        ``(obj, nbytes)`` — the decoded object and the total bytes read.

    Raises
    ------
    RemoteProtocolError
        Wrong magic or an over-limit length (stream corruption).
    ConnectionError
        The peer closed the connection mid-frame.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise RemoteProtocolError(f"bad frame magic {magic!r}")
    if length > max_bytes:
        raise RemoteProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = _recv_exact(sock, int(length))
    return pickle.loads(payload), _HEADER.size + int(length)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_KERNELS = {
    "solve": solve_fragment_task,
    "pipeline": run_fragment_pipeline_task,
    "global": run_global_step_task,
    "bands": run_band_block_task,
}


class WorkerServer:
    """A ``repro-worker``: serves executor task frames over TCP.

    One accept loop feeds one thread per driver connection; each
    connection speaks a strict request/response alternation, so a worker
    serves its drivers' requests in arrival order.  Kernels and
    process-level caches (static problems, installed potentials, FFT
    workspaces) are exactly those of the local backends — a worker
    process behaves like one persistent process-pool worker that happens
    to live on another machine.

    Parameters
    ----------
    host, port:
        Bind address; port 0 (the default) lets the OS pick a free port,
        published in :attr:`address` after :meth:`start`.
    fault_plan:
        Optional deterministic fault injector
        (:class:`repro.parallel.faults.FaultPlan`) consulted before each
        task reply — the test harness for the failure model.
    max_frame_bytes:
        Per-frame size limit (both directions).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan=None,
        max_frame_bytes: int = _DEFAULT_MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.fault_plan = fault_plan
        self.max_frame_bytes = int(max_frame_bytes)
        self.address: tuple[str, int] | None = None
        self.tasks_served = 0
        self.installs = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self.address = (self.host, int(sock.getsockname()[1]))
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self.address

    def stop(self) -> None:
        """Stop accepting and close the listening socket (idempotent)."""
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._sock = None

    def join(self, timeout: float | None = None) -> None:
        """Block until :meth:`stop` is called (the daemon's main wait)."""
        self._stop.wait(timeout)

    def __enter__(self) -> "WorkerServer":
        if self.address is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- serving -------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request, nbytes = recv_frame(conn, self.max_frame_bytes)
                except (ConnectionError, OSError, EOFError):
                    return
                except RemoteProtocolError:
                    return
                self.bytes_received += nbytes
                try:
                    reply = self._handle(request)
                except _DropConnection:
                    return
                except _KillWorker:
                    self.stop()
                    return
                try:
                    self.bytes_sent += send_frame(conn, reply, self.max_frame_bytes)
                except (ConnectionError, OSError):
                    return

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "hello":
            if request.get("version") != PROTOCOL_VERSION:
                return {
                    "ok": False,
                    "error_type": "RemoteProtocolError",
                    "error": (
                        f"protocol version mismatch: driver "
                        f"{request.get('version')} != worker {PROTOCOL_VERSION}"
                    ),
                }
            return {"ok": True, "pid": os.getpid(), "version": PROTOCOL_VERSION}
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "install":
            install_potential(request["key"], request["payload"])
            with self._lock:
                self.installs += 1
            return {"ok": True}
        if op == "stats":
            return {
                "ok": True,
                "tasks_served": self.tasks_served,
                "installs": self.installs,
                "bytes_received": self.bytes_received,
                "bytes_sent": self.bytes_sent,
            }
        if op == "shutdown":
            # Reply first (the driver awaits it), then stop from the
            # connection loop's next iteration.
            self._stop.set()
            return {"ok": True}
        if op == "task":
            return self._handle_task(request)
        return {
            "ok": False,
            "error_type": "RemoteProtocolError",
            "error": f"unknown op {op!r}",
        }

    def _handle_task(self, request: dict) -> dict:
        kernel = _KERNELS.get(request.get("kind"))
        if kernel is None:
            return {
                "ok": False,
                "error_type": "RemoteProtocolError",
                "error": f"unknown task kind {request.get('kind')!r}",
            }
        with self._lock:
            index = self.tasks_served
            self.tasks_served += 1
        if self.fault_plan is not None:
            self.fault_plan.apply(index)
        try:
            result = kernel(request["task"])
        except PotentialNotInstalledError as exc:
            return {
                "ok": False,
                "error_type": "PotentialNotInstalledError",
                "error": str(exc),
                "key": exc.key,
            }
        except Exception as exc:
            return {
                "ok": False,
                "error_type": type(exc).__name__,
                "error": str(exc),
            }
        return {"ok": True, "result": result}


class _DropConnection(Exception):
    """Fault-plan control flow: close the connection without replying."""


class _KillWorker(Exception):
    """Fault-plan control flow: kill the whole worker mid-request."""


def worker_main(argv: Sequence[str] | None = None) -> int:
    """``repro-worker`` entry point: serve kernels until shut down.

    Prints ``REPRO-WORKER LISTENING <host> <port>`` on stdout once bound
    (port 0 resolves to the OS-assigned port), so spawners can scrape
    the address; then blocks until a ``shutdown`` frame or Ctrl-C.
    """
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="LS3DF remote fragment worker (trusted networks only).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = any)")
    args = parser.parse_args(argv)
    server = WorkerServer(host=args.host, port=args.port)
    host, port = server.start()
    print(f"REPRO-WORKER LISTENING {host} {port}", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
    return 0


def start_worker_thread(
    host: str = "127.0.0.1", port: int = 0, fault_plan=None
) -> WorkerServer:
    """Start a :class:`WorkerServer` inside this process (tests, demos).

    The server shares the driver's process-level caches, but speaks the
    full socket protocol — every byte still crosses a real TCP
    connection on the loopback interface.
    """
    server = WorkerServer(host=host, port=port, fault_plan=fault_plan)
    server.start()
    return server


class LocalWorkerPool:
    """Spawn ``n`` localhost worker *processes* and collect their addresses.

    Each worker is a ``python -m repro.parallel.remote`` subprocess with
    its own interpreter, caches and OS-assigned port — the closest
    single-machine analogue of a real multi-node deployment (used by the
    CI ``remote-smoke`` job and the ``remote``-marked tests).

    Use as a context manager::

        with LocalWorkerPool(2) as pool:
            executor = RemoteExecutor(pool.addresses)
    """

    def __init__(self, n: int = 2, python: str | None = None, startup_timeout: float = 60.0):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.python = python or sys.executable
        self.startup_timeout = float(startup_timeout)
        self.processes: list = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> "LocalWorkerPool":
        import subprocess

        import repro

        src_dir = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for _ in range(self.n):
            proc = subprocess.Popen(
                [self.python, "-m", "repro.parallel.remote", "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            self.processes.append(proc)
        deadline = time.monotonic() + self.startup_timeout
        for proc in self.processes:
            address = self._read_address(proc, deadline)
            self.addresses.append(address)
        return self

    def _read_address(self, proc, deadline: float) -> tuple[str, int]:
        holder: list = []

        def reader() -> None:
            line = proc.stdout.readline()
            holder.append(line)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(max(0.0, deadline - time.monotonic()))
        if not holder or not holder[0]:
            self.terminate()
            raise RuntimeError("worker subprocess failed to announce its address")
        parts = holder[0].split()
        if len(parts) != 4 or parts[:2] != ["REPRO-WORKER", "LISTENING"]:
            self.terminate()
            raise RuntimeError(f"unexpected worker announcement {holder[0]!r}")
        return (parts[2], int(parts[3]))

    def terminate(self) -> None:
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=10.0)
            except Exception:  # pragma: no cover - last resort
                proc.kill()
        self.processes = []

    def __enter__(self) -> "LocalWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.terminate()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
@dataclass
class RemoteExecutorConfig:
    """Timeouts and retry policy of a :class:`RemoteExecutor`.

    Attributes
    ----------
    connect_timeout:
        Seconds allowed for the TCP connect + hello handshake.
    request_timeout:
        Seconds allowed for each send/receive pair (bounds every task,
        install and ping — the guarantee that no failure hangs).
    heartbeat_interval:
        Ping workers at most this often, piggybacked on batch dispatch
        (0 pings before every batch).
    max_retries:
        Reconnection attempts per worker on connect failure.
    backoff:
        Initial retry backoff in seconds, growing by ``backoff_factor``.
    backoff_factor:
        Multiplier applied to the backoff after every failed attempt.
    max_frame_bytes:
        Per-frame size limit (both directions).
    """

    connect_timeout: float = 5.0
    request_timeout: float = 120.0
    heartbeat_interval: float = 30.0
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_frame_bytes: int = _DEFAULT_MAX_FRAME


class _WorkerHandle:
    """Driver-side connection to one remote worker."""

    def __init__(self, address: tuple[str, int], config: RemoteExecutorConfig):
        self.address = (str(address[0]), int(address[1]))
        self.config = config
        self.sock: socket.socket | None = None
        self.alive = True
        self.pid: int | None = None
        self.installed_keys: set[str] = set()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.lock = threading.Lock()

    def connect(self) -> None:
        """Connect and handshake, retrying with exponential backoff."""
        if self.sock is not None:
            return
        delay = self.config.backoff
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(delay)
                delay *= self.config.backoff_factor
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.config.connect_timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock = sock
            try:
                # The socket still carries create_connection's
                # connect_timeout: a peer that accepts but never answers
                # the hello must not stall the driver for a whole
                # request_timeout.
                reply = self._roundtrip(
                    {"op": "hello", "version": PROTOCOL_VERSION}
                )
            except (OSError, ConnectionError) as exc:
                self.close()
                last_error = exc
                continue
            if not reply.get("ok"):
                self.close()
                raise RemoteProtocolError(str(reply.get("error")))
            sock.settimeout(self.config.request_timeout)
            self.pid = reply.get("pid")
            # A fresh process behind the same address knows no keys.
            self.installed_keys.clear()
            return
        raise WorkerDiedError(
            f"could not connect to worker at {self.address[0]}:{self.address[1]}: "
            f"{last_error}"
        )

    def _roundtrip(self, request: dict) -> dict:
        self.bytes_sent += send_frame(
            self.sock, request, self.config.max_frame_bytes
        )
        reply, nbytes = recv_frame(self.sock, self.config.max_frame_bytes)
        self.bytes_received += nbytes
        return reply

    def request(self, request: dict) -> dict:
        """One request/response round trip (connects lazily)."""
        with self.lock:
            self.connect()
            return self._roundtrip(request)

    def ping(self) -> bool:
        """Heartbeat; False (and marked dead) when the worker is gone."""
        try:
            reply = self.request({"op": "ping"})
        except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
            self.mark_dead()
            return False
        return bool(reply.get("ok"))

    def mark_dead(self) -> None:
        self.alive = False
        self.close()

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self.sock = None


class RemoteExecutor:
    """Executor backend running tasks on socket-connected remote workers.

    Implements the full local-backend surface — ``run`` /
    ``run_pipeline`` / ``run_global`` / ``run_bands``,
    ``install_state``, the logical/physical submission counters and
    ``partition`` for concurrent band-group sub-pools — so it drops into
    :class:`repro.core.scf.LS3DFSCF` (and
    :class:`repro.parallel.distributed` orchestration) unchanged.
    Results are bit-identical to the serial backend: workers run the
    same pure kernels on the same task bytes, and the driver returns
    results in task order.

    Dispatch submits heaviest-first from a shared queue (one driver
    thread per worker), realising the same greedy LPT balancing as the
    local pools.  See the module docstring for the failure model; the
    counters ``resubmissions``, ``workers_lost`` and ``degraded_tasks``
    record how much of it a run exercised.

    Parameters
    ----------
    addresses:
        ``(host, port)`` pairs of running ``repro-worker`` daemons.
    config:
        Timeouts and retry policy (:class:`RemoteExecutorConfig`).
    fallback:
        The bottom of the degradation ladder when no worker answers:
        ``"serial"`` (default) runs remaining tasks in-process via a
        :class:`repro.parallel.executor.SerialFragmentExecutor`, an
        executor instance is used as-is, and ``None`` raises
        :class:`NoRemoteWorkersError` instead.
    """

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        config: RemoteExecutorConfig | None = None,
        fallback="serial",
    ) -> None:
        self.config = config or RemoteExecutorConfig()
        self._handles = [_WorkerHandle(a, self.config) for a in addresses]
        self._fallback_spec = fallback
        self._fallback = None if isinstance(fallback, str) else fallback
        self.tasks_submitted = 0
        self.pool_submissions = 0
        self.install_broadcasts = 0
        self.resubmissions = 0
        self.workers_lost = 0
        self.degraded_tasks = 0
        self._counter_mutex = threading.Lock()
        self._counter_root = self
        self._install_payloads: OrderedDict[str, np.ndarray] = OrderedDict()
        self._install_payload_max = 64
        self._scheduler = FragmentScheduler()
        self._last_heartbeat = time.monotonic()
        self._partitions: dict[int, list["RemoteExecutor"]] = {}
        # Streaming (futures-based) dispatch state: a shared work deque
        # drained by one persistent thread per live worker, so per-slab
        # GENPOT stages flow to workers the moment their inputs exist
        # instead of in synchronous per-stage batches.
        self._stream_lock = threading.Lock()
        self._stream_cond = threading.Condition(self._stream_lock)
        self._stream_queue: deque = deque()
        self._stream_threads: dict[int, threading.Thread] = {}
        self._stream_stop = False
        self._stream_dead = False

    # -- bookkeeping ---------------------------------------------------
    @property
    def n_workers(self) -> int:
        """Live worker count (at least 1, so scheduling math never degenerates)."""
        return max(1, len(self._live_handles()))

    @property
    def nworkers(self) -> int:
        """Worker count under the legacy spelling (same as ``n_workers``)."""
        return self.n_workers

    @property
    def bytes_sent(self) -> int:
        """Driver-to-worker bytes over this executor's connections."""
        return sum(h.bytes_sent for h in self._handles)

    @property
    def bytes_received(self) -> int:
        """Worker-to-driver bytes over this executor's connections."""
        return sum(h.bytes_received for h in self._handles)

    def _live_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles if h.alive]

    def _bump(self, logical: int, physical: int) -> None:
        root = self._counter_root
        with root._counter_mutex:
            root.tasks_submitted += logical
            root.pool_submissions += physical

    def _count(self, attr: str, n: int = 1) -> None:
        root = self._counter_root
        with root._counter_mutex:
            setattr(root, attr, getattr(root, attr) + n)

    # -- health --------------------------------------------------------
    def heartbeat(self) -> int:
        """Ping every live worker; returns how many answered."""
        alive = 0
        for handle in self._live_handles():
            if handle.ping():
                alive += 1
            else:
                self._count("workers_lost")
        self._last_heartbeat = time.monotonic()
        return alive

    def _maybe_heartbeat(self) -> None:
        if time.monotonic() - self._last_heartbeat >= self.config.heartbeat_interval:
            self.heartbeat()

    # -- install channel -----------------------------------------------
    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a fingerprint-keyed potential once per remote worker.

        The driver's process-level store always receives the payload
        (covering the local fallback and the healing resubmission path);
        each worker then gets at most one ``install`` frame per key —
        the per-worker ``installed_keys`` set is the dedup that keeps
        repeated installs of one iteration's potential off the wire.
        """
        arr = np.asarray(payload)
        root = self._counter_root
        with root._counter_mutex:
            if key in root._install_payloads:
                root._install_payloads.move_to_end(key)
            else:
                install_potential(key, arr)
                root._install_payloads[key] = arr
                while len(root._install_payloads) > root._install_payload_max:
                    root._install_payloads.popitem(last=False)
        for handle in self._live_handles():
            if key in handle.installed_keys:
                continue
            try:
                reply = handle.request({"op": "install", "key": key, "payload": arr})
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                handle.mark_dead()
                self._count("workers_lost")
                continue
            if reply.get("ok"):
                handle.installed_keys.add(key)
                self._count("install_broadcasts")

    # -- the four protocols --------------------------------------------
    def run(self, tasks: Sequence) -> ExecutionReport:
        """Run plain fragment solve tasks on the remote workers."""
        return self._execute(tasks, "solve")

    def run_pipeline(self, tasks: Sequence) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks on the remote workers."""
        return self._execute(tasks, "pipeline")

    def run_global(self, tasks: Sequence) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks on the remote workers."""
        return self._execute(tasks, "global")

    def run_bands(self, tasks: Sequence) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks on the remote workers."""
        return self._execute(tasks, "bands")

    # -- streaming (futures-based) dispatch ----------------------------
    def submit_global(self, task):
        """Submit one global-step task; returns a ``concurrent.futures``
        future resolved by the persistent per-worker stream threads.

        The streaming analogue of :meth:`run_global`: tasks enter a
        shared deque the moment the driver submits them and are drained
        by one thread per live worker, so slab stages overlap with the
        driver's layout conversion exactly like the paper's isend/irecv-
        under-compute.  The failure model matches the batch path — a
        worker that dies mid-task is marked dead, its task is requeued
        for the survivors (``resubmissions``), and with no survivors
        left the queue drains through the local fallback executor.
        """
        return self._submit_stream(task, "global")

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch (heaviest-first)."""
        costs = [float(getattr(t, "cost", lambda: 1.0)()) for t in tasks]
        order = np.argsort(costs)[::-1]
        futures: list = [None] * len(tasks)
        for i in order:
            futures[int(i)] = self._submit_stream(tasks[int(i)], "pipeline")
        return futures

    def _submit_stream(self, task, kind: str):
        from concurrent.futures import Future

        self._bump(1, 1)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._stream_cond:
            if not self._stream_dead:
                self._ensure_stream_threads()
            if self._stream_dead:
                self._resolve_locally(task, kind, future)
                return future
            self._stream_queue.append((task, kind, future))
            self._stream_cond.notify()
        return future

    def _ensure_stream_threads(self) -> None:
        """Start one drain thread per live worker (caller holds the lock)."""
        for handle in self._live_handles():
            key = id(handle)
            thread = self._stream_threads.get(key)
            if thread is not None and thread.is_alive():
                continue
            thread = threading.Thread(
                target=self._stream_drain, args=(handle,), daemon=True
            )
            self._stream_threads[key] = thread
            thread.start()
        if not self._stream_threads:
            self._stream_dead = True

    def _stream_drain(self, handle: _WorkerHandle) -> None:
        while True:
            with self._stream_cond:
                while not self._stream_queue and not self._stream_stop:
                    self._stream_cond.wait(0.2)
                if not self._stream_queue:
                    return
                item = self._stream_queue.popleft()
            task, kind, future = item
            try:
                result = self._run_one(handle, task, kind)
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                handle.mark_dead()
                self._count("workers_lost")
                self._count("resubmissions")
                leftovers: list = []
                with self._stream_cond:
                    self._stream_queue.appendleft(item)
                    self._stream_threads.pop(id(handle), None)
                    survivors = any(
                        t.is_alive() for t in self._stream_threads.values()
                    )
                    if survivors:
                        self._stream_cond.notify_all()
                    else:
                        self._stream_dead = True
                        leftovers = list(self._stream_queue)
                        self._stream_queue.clear()
                for task, kind, future in leftovers:
                    self._resolve_locally(task, kind, future)
                return
            except Exception as exc:
                future.set_exception(exc)
                continue
            future.set_result(result)

    def _resolve_locally(self, task, kind: str, future) -> None:
        """Bottom of the streaming ladder: run one task on the fallback."""
        fallback = self._fallback_executor()
        if fallback is None:
            future.set_exception(
                NoRemoteWorkersError(
                    f"no remote worker answered for a streamed {kind} task "
                    f"and the local fallback is disabled"
                )
            )
            return
        self._count("degraded_tasks")
        runner = {
            "solve": fallback.run,
            "pipeline": fallback.run_pipeline,
            "global": fallback.run_global,
            "bands": fallback.run_bands,
        }[kind]
        try:
            report = runner([task])
        except Exception as exc:
            future.set_exception(exc)
            return
        future.set_result(report.results[0])

    # -- dispatch ------------------------------------------------------
    def _execute(self, tasks: Sequence, kind: str) -> ExecutionReport:
        t0 = time.perf_counter()
        self._bump(len(tasks), len(tasks))
        self._maybe_heartbeat()
        handles = self._live_handles()
        results: list = [None] * len(tasks)
        if not tasks:
            return ExecutionReport(results=[], wall_time=0.0, worker_count=0)
        if not handles:
            self._degrade(tasks, range(len(tasks)), kind, results)
            return ExecutionReport(
                results=results,
                wall_time=time.perf_counter() - t0,
                worker_count=1,
            )
        schedule = (
            self._scheduler.schedule_tasks(tasks, len(handles))
            if len(handles) > 1
            else None
        )
        costs = [float(getattr(t, "cost", lambda: 1.0)()) for t in tasks]
        order = np.argsort(costs)[::-1]
        queue: deque[int] = deque(int(i) for i in order)
        queue_lock = threading.Lock()
        first_error: list = [None]

        def drain(handle: _WorkerHandle) -> None:
            while True:
                with queue_lock:
                    if first_error[0] is not None or not queue:
                        return
                    idx = queue.popleft()
                try:
                    results[idx] = self._run_one(handle, tasks[idx], kind)
                except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                    handle.mark_dead()
                    self._count("workers_lost")
                    self._count("resubmissions")
                    with queue_lock:
                        queue.appendleft(idx)
                    return
                except Exception as exc:
                    with queue_lock:
                        if first_error[0] is None:
                            first_error[0] = exc
                    return

        threads = [
            threading.Thread(target=drain, args=(h,), daemon=True) for h in handles
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if first_error[0] is not None:
            raise first_error[0]
        leftovers = [i for i in range(len(tasks)) if results[i] is None]
        if leftovers:
            self._degrade(tasks, leftovers, kind, results)
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=len(handles),
            schedule=schedule,
            resubmissions=self.resubmissions,
        )

    def _run_one(self, handle: _WorkerHandle, task, kind: str):
        """One task round trip on one worker, healing missed installs."""
        reply = handle.request({"op": "task", "kind": kind, "task": task})
        if reply.get("ok"):
            return reply["result"]
        if reply.get("error_type") == "PotentialNotInstalledError":
            attach = getattr(task, "with_potential_payload", None)
            with self._counter_root._counter_mutex:
                payload = self._counter_root._install_payloads.get(reply.get("key"))
            if attach is not None and payload is not None:
                key = reply["key"]
                self._bump(0, 1)
                healed = attach(key, payload)
                reply = handle.request({"op": "task", "kind": kind, "task": healed})
                if reply.get("ok"):
                    # The healed payload rode inline; install it properly so
                    # later key-only tasks on this worker need no more heals.
                    install_reply = handle.request(
                        {"op": "install", "key": key, "payload": payload}
                    )
                    if install_reply.get("ok"):
                        handle.installed_keys.add(key)
                        self._count("install_broadcasts")
                    return reply["result"]
        raise RemoteTaskError(
            str(reply.get("error_type")), str(reply.get("error"))
        )

    def _degrade(self, tasks: Sequence, indices, kind: str, results: list) -> None:
        """Bottom of the ladder: run leftover tasks on the local fallback."""
        indices = list(indices)
        fallback = self._fallback_executor()
        if fallback is None:
            raise NoRemoteWorkersError(
                f"no remote worker answered for {len(indices)} {kind} task(s) "
                f"(addresses: {[h.address for h in self._handles]}) and the "
                f"local fallback is disabled"
            )
        self._count("degraded_tasks", len(indices))
        runner = {
            "solve": fallback.run,
            "pipeline": fallback.run_pipeline,
            "global": fallback.run_global,
            "bands": fallback.run_bands,
        }[kind]
        report = runner([tasks[i] for i in indices])
        for i, result in zip(indices, report.results):
            results[i] = result

    def _fallback_executor(self):
        if self._fallback is None and self._fallback_spec == "serial":
            from repro.parallel.executor import SerialFragmentExecutor

            self._fallback = SerialFragmentExecutor()
        return self._fallback

    # -- band-group sub-pools ------------------------------------------
    def partition(self, ngroups: int) -> list["RemoteExecutor"]:
        """Split the workers into ``ngroups`` disjoint sub-pools.

        Each sub-pool is a :class:`RemoteExecutor` view owning a
        round-robin share of this executor's worker handles (state —
        connections, installed-key sets, byte counters — is shared with
        the parent, and all logical counters accumulate on the parent),
        so the concurrent band-group path can drive the groups from
        independent threads with per-group task queues.  Partitions are
        cached per ``ngroups``: repeated iterations reuse the same
        sub-pools and their workers' warm caches.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        cached = self._partitions.get(ngroups)
        if cached is not None:
            return cached
        children = []
        handles = self._handles
        for g in range(ngroups):
            child = RemoteExecutor.__new__(RemoteExecutor)
            child.config = self.config
            child._handles = [h for i, h in enumerate(handles) if i % ngroups == g]
            child._fallback_spec = self._fallback_spec
            child._fallback = None
            child.tasks_submitted = 0
            child.pool_submissions = 0
            child.install_broadcasts = 0
            child.resubmissions = 0
            child.workers_lost = 0
            child.degraded_tasks = 0
            child._counter_mutex = threading.Lock()
            child._counter_root = self._counter_root
            child._install_payloads = OrderedDict()
            child._install_payload_max = self._install_payload_max
            child._scheduler = FragmentScheduler()
            child._last_heartbeat = time.monotonic()
            child._partitions = {}
            child._stream_lock = threading.Lock()
            child._stream_cond = threading.Condition(child._stream_lock)
            child._stream_queue = deque()
            child._stream_threads = {}
            child._stream_stop = False
            child._stream_dead = False
            children.append(child)
        self._partitions[ngroups] = children
        return children

    # -- lifecycle -----------------------------------------------------
    def shutdown_workers(self) -> int:
        """Send ``shutdown`` to every live worker; returns how many acked.

        Every handle is marked dead afterwards and counted in
        ``workers_lost``: a stopped worker may keep its listening socket
        open without ever answering again, so later batches must go to
        the local fallback instead of reconnecting.
        """
        acked = 0
        for handle in self._live_handles():
            try:
                reply = handle.request({"op": "shutdown"})
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                reply = {}
            if reply.get("ok"):
                acked += 1
            handle.mark_dead()
            self._count("workers_lost")
        return acked

    def close(self) -> None:
        """Close every connection (workers keep running; see
        :meth:`shutdown_workers`)."""
        with self._stream_cond:
            self._stream_stop = True
            self._stream_cond.notify_all()
        for handle in self._handles:
            handle.close()
        for children in self._partitions.values():
            for child in children:
                for handle in child._handles:
                    handle.close()

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(worker_main())
