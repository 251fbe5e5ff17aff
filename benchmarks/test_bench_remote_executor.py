"""Remote-executor benchmark: dispatch latency, wire bytes, group overlap.

The multi-node backend pays a per-task round-trip over TCP; this
benchmark measures what that costs on a real (loopback) wire:

* **dispatch latency** — median round-trip of a no-op ``ping`` frame,
  the floor under every remote task;
* **wire bytes** — bytes sent and received for a 2-iteration SCF run,
  whose global potential crosses the fingerprint install channel once
  per worker per iteration (the install count is checked exactly);
* **measured group overlap** — ``concurrency_efficiency`` of the
  concurrent band-group pools from the
  :class:`~repro.parallel.scheduler.GroupExecutionRecord` the SCF loop
  now records (a measurement, not a model output).

Results land in ``remote_executor.json`` under the results directory.
"""

from __future__ import annotations

import time

import numpy as np

from repro.atoms.toy import cscl_binary
from repro.core.scf import LS3DFSCF
from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.executor import ThreadPoolFragmentExecutor
from repro.parallel.remote import (
    RemoteExecutor,
    RemoteExecutorConfig,
    start_worker_thread,
)


def _tiny_scf(executor=None, **kw) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=2,
    potential_tolerance=1e-9,  # never met: fixed work per run
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)

_CONFIG = dict(
    connect_timeout=2.0,
    request_timeout=60.0,
    heartbeat_interval=1e9,
    max_retries=1,
    backoff=0.01,
)


def _remote_run(n_workers=2, **scf_kw):
    servers = [start_worker_thread() for _ in range(n_workers)]
    try:
        with RemoteExecutor(
            [s.address for s in servers], config=RemoteExecutorConfig(**_CONFIG)
        ) as executor:
            scf = _tiny_scf(executor, **scf_kw)
            result = scf.run(**_RUN_KW)
            stats = dict(
                tasks=executor.tasks_submitted,
                installs=executor.install_broadcasts,
                bytes_sent=executor.bytes_sent,
                bytes_received=executor.bytes_received,
            )
    finally:
        for server in servers:
            server.stop()
    return result, stats


def test_bench_remote_executor(results_dir):
    # -- dispatch latency: the ping round-trip floor under every task.
    server = start_worker_thread()
    try:
        with RemoteExecutor(
            [server.address], config=RemoteExecutorConfig(**_CONFIG)
        ) as executor:
            executor.heartbeat()  # connect + handshake outside the timing
            samples = []
            for _ in range(50):
                t0 = time.perf_counter()
                executor.heartbeat()
                samples.append(time.perf_counter() - t0)
    finally:
        server.stop()
    latency_us = float(np.median(samples) * 1e6)

    # -- wire bytes of a 2-worker SCF run.
    result, wire = _remote_run()

    # -- measured band-group overlap on a local thread pool.
    with ThreadPoolFragmentExecutor(4) as pool:
        grouped = _tiny_scf(pool, band_groups=2).run(**_RUN_KW)
    records = [t.band_schedule for t in grouped.timings]
    assert all(r.concurrent for r in records)
    efficiency = float(np.mean([r.concurrency_efficiency for r in records]))

    rows = [
        {"metric": "ping round-trip (median, us)", "value": f"{latency_us:.0f}"},
        {"metric": "SCF bytes sent", "value": f"{wire['bytes_sent']:,}"},
        {"metric": "SCF bytes received", "value": f"{wire['bytes_received']:,}"},
        {"metric": "potential installs", "value": f"{wire['installs']}"},
        {"metric": "measured group concurrency eff.", "value": f"{efficiency:.3f}"},
    ]
    print()
    print(format_table(rows, ["metric", "value"]))

    save_records(
        [
            ResultRecord(
                "remote_executor",
                {
                    "ping_median_us": latency_us,
                    "pipeline_bytes_sent": wire["bytes_sent"],
                    "pipeline_bytes_received": wire["bytes_received"],
                    "install_broadcasts": wire["installs"],
                    "tasks_submitted": wire["tasks"],
                    "group_concurrency_efficiency": efficiency,
                    "group_walls": [list(r.group_walls) for r in records],
                },
            )
        ],
        results_dir / "remote_executor.json",
    )

    # Qualitative shape: install dedup holds (one install per worker per
    # iteration, never one per fragment), every fragment is one task per
    # iteration, and the measured overlap is a real efficiency.
    assert wire["installs"] == 2 * result.iterations
    assert wire["tasks"] == len(result.fragment_results) * result.iterations
    assert wire["bytes_sent"] > 0 and wire["bytes_received"] > 0
    assert 0.0 < efficiency <= 1.0
