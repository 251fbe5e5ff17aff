"""LS3DF benchmark: four workloads, end-to-end metrics and a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zno16-serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload zno16-serial --trace 1 --out trace.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The lines before it are a readable report: the environment, and every
metric with its unit and sample count.  Nothing is written to disk except
the ``--out`` file, if given, and a scratch store under
``.perfbench_tmp/`` that store-service removes again.  Set-up runs
several times per run and ``setup_s`` is the median; timings inside a
run are medians over its timed units.

Workloads (the load comes from one process with at most two worker
processes or two client connections):

``zno16-serial``
    The serial ZnO probe, ``cscl_binary((2, 2, 1), "Zn", "O", 6.0)``: 16
    fragments, ecut 2.2, default ``LS3DFSCF`` on the serial executor.
    Why: the plain single-threaded baseline; the ``pw`` kernels are about
    90% of an iteration, and ``parallel``, ``io`` and ``store`` are
    bypassed, so a dispatch or wire change predicts no change here.
``zno16-pool2``
    The same problem on ``ProcessPoolFragmentExecutor(2)`` with
    ``pipeline=True`` and ``genpot_shards=2`` (GENPOT sharded and
    streamed).  Why: the paper's fragment-level parallelism: LPT over 16
    uneven fragments, install broadcasts, the driver-side tree-reduce;
    against ``zno16-serial`` it gives the speed-up on one problem.  It is
    runnable but not listed in ``BENCHMARK.json``: it is bimodal.  On a
    fresh pool the ``install_state`` broadcast misses one worker in about
    four of ten runs (both install calls land on the same worker); every
    task that worker then gets is healed by a resubmission the driver
    waits for in fragment order, so PEtot_F serialises: on a 2-vCPU VM
    about 12 s per iteration instead of 6 s, with 47 instead of 32 pool
    submissions.
    The SCF is deterministic, so the keys repeat and a run stays in the
    mode its first broadcast picked.
``zno16-bands2-remote``
    The same problem with ``pipeline=True`` and ``band_groups=2`` through a
    ``RemoteExecutor`` over ``LocalWorkerPool(2)``.  Why: many small
    band-slice messages, so RPW1 pickling and dispatch dominate; a wire
    change shows most here and a kernel change least.
``store-service``
    An in-process ``StoreServer`` (``job_slots=1``, serial backend)
    serving at least 100 seeded 1x1x1 ZnO jobs with ``checkpoint_every=1``;
    about a fifth are exact resubmissions that dedup attaches.  A closed
    loop (one client: submit, wait, fetch the result, next) plus an
    open-loop poller reading ``status`` of the in-flight run every 50 ms,
    each poll timed from when it was due.  Why: the only workload on
    ``store`` and ``io`` (event appends, checkpoint writes, head reads).

The seed drives the store-service job mix; the SCF workloads have fixed
inputs.  The SCF does not converge on this problem (the ZnSe quickstart
system cycles with period 3 for 30 iterations), so the SCF unit of work
is a fixed number of outer iterations, never the time to a tolerance.

End-to-end metrics (tracing off), defined on every workload:

- ``setup_s``: structure, solver, a cold ``FragmentSolver.build_problem``
  plus ``passivation_potential`` of every fragment, and the pool or
  worker spawn; for store-service, daemon start over a store that
  already holds 100 finished runs (so a start pays the recovery scan a
  restarted service pays) plus the first client connection.
- ``scf_iter_per_s``: outer iterations per second of the timed
  ``LS3DFSCF.run``; for store-service, SCF iterations the daemon
  completed per second.
- ``jobs_per_s`` and ``job_latency_p50_s``: a job is one fixed-iteration
  ``LS3DFSCF.run`` on the SCF workloads and one submit-to-result round
  trip on store-service.
- ``peak_rss_mb``: peak resident memory of the driver process (with
  ``--workload all``, the peak so far in that one process).

The report also prints, without a regression bound, what exists on one
workload only: the tails of job latency and of status-poll latency, at
the highest percentile with at least ten samples beyond it (refused with
fewer, so only store-service has them), the status-poll median, the
poller's lateness and the dedup share.

Per-layer metrics (``--trace 1``), and the end-to-end metric each should
move, on which workloads:

- ``pw.apply_local_s``, ``pw.apply_local_calls``, ``pw.fft_s``,
  ``pw.fft_calls``, ``pw.fft_flop_computed``, ``pw.fft_bytes_computed``,
  ``pw.nonlocal_s``, ``pw.eigensolver_s``, ``pw.cg_iterations``,
  ``pw.cg_unconverged``, ``pw.fftcache_hit_ratio``: ``scf_iter_per_s``,
  nearly in proportion to their share on zno16-serial, diluted on
  zno16-pool2, least on zno16-bands2-remote; no change in ``jobs_per_s``.
- ``pw.structure_factor_s`` (``ionic_density`` plus ``local_potential``),
  ``core.problem_build_s``: ``setup_s`` on the SCF workloads and
  ``job_latency_p50_s``; never ``scf_iter_per_s``.
- ``core.gen_vf_s``, ``core.petot_f_s``, ``core.gen_dens_s``,
  ``core.genpot_s``: predicted no measurable end-to-end change; GENPOT
  plus Gen_dens take about 3 ms per iteration.
- ``core.driver_cpu_s``, ``core.serial_fraction``: bound
  ``scf_iter_per_s`` by Amdahl on zno16-pool2 and zno16-bands2-remote.
- ``parallel.tasks_submitted``, ``parallel.pool_submissions``,
  ``parallel.install_broadcasts``, ``parallel.wire_bytes_sent``,
  ``parallel.wire_bytes_received``, ``parallel.task_bytes_computed``,
  ``parallel.dispatch_overhead_s``: ``scf_iter_per_s``, mostly on
  zno16-bands2-remote, a little on zno16-pool2, not on zno16-serial.
- ``parallel.worker_occupancy``: ``scf_iter_per_s`` on zno16-pool2 (load
  balance).
- ``parallel.resubmissions``, ``parallel.workers_lost``,
  ``parallel.degraded_tasks``, ``parallel.worker_peak_rss_mb``: failure
  and memory accounting on the pool and remote workloads.
- ``io.checkpoint_saves``, ``io.checkpoint_s``, ``io.checkpoint_bytes``,
  ``store.append_s``, ``store.appends``, ``store.read_head_s``,
  ``store.queue_wait_s``: the job and status latencies, store-service only.
- ``store.submit_s``, ``store.dedup_hit_ratio``: ``jobs_per_s`` on
  store-service.
- ``<layer>.self_s`` for core, pw, parallel, io and store, and
  ``trace_overhead_pct``.

Per-layer values are per timed unit (one SCF run, or one service job),
except ``pw.structure_factor_s`` and ``core.problem_build_s``, which on
the SCF workloads are per set-up, where that work happens.  Derived ones:
``core.serial_fraction`` is the driver process's CPU time during ``run()``
over its wall time (alpha from observed driver time);
``parallel.worker_occupancy`` is the summed per-task ``wall_time`` over
PEtot_F wall times workers; ``store.queue_wait_s`` is the median
submitted-to-scheduled delay in the public event stream;
``parallel.dispatch_overhead_s`` is each dispatch call's wall time minus
the larger of its longest task and its summed task time per worker;
``pw.fft_flop_computed`` counts 5 N log2 N per transform and
``pw.fft_bytes_computed`` the input plus complex output, both from array
shapes; ``<layer>.self_s`` is the layer's span time minus what its child
spans cover; ``trace_overhead_pct`` is untraced minus traced
``scf_iter_per_s`` (``jobs_per_s`` on store-service) over untraced, from
a second, untraced phase of the same run; the traced phase runs first,
like the one phase of an untraced run, so on zno16-bands2-remote it also
pays the remote workers' cold static-problem builds and the figure is an
upper bound.  The traced run wraps public
functions where callers look them up, before any pool forks; the
wrappers in forked workers stay disabled, so pool and remote workloads
report driver-side spans plus the per-task times their results carry.

Deliberately out of scope: a GENPOT-heavy workload (a 64^3 grid; on a
2-core box GENPOT is under 0.1% of every iteration that fits the time
budget, so GENPOT-path changes must show "no change", not a gain),
tracing inside ``src/``, per-knob ablation rows and worker-side spans.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads, pinned before numpy loads so that pool and remote workers
#: inherit it; golden bit-identity depends on the BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zno16-serial", "zno16-pool2", "zno16-bands2-remote", "store-service")


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs across numpy versions
        openblas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:  # no git on the machine
        sha = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "seed": seed,
    }


def _print_metric(workload: str, name: str, metric) -> None:
    note = f"  [{metric.note}]" if metric.note else ""
    print(f"{workload:20s} {name:30s} {metric.value:14.6g} {metric.unit:6s} n={metric.samples}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record (and spans) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    env = _environment(args.seed)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = workloads.make_scratch(ROOT)
    outcomes = {}
    try:
        for name in names:
            if name == "store-service":
                outcomes[name] = workloads.run_store_workload(
                    args.seconds, bool(args.trace), args.seed, scratch
                )
            else:
                outcomes[name] = workloads.run_scf_workload(name, args.seconds, bool(args.trace))
    finally:
        workloads.remove_scratch(scratch)

    metrics, record = {}, {"environment": env, "args": vars(args) | {"out": str(args.out)}}
    for name, out in outcomes.items():
        shown = out.per_layer if args.trace else out.end_to_end
        every = {**out.end_to_end, **out.report_only, **out.per_layer}
        for key, metric in every.items():
            _print_metric(name, key, metric)
        for why in out.failures:
            print(f"{name}: FAILED {why}", file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update(
            {prefix + k: {"value": m.value, "unit": m.unit} for k, m in shown.items()}
        )
        record[name] = {
            "attempted": out.attempted,
            "failed": out.failed,
            "failures": out.failures,
            "metrics": {k: vars(m) for k, m in every.items()},
            "spans": [vars(s) for s in out.spans],
        }
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": failed == 0 and attempted > 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(record | {"result": result}, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
