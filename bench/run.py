"""Benchmark of the rqspeech pipeline; see bench/README.md.

Run from the repository root:

    python3 bench/run.py --workload {pretrain,decode} \
        --seed N --seconds S --trace {0,1}

It imports the program from ./src, synthesises the workload's inputs from the
seed under ./.bench_work, and prints a run record line followed, as the last
line, by one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run. The exit code is 0 when every output check
passed, 1 when a check or an operation failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# decode is batch-1 inference that spends ~85% of its time in a pure-Python
# beam search. With one BLAS thread its encoder never waits for a second core,
# which on a shared machine may be the slower one: the spread of five runs
# fell from 0.20-0.34 to 0.16-0.18 at about the same speed.
BLAS_THREADS = {"decode": 1}


def cap_blas_threads(limit: int | None = None) -> None:
    """Limit BLAS threads to the usable cores and ``limit``; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    if limit:
        cap = min(cap, limit)
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and
                              int(current) > 0 else cap)


def import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rqspeech
    if not Path(rqspeech.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"rqspeech imported from {rqspeech.__file__}, not {src}")


def blas_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None
            else int(os.environ["OPENBLAS_NUM_THREADS"])}


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def timed_phase(wl, st, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds of operations until ``seconds`` have passed.

    A round is one ``wl.cycle(st)``: a list of ``(key, operation)`` pairs.
    Every round of a workload does the same mix of work, so each run measures
    the same mix however fast the machine is, and an operation whose key
    recurs in a later round repeats the same work on the same inputs.

    The machine's CPU is shared: the same work runs up to ~1.5x slower while
    other tenants are busy, in phases of seconds to minutes, and at full speed
    in the moments between. Interference only ever adds time, so each key's
    cost is its best (smallest) wall and CPU time over its visits, as
    ``timeit`` reports the minimum of repeats. A key visited once keeps its
    single time. ``wl.finish`` closes the phase and is timed once.
    """
    from spans import OP_SPAN
    walls, cpus, audio_of = {}, {}, {}
    ops = rounds = failed = 0
    t0 = perf_counter()
    while not failed and (rounds < wl.min_rounds or perf_counter() - t0 < seconds):
        for key, op in wl.cycle(st):
            ops += 1
            cpu_start, start = process_time(), perf_counter()
            try:
                if tracer is None:
                    audio = op()
                else:
                    with tracer.span(OP_SPAN):
                        audio = op()
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            walls.setdefault(key, []).append(perf_counter() - start)
            cpus.setdefault(key, []).append(process_time() - cpu_start)
            if audio_of.setdefault(key, audio) != audio:
                wl.failures[f"op {key}"] = f"audio {audio} s, {audio_of[key]} s before"
        rounds += 1
    finish_s = finish_cpu_s = 0.0
    if not failed:
        cpu_start, start = process_time(), perf_counter()
        wl.finish(st)
        finish_s, finish_cpu_s = perf_counter() - start, process_time() - cpu_start
    elapsed = perf_counter() - t0
    op_s = [min(v) for v in walls.values()]
    cpu_s = sum(min(v) for v in cpus.values()) + finish_cpu_s
    audio = sum(audio_of.values())
    return {"ops": ops, "failed": failed, "rounds": rounds, "keys": len(walls),
            "audio_s": audio, "elapsed_s": elapsed, "op_s": op_s,
            "audio_s_per_s": audio / (sum(op_s) + finish_s) if op_s else 0.0,
            "cpu_s_per_audio_s": cpu_s / audio if audio else 0.0}


def measure(args, work: Path):
    import numpy as np
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        wl.untraced = tracer.paused
    reps = 1 if tracer else wl.setup_reps
    setup_times, signatures, st = [], [], None
    for _ in range(reps):
        st = None
        gc.collect()
        start = perf_counter()
        st = wl.setup()
        setup_times.append(perf_counter() - start - st.check_s)
        signatures.append(wl.signature(st))
    if any(s != signatures[0] for s in signatures):
        wl.failures["set-up"] = f"warm-up results differ between set-ups: {signatures}"

    phase = timed_phase(wl, st, args.seconds, tracer)
    untraced = None
    if tracer:
        tracer.uninstall()
        if not phase["failed"]:
            untraced = timed_phase(wl, st, args.seconds)
    if not phase["failed"] and not (untraced and untraced["failed"]):
        wl.verify(st)

    attempted = reps + phase["ops"] + (untraced["ops"] if untraced else 0)
    failed = (phase["failed"] + (untraced["failed"] if untraced else 0)
              + len(wl.failures))
    for key, message in wl.failures.items():
        print(f"check failed: {key}: {message}", file=sys.stderr)
    setup_s = statistics.median(setup_times)
    if failed:
        metrics = {}
    elif tracer:
        metrics = spans.layer_metrics(tracer, setup_s, phase, untraced)
    else:
        metrics = {
            "audio_s_per_s": (phase["audio_s_per_s"], "1/s"),
            "op_s_p50": (statistics.median(phase["op_s"]), "s"),
            "cpu_s_per_audio_s": (phase["cpu_s_per_audio_s"], "s/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
        }
    if tracer:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{tracer.run_id}.jsonl")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": np.__version__, **blas_record(np), "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "datapipe_workers": wl.cfg["datapipe"]["workers"],
        "setup_reps": reps, "setup_s_each": setup_times,
        "ops": phase["ops"], "op_keys": phase["keys"], "rounds": phase["rounds"],
        "timed_s": phase["elapsed_s"],
        "audio_s": phase["audio_s"], **st.extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pretrain", "decode"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_blas_threads(BLAS_THREADS.get(args.workload))
    sys.dont_write_bytecode = True
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, record = measure(args, work)
    except Exception:
        traceback.print_exc()
        result, record = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # fails while another run still uses it
    if record is not None:
        print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
