"""Process-backed targets: GIL-free kernels, crashes, and stuck workers.

Run:  python examples/process_kernels.py

The directive-level code is identical to the thread examples — register a
target, ``run_on`` it — but the executor is a pool of worker OS *processes*
(``repro.dist``), so a CPU-bound pure-Python kernel actually scales with
cores instead of serializing on the GIL.  Also demonstrated: a worker that
dies mid-region surfaces ``WorkerCrashedError`` (never a hang) and its
lane's shipper restores the pool; a stuck worker is reclaimed by
``timeout=``.

On a single-core host the speedup section still runs and reports honestly —
there is no parallel dividend to collect without a second core.
"""

import os
import time

from repro.core import PjRuntime, run_on
from repro.core.errors import AwaitTimeoutError, RegionFailedError, WorkerCrashedError

POOL = 4
CHUNKS = 4
BLOCK = 500
PRIME_LIMIT = 150_000
TRIALS = 3


def count_primes(first: int, limit: int) -> int:
    """Pure-Python trial division — deliberately GIL-bound CPU work."""
    count = 0
    for n in range(max(first, 2), limit):
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            count += 1
    return count


def count_chunk(chunk: int) -> int:
    """The primes in every ``CHUNKS``-th block of ``BLOCK`` numbers, from
    block *chunk* on.  The chunks cost alike: a contiguous range costs more
    the higher it lies, and striding single numbers by 4 would hand two
    chunks only even numbers."""
    return sum(
        count_primes(lo, lo + BLOCK)
        for lo in range(chunk * BLOCK, PRIME_LIMIT, CHUNKS * BLOCK)
    )


def crash_body() -> None:
    """Kill the worker process abruptly, mid-region."""
    os._exit(13)


def stubborn() -> None:
    """Ignore cooperative cancellation entirely."""
    time.sleep(300)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def timed_chunks(rt: PjRuntime, target: str) -> tuple[float, int]:
    start = time.perf_counter()
    handles = [
        run_on(target, count_chunk, i, mode="nowait", runtime=rt)
        for i in range(CHUNKS)
    ]
    total = sum(h.result(timeout=600) for h in handles)
    return time.perf_counter() - start, total


def main() -> None:
    cores = usable_cores()
    rt = PjRuntime()
    rt.create_worker("threads", POOL)
    rt.create_process_worker("procs", POOL)

    # --- GIL-free offload -------------------------------------------------
    # One untimed section per side first: lane start-up and a cold host
    # are not the story.  Then the best of TRIALS per side, alternating.
    timed_chunks(rt, "procs")
    timed_chunks(rt, "threads")
    t_thread = t_proc = float("inf")
    for _ in range(TRIALS):
        elapsed, primes_t = timed_chunks(rt, "threads")
        t_thread = min(t_thread, elapsed)
        elapsed, primes_p = timed_chunks(rt, "procs")
        t_proc = min(t_proc, elapsed)
    assert primes_t == primes_p, "backends disagree on the prime count"
    speedup = t_thread / t_proc
    print(f"primes below {PRIME_LIMIT}: {primes_t}")
    print(f"{POOL}-thread pool : {t_thread:6.2f}s   (GIL-serialized)")
    print(f"{POOL}-process pool: {t_proc:6.2f}s   ({speedup:.2f}x vs threads)")
    if cores >= 2:
        assert speedup > 1.5, (
            f"expected >1.5x on a {cores}-core host, measured {speedup:.2f}x"
        )
        print(f"scaling dividend collected on {cores} usable cores")
    else:
        print("single-core host: no parallel dividend to collect (expected)")

    # --- crash containment ------------------------------------------------
    try:
        run_on("procs", crash_body, runtime=rt)
    except RegionFailedError as exc:
        crash = exc.__cause__
        assert isinstance(crash, WorkerCrashedError)
        print(f"crash surfaced : {crash}")
    survivor = run_on("procs", count_primes, 0, 100, runtime=rt)
    print(f"pool recovered : counted {survivor.result()} primes after the crash")
    print(f"target state   : {rt.get_target('procs').describe()}")

    # --- stuck-worker reclaim via timeout= --------------------------------
    try:
        run_on("procs", stubborn, timeout=1.5, runtime=rt)
    except AwaitTimeoutError:
        print("stuck worker   : timeout= fired; lane terminated and respawned")

    rt.shutdown()
    print("clean shutdown : all worker processes stopped")


if __name__ == "__main__":
    main()
