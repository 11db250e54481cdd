"""One forked worker process beside the calling one.

Two callers use it: `harness.run_experiment` trains roster models 2..k in the
worker, and `metrics.score_captions` scores the second half of a large
corpus's videos there. The worker inherits the caller's memory through
`fork`, so only its result crosses the pipe, pickled. This module imports
nothing that `vidcap.metrics`' cold import would not load anyway.
"""

import os
from contextlib import contextmanager, suppress


def _can_fork() -> bool:
    """Whether a forked worker can run beside this process: it may use two or
    more CPUs and runs a single thread. `run_experiment` and `score_captions`
    ask it before they fork. Another thread would not exist in the child, and
    a BLAS thread pool would compete with the child for the CPUs: with
    OpenBLAS's default pool on a 2-CPU machine, a default run_experiment took
    9-19 s with the worker against 4.6-6.6 s without it. The `vidcap` command
    pins BLAS to one thread, so its `run` passes. Where the thread count
    cannot be read (no /proc), the answer is no."""
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None
    where that cannot be read."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


@contextmanager
def _worker(fn, stage: str):
    """Run fn() in a forked child process while the with-block runs; the block
    gets a `join` that returns fn's result or raises the exception it raised.
    The child always leaves through os._exit, and the parent kills and reaps
    it on every way out of the block. `stage` names the work in the error
    raised when the child dies without a result.

    The child first moves off the CPU the parent is on. On a 2-CPU VM the
    kernel left a forked scorer on its parent's CPU for a whole 1.9 s call,
    and forked scoring gained nothing at 700 videos x 20 references; moved,
    it took 382 ms against 504 ms in-process."""
    import pickle  # not at module level: no cold import of vidcap.metrics loads
    import signal  # either (about 0.8 ms for signal)

    read_fd, write_fd = os.pipe()
    cpu = _current_cpu()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with suppress(OSError):
                if others := os.sched_getaffinity(0) - {cpu}:
                    os.sched_setaffinity(0, others)
            try:
                outcome = (True, fn())
            except Exception as e:
                outcome = (False, e)
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump(outcome, f, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")
    alive = True

    def join():
        nonlocal alive
        data = reader.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        alive = False
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"[{stage}] the worker process ended by {how} "
                                    "without a result")
        ok, value = pickle.loads(data)  # bytes our own child wrote
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        reader.close()
        if alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
