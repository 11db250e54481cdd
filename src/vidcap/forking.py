"""One forked worker process beside the calling one.

`harness.run_experiment` trains roster models 2..k in the worker while the
calling process trains model 1 and the evaluator. The worker inherits the
caller's memory through `fork`, so only its result crosses the pipe,
pickled.
"""

import os
from contextlib import contextmanager


def _can_fork() -> bool:
    """Whether a forked worker can run beside this process: it may use two or
    more CPUs and runs a single thread. `run_experiment` asks it before it
    forks. Another thread would not exist in the child, and a BLAS thread
    pool would compete with the child for the CPUs: with OpenBLAS's default
    pool on a 2-CPU machine, a default run_experiment took 9-19 s with the
    worker against 4.6-6.6 s without it. The `vidcap` command pins BLAS to
    one thread, so its `run` passes. Where the thread count cannot be read
    (no /proc), the answer is no."""
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


@contextmanager
def _worker(fn, stage: str):
    """Run fn() in a forked child process while the with-block runs; the block
    gets a `join` that returns fn's result or raises the exception it raised.
    The child always leaves through os._exit, and the parent kills and reaps
    it on every way out of the block. `stage` names the work in the error
    raised when the child dies without a result."""
    import pickle
    import signal  # here: a cold import of vidcap.harness loads no signal (about 0.8 ms)

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
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
