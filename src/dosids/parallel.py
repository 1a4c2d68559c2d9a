"""Process pools for the pipeline's independent jobs.

The per-class GANs and each atom-search generation are independent jobs
whose results must not depend on how many processes run them. `map_jobs`
runs them in order in this process when there is at most one worker, and
on a fork-context pool otherwise.

Fork, not spawn: the jobs are closures over in-memory data (and a tracer
may wrap them in further closures), so they cannot be pickled, and the
pipeline starts no threads of its own. Workers inherit the job function
through the fork; only its arguments and results cross a pipe.
"""

import contextlib
import os


def available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell
    (no sched_getaffinity on macOS or Windows), which keeps work serial."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def openblas_function(names):
    """The first of `names` that an OpenBLAS loaded in this process
    exports, as a ctypes function, or None. Linux only: the libraries are
    found in /proc/self/maps."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def _limit_blas_to_one_thread():
    """The workers already use every CPU, so each BLAS call runs on one
    thread. A forked worker keeps OpenBLAS's default of a thread per CPU;
    on a 2-CPU Xeon VM a desk-preset tune then took 74 s against 21 s with
    one. Without a known OpenBLAS setter this does nothing."""
    import ctypes
    setter = openblas_function(("openblas_set_num_threads", "openblas_set_num_threads64_",
                                "scipy_openblas_set_num_threads",
                                "scipy_openblas_set_num_threads64_"))
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


_worker_function = None   # set in each pool worker by _init_worker


def _init_worker(function):
    global _worker_function
    _worker_function = function
    _limit_blas_to_one_thread()


def _call_worker_function(arg):
    return _worker_function(arg)


@contextlib.contextmanager
def map_jobs(function, workers: int):
    """Yield a function mapping a list of arguments through `function`,
    results in argument order. With more than one worker the calls run on
    a fork-context process pool, which is terminated and joined on exit,
    also on error; a worker's exception reaches the caller."""
    if workers <= 1:
        yield lambda args: [function(a) for a in args]
        return
    # Imported here: it adds about 10 ms to every start, and only a
    # parallel run needs it.
    import multiprocessing
    pool = multiprocessing.get_context("fork").Pool(workers, _init_worker, (function,))
    try:
        yield lambda args: pool.map(_call_worker_function, args, chunksize=1)
    finally:
        pool.terminate()
        pool.join()
