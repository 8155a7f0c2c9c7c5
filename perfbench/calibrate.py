"""Host-speed calibration: a fixed pure-Python kernel timed during every pass.

The benchmark shares a few cores of a host with other tenants, and that
host's speed drifts by tens of percent over seconds to minutes (CPU time
drifts with wall time, so this is not scheduling). A pass's raw time
therefore says as much about the host as about zetasech. Every child
interpreter times this kernel before its pass, during it (one kernel on each
tick of a timer, see ``Sampler``) and after it; ``run.py`` scales
the pass's times by ``REFERENCE_S / mean kernel time``, which reports them in
seconds of a host on which the kernel takes ``REFERENCE_S``. The kernel lives
in the benchmark's own files, so a change to zetasech cannot change it.

The kernel mixes what zetasech's interpreter spends its time on: recursive
walks over small tuple trees with dict lookups, ``math`` calls on floats, and
``Fraction`` arithmetic. It imports only stdlib modules, and the child
imports it after its setup clock has stopped.
"""
import gc
import math
import signal
import time
from fractions import Fraction

# About the mean kernel time on a 2-core x86_64 Linux container shared with
# other tenants, CPython 3.11.7, so that scaled times read close to raw ones
# there. It sets the scale only; changing it changes every reported time.
REFERENCE_S = 0.02

_TREE = ("add", ("mul", ("var", "a"), ("exp", ("neg", ("var", "t")))),
         ("div", ("cosh", ("var", "t")), ("add", ("const", 2.0), ("var", "t"))))
_UNARY = {"exp": math.exp, "cosh": math.cosh, "neg": lambda x: -x}


def _walk(node, env):
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "const":
        return node[1]
    if op in _UNARY:
        return _UNARY[op](_walk(node[1], env))
    x, y = _walk(node[1], env), _walk(node[2], env)
    if op == "add":
        return x + y
    if op == "mul":
        return x * y
    return x / y


def kernel():
    """One fixed unit of work; returns a checksum that never changes."""
    env = {"a": 1.5, "t": 0.0}
    acc = 0.0
    for i in range(12000):
        env["t"] = i * 1e-3
        acc += _walk(_TREE, env)
    exact = Fraction(0)
    for k in range(1, 160):
        exact += Fraction((-1) ** k, k * k + 1)
    return round(acc, 6), exact.numerator % 1000003


CHECKSUM = kernel()


def timed_kernel():
    """Seconds for one kernel, with the collector off: its cost grows with
    the heap the pass has built, which is not host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if kernel() != CHECKSUM:
            raise RuntimeError("calibration kernel gave a different checksum")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(repeats):
    """Times of ``repeats`` kernels run back to back."""
    return [timed_kernel() for _ in range(repeats)]


class Sampler:
    """Times one kernel ``interval_s`` after the last one while a pass runs.

    The handler runs in the main thread between bytecodes, so no thread is
    started. ``spent`` is the time spent inside the handler, which the caller
    subtracts from the pass's wall time.
    """

    def __init__(self, interval_s=0.2):
        self.interval_s = interval_s
        self.times = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.times.append(timed_kernel())
        # one-shot timer, re-armed here: a tick never lands inside a kernel
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
