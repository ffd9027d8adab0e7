"""Host speed, sampled while ops run, to take host drift out of op times.

The benchmark's host is a few vCPUs of a shared machine. Its speed for
the same pure-Python work moves by 20-40% over seconds to minutes as
other tenants come and go: a fixed 100 ms chunk of integer work had an
interquartile range of 30% of its median in one 90 s run, and 10 s
windows of it moved between 0.83 and 1.13 of the median. Runs of the
same code at different times then differ by more than any useful
regression bound.

A :class:`Sampler` interrupts the process every ``PERIOD_S`` seconds
with ``SIGALRM`` and times a fixed ``kernel`` (below 1 ms) of the same
kind of work as the library: exact integer row reduction and hashing of
tuples. The kernel is the benchmark's own code, so no library change
moves it. An op's time, with the kernel's own time inside it taken out,
is scaled by ``REFERENCE_S`` over the mean kernel time in a window
around the op: the result is the op's time at the host speed at which
the kernel takes ``REFERENCE_S``.

Of set-up time only the input build is scaled, by the samples taken
while it ran; on charts, where it builds a fan, that took the range of
ten set-ups from 0.69-1.28 s to 0.85-1.06 s. Process start and loading
of modules are left as timed: they tracked the kernel poorly, and
scaling them widened the spread of set-up times across runs. On box-h3 this took the spread of 12 s
window medians from 23% to 4% of their median.
"""

import bisect
import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
# samples within this many seconds of an op count for it
PAD_S = 0.1
# the kernel's median time on the 2-vCPU x86 container the benchmark was
# defined on; any fixed value would do, as long as it never changes
REFERENCE_S = 0.00063


def kernel(rounds=6):
    """Fraction-free elimination of small integer matrices and hashing of
    their rows."""
    total = 0
    for k in range(rounds):
        m = [[(i * 7 + j * 13 + k) % 11 - 5 for j in range(8)] for i in range(6)]
        r = 0
        for c in range(8):
            p = next((i for i in range(r, 6) if m[i][c]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            for i in range(6):
                if i != r and m[i][c]:
                    a, b = m[r][c], m[i][c]
                    m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
            r += 1
        total += len({tuple(x % 97 for x in row) for row in m})
    return total


class Sampler:
    def __init__(self):
        self.starts = []
        self.times = []
        # seconds spent in the kernel so far; an op subtracts its share
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        # no collection of the op's heap may be billed to the kernel
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(dt)
        self.spent += dt

    def install(self):
        kernel()  # warm up
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        """Host slowness around ``[start, end]``: mean kernel time in the
        window over ``REFERENCE_S``; the nearest sample if none fell in it."""
        i = bisect.bisect_left(self.starts, start - PAD_S)
        j = bisect.bisect_right(self.starts, end + PAD_S)
        if i == j:
            if not self.starts:
                raise RuntimeError("no host speed samples were taken")
            i = min(i, len(self.starts) - 1)
            j = i + 1
        return statistics.fmean(self.times[i:j]) / REFERENCE_S
