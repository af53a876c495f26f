"""Machine speed, read from a fixed reference kernel timed between CLI runs.

The host under this benchmark runs pure-Python and numpy code slower or
faster by a third and more over seconds to minutes (NOTES.md, "Machine-speed
scaling").  A fixed piece of work, timed just before and just
after each CLI run, measures how fast the machine ran at that moment.  The
end-to-end times are scaled by it to the speed at which the kernel takes
``REFERENCE_S[n]``: a run made while the machine ran 20% slow is scaled down
by that 20%.  The kernel is the benchmark's own code, not semigeo's, so a
change to the program leaves it alone and shows in full in the scaled times.

The kernel has two halves of about equal time.  One has the shape of an
``apply_operator`` call with mixed terms on the workload's n^3 grid: strided
3x3 tensor products, face differences, face averages and a transposed
difference, all float64 numpy.  It writes only into arrays allocated up
front, so its timings do not depend on how the allocator was left by the CLI
run before them: temporaries allocated afresh fault in new pages until the
first CLI run has grown the heap, and read up to a third slower there.  The
other half is interpreter work of the kind the CLI's artifact writers do,
``repr`` of numpy scalars joined into text.  The host's slowdowns do not hit
numpy and the interpreter alike; against the CLI runs of ``cg-bump48`` and
``fields-identity32`` the two halves together tracked the run times better
than either alone (NOTES.md, "Machine-speed scaling").
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds of one kernel call per grid size, from a short timing on the
# machine NOTES.md describes.  They set the scale, not the spread: any fixed
# value gives the same relative spread and the same comparisons between
# commits.
REFERENCE_S = {32: 0.0050, 48: 0.0190}
# Each timing runs the kernel back to back for at least this long, so that it
# averages over the sub-second swings of the machine as a CLI run does.
SAMPLE_S = 0.25


class Kernel:
    def __init__(self, n: int):
        rng = np.random.default_rng(n)
        self.q = rng.random((n, n, n))
        self.tensor = rng.random((n, n, n, 3, 3))
        # Face coefficients per axis, with that axis moved to the front.
        self.faces = [rng.random((n - 1, n, n)) for _ in range(3)]
        self.out, self.cross, self.tmp = (np.empty((n, n, n)) for _ in range(3))
        self.avg = np.empty((n - 1, n, n))
        self.scalars = list(self.q.reshape(-1)[: n ** 3 // 32])
        self.reference = REFERENCE_S[n]

    def once(self) -> None:
        q, out, cross, tmp, avg = self.q, self.out, self.cross, self.tmp, self.avg
        out.fill(0.0)
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            np.multiply(self.tensor[..., a, b], q, out=cross)
            np.multiply(self.tensor[..., a, c], q, out=tmp)
            cross += tmp
            qa, ca, ta, oa = (np.moveaxis(x, a, 0) for x in (q, cross, tmp, out))
            flux = ta[:-1]
            np.subtract(qa[1:], qa[:-1], out=flux)
            flux *= self.faces[a]
            np.add(ca[1:], ca[:-1], out=avg)
            avg *= 0.5
            flux += avg
            oa[:-1] -= flux
            oa[1:] += flux
        "\n".join(repr(x) for x in self.scalars)

    def seconds(self) -> float:
        """Mean wall time of one call, over at least SAMPLE_S of calls."""
        calls, start = 0, perf_counter()
        while True:
            self.once()
            calls += 1
            elapsed = perf_counter() - start
            if elapsed >= SAMPLE_S:
                return elapsed / calls

    def scale(self) -> float:
        """Factor that takes a time measured now to the reference speed."""
        return self.reference / self.seconds()
