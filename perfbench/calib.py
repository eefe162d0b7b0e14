"""The fixed calibration loop that measures how fast this machine runs now.

Pure Python that imports nothing, so a change to kmlat cannot make it
faster or slower.  It does the kinds of work kmlat's hot paths do: method
calls on small slotted objects, lookups in list-of-lists tables, small
dicts and tuples, and hashing.  child.py times it right before set-up,
every PROBE_EVERY_S seconds during the job (a short sample, from a timer
signal) and right after the job, and scales every time it reports by
C_REF / (the mean of those samples).
"""

# Reference duration of calibrate(), in seconds: the loop's usual time on
# the machine the reference figures in README.md come from, when its CPU is
# not slowed by neighbours.  Normalized times are "seconds at the speed at
# which this loop takes C_REF".
C_REF = 0.0125

ROUNDS = 20000
PROBE_ROUNDS = 1000
PROBE_EVERY_S = 0.025


class _Cell:
    __slots__ = ("code", "tab")

    def __init__(self, code, tab):
        self.code = code
        self.tab = tab

    def mul(self, other):
        return _Cell(self.tab[self.code][other.code], self.tab)


_Q = 31
_TAB = [[(i * j) % _Q for j in range(_Q)] for i in range(_Q)]
_CELLS = [_Cell(i, _TAB) for i in range(_Q)]


def _work(rounds):
    cells = _CELLS
    seen = {}
    acc = 0
    for r in range(rounds):
        z = cells[r % _Q].mul(cells[(r * 7 + 3) % _Q])
        key = (z.code, r & 63)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc + hash(key)) & 0xFFFF
    return acc + len(seen)


def calibrate(perf_counter, rounds=ROUNDS):
    """Time of `rounds` rounds of the loop, scaled to ROUNDS rounds."""
    t0 = perf_counter()
    _work(rounds)
    return (perf_counter() - t0) * ROUNDS / rounds
