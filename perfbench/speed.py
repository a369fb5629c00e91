"""Host speed from a fixed reference loop, for timing at reference speed.

The shared host's CPU speed drifts by +-20% (at worst +-50%) over tens of
seconds.  A loop that allocates small objects and fills a dict with SHA-256
keys tracked that drift to within 6-10% over 16 s windows, for ops of
prp-exact-small, prp-exact-large, scale-batch and oss-paper whose raw times
moved by 47-69%; loops of pure bytecode, bigint arithmetic or numpy calls
tracked it two to three times worse, even for the ops made of those.  Nothing here calls the library, so a change to
the program never moves the reference.
"""

import hashlib
import time

NOMINAL_S = 0.003  # the loop's time at reference speed, on the 2-core host


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _reference_loop() -> None:
    nodes = [_Node(i, i + 1, None) for i in range(6_000)]
    acc = 0
    for node in nodes:
        acc += node.a * node.b
    table, key = {}, b"k"
    for i in range(1_500):
        key = hashlib.sha256(key).digest()
        table[key] = i
    for key in table:
        acc += table[key]


def speed() -> float:
    """NOMINAL_S over the faster of two timings of the reference loop: 1.0 is
    reference speed, below 1.0 the host is slower."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t)
    return NOMINAL_S / best
