"""Calibration probe: a fixed pure-Python loop, timed in short bursts on the
workload's CPU while the workload runs.

    python3 perfbench/calibrate.py    # prints "ready", then burst times once stdin closes

The host is shared: each vCPU slows down by up to 1.8x on its own schedule,
flipping within seconds, so samples taken before and after a pass do not
track what the pass saw. The probe runs one burst (about 1 ms) every
PERIOD_S for as long as its stdin stays open, taking about 2% of the CPU,
and prints every burst time in seconds when stdin closes. The loop
exercises what the starlab kernels spend their time on (list indexing into
small lookup tables, tuple building, dict probes) and never changes with
the program, so dividing by it cancels host speed and nothing else.
"""

import select
import sys
import time

ROUNDS = 400
PERIOD_S = 0.05


def loop(rounds=ROUNDS):
    add = [[(a + b) % 7 for b in range(7)] for a in range(7)]
    mul = [[(a * b) % 7 for b in range(7)] for a in range(7)]
    row = tuple(range(7)) * 2
    seen = {}
    acc = 0
    for i in range(rounds):
        c = i % 7
        row = tuple(add[x][mul[c][y]] for x, y in zip(row, row[1:] + row[:1]))
        key = row[:4]
        seen[key] = seen.get(key, 0) + 1
        acc ^= hash(key) & 0xFFFF
    return acc, len(seen)


def main():
    samples = []
    while True:
        started = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - started)
        if len(samples) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(" ".join(f"{s:.7f}" for s in samples), flush=True)


if __name__ == "__main__":
    main()
