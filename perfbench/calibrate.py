"""A fixed pure-Python workload that measures how fast the machine is now.

It shares no code with lntm, so no change to the program can move it. The
benchmark runs it as a fresh process between program calls, exactly as it
runs the program, and scales each call's time by ``REFERENCE_S / m``, where
``m`` is the mean time of the four calibration runs nearest the call. On a
shared host whose speed drifts by tens of percent within minutes, this
cancels most of the drift the program and the calibration both see (see
README.md for the measurements).
"""

import heapq
import json
import struct

# typical wall time of this script, process start included, on the host the
# benchmark was tuned on (2 vCPU Xeon, Python 3.11); it only sets the scale
REFERENCE_S = 0.2


def work() -> int:
    frame = struct.Struct(">QI")
    table: dict[bytes, tuple[int, int]] = {}
    items: list[tuple[int, bytes]] = []
    x = 12345
    for i in range(24_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = frame.pack(x, i) + x.to_bytes(4, "big") * 4
        table[key] = (x % 977, i)
        items.append((x % 1000, key))
    items.sort()
    heap: list[tuple[int, int]] = []
    for v, key in items:
        heapq.heappush(heap, (table[key][0], v))
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    text = json.dumps({str(i): [v, key.hex()] for i, (v, key) in enumerate(items[:5000])}, sort_keys=True)
    return total + len(json.loads(text))


if __name__ == "__main__":
    work()
