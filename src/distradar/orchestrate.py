"""Central-node / cluster-node message accounting around the ADMM loop.

solvers.run already has the hybrid structure of the paper: each cluster
node's local update reads only its own operator, measurements, previous
local image and the central node's last downlink; the central node runs
the global and dual updates and the stopping check. This module names the
messages of that schedule, replays them as a per-iteration trace of a
run, and accounts for its payload volume.
"""

import csv
from dataclasses import dataclass

from . import solvers
from .solvers import CADMM, SADMM

UPLINK = "uplink"
BROADCAST = "broadcast"
UNICAST = "unicast"

LOCAL_IMAGE = "local_image"
GLOBAL_IMAGE = "global_image"
DUAL_FULL = "dual_full"
DUAL_SLICE = "dual_slice"
SUM_IMAGE = "sum_image"


@dataclass(frozen=True)
class MessageRecord:
    iter: int
    direction: str
    sender: str  # "central" or "cluster:<q>"
    payload_kind: str
    payload_len: int


def iteration_schedule(method, q_count, n, iteration=1):
    """Message records exchanged during one outer iteration.

    CADMM: Q local-image uplinks, one global-image broadcast, Q unicast
    dual slices (each cluster needs only its own slice). SADMM: Q uplinks,
    then broadcasts of the global image, the full dual, and the sum image;
    the downlink volume is 3N regardless of Q.
    """
    if q_count < 1 or n < 1:
        raise ValueError("q_count and n must be >= 1")
    records = [MessageRecord(iteration, UPLINK, f"cluster:{q}", LOCAL_IMAGE, n)
               for q in range(q_count)]
    records.append(MessageRecord(iteration, BROADCAST, "central", GLOBAL_IMAGE, n))
    if method == CADMM:
        records.extend(MessageRecord(iteration, UNICAST, "central", DUAL_SLICE, n)
                       for _ in range(q_count))
    elif method == SADMM:
        records.append(MessageRecord(iteration, BROADCAST, "central", DUAL_FULL, n))
        records.append(MessageRecord(iteration, BROADCAST, "central", SUM_IMAGE, n))
    else:
        raise ValueError(f"unknown method {method!r}")
    return records


def downlink_elements_per_iteration(method, q_count, n):
    """Total central-to-cluster payload elements in one iteration."""
    return sum(r.payload_len for r in iteration_schedule(method, q_count, n)
               if r.direction in (BROADCAST, UNICAST))


def run_message_passing(method, operators, measurements, cfg):
    """Run the chosen engine and list the messages its iterations exchange.

    Returns (ReconstructionResult, trace). The result is solvers.run's;
    the trace holds iteration_schedule's records for every outer
    iteration the run performed.
    """
    result = solvers.run(method, operators, measurements, cfg)
    q_count, n = result.state.local_images.shape
    trace = [record for k in range(1, result.state.iter + 1)
             for record in iteration_schedule(method, q_count, n, k)]
    return result, trace


def export_trace(trace, path):
    """Write the message trace as CSV: iter,direction,sender,payload_kind,payload_len."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "direction", "sender", "payload_kind", "payload_len"])
        for r in trace:
            writer.writerow([r.iter, r.direction, r.sender, r.payload_kind,
                             r.payload_len])
