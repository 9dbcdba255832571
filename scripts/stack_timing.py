#!/usr/bin/env python3
"""Time the network stack in process, free of loopback and thread wake-ups.

Prints the median µs of one ``StackEndpoint.send`` plus the peer's
``receive`` at 15, 300 and 1377 B of payload for each frame profile, and of
one NON observation exchange (node, gateway, ``StoreSession``, in-memory
store) on the virtual clock. Each figure is the median over ``--repeat``
rounds of the mean of ``--number`` calls.

    python3 scripts/stack_timing.py [--repeat 7] [--number 300]

It imports ``iotpipe`` from the ``src/`` directory next to this script, so
a second checkout can be timed the same way.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iotpipe import gateway, link154, node, sensorthings, stack  # noqa: E402
from iotpipe.clock import VirtualClock  # noqa: E402

SIZES = (15, 300, 1377)


def median_us(step, repeat: int, number: int) -> float:
    step()  # fills whatever is filled on first use
    rounds = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            step()
        rounds.append((time.perf_counter() - t0) / number * 1e6)
    return statistics.median(rounds)


def stack_step(profile: str, size: int):
    link = link154.SimulatedLink()
    node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config(profile=profile))
    gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config(profile=profile))
    payload = bytes(i & 0xFF for i in range(size))

    def step():
        node_ep.send(payload)
        [datagram] = gw_ep.receive()
        assert datagram.payload == payload
    return step


def exchange_step():
    clock = VirtualClock()
    store = sensorthings.Store()
    sensorthings.seed_default_entities(store)
    link = link154.SimulatedLink()
    gw = gateway.Gateway(
        stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config()),
        gateway.UpstreamConfig(base_url="http://sim/v1.0"),
        session=gateway.StoreSession(store, clock))
    sensor = node.Node(node.NodeConfig(), stack.StackEndpoint(
        link.endpoints[0], stack.node_stack_config()), clock)

    def step():
        record = sensor.send_observation(pump=gw.process_pending)
        assert record.outcome == "acked"
    return step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed rounds per figure")
    parser.add_argument("--number", type=int, default=300, help="calls per round")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        parser.error("--repeat and --number must be positive")

    print("%-36s %10s" % ("StackEndpoint.send + receive", "median µs"))
    for profile in link154.PROFILES:
        for size in SIZES:
            us = median_us(stack_step(profile, size), args.repeat, args.number)
            print("  %-10s %5d B %19s %10.1f" % (profile, size, "", us))
    us = median_us(exchange_step(), args.repeat, args.number)
    print("%-36s %10.1f" % ("NON exchange through StoreSession", us))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
