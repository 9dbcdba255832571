#!/usr/bin/env python3
"""Time the network stack in process, free of loopback and thread wake-ups.

Prints the median µs of one ``StackEndpoint.send`` plus the peer's
``receive`` at 15, 300 and 1377 B of payload for each frame profile, and of
one NON observation exchange on the virtual clock: node, gateway and
``HttpSession`` to a started ``BackendServer`` on an in-memory store, which
answers it in the caller's thread. Each figure is the median over
``--repeat`` rounds of the mean of ``--number`` calls. Last, it prints the
µs of the newest 100-row page of ``Datastreams(1)/Observations`` read
through ``sensorthings.respond`` at 2k and 50k stored rows: cold (the median
first read of each of the 20 newest pages, whose entities were never
rendered) and warm (the same page read again). Both should be flat in store size.
Then it prints the median ms of ``Store.recover`` over ``--repeat`` replays
of a 2k-row and a 50k-row journal, each built like the benchmark's
``read-mix`` base journal (the seed entities, then ``{"result": n}`` rows),
and that median per record.

    python3 scripts/stack_timing.py [--repeat 7] [--number 300]

It imports ``iotpipe`` from the ``src/`` directory next to this script, so
a second checkout can be timed the same way.
"""

import argparse
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iotpipe import gateway, link154, node, sensorthings, stack  # noqa: E402
from iotpipe.clock import VirtualClock  # noqa: E402

SIZES = (15, 300, 1377)
PAGE_ROWS = (2_000, 50_000)
REPLAY_ROWS = (2_000, 50_000)


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


def exchange_timing(repeat: int, number: int) -> float:
    """µs of one NON observation from a node through a gateway to a
    ``BackendServer`` on the node's clock, over the in-thread HTTP hop."""
    clock = VirtualClock()
    store = sensorthings.Store()
    sensorthings.seed_default_entities(store)
    server = sensorthings.BackendServer(store, clock=clock).start()
    link = link154.SimulatedLink()
    gw = gateway.Gateway(
        stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config()),
        gateway.UpstreamConfig(base_url=server.base_url))
    sensor = node.Node(node.NodeConfig(), stack.StackEndpoint(
        link.endpoints[0], stack.node_stack_config()), clock)

    def step():
        record = sensor.send_observation(pump=gw.process_pending)
        assert record.outcome == "acked"
    try:
        return median_us(step, repeat, number)
    finally:
        gw.session.close()
        server.stop()


def page_timing(rows: int, repeat: int, number: int):
    """(cold, warm) µs of a 100-row page read at ``rows`` stored observations."""
    store = sensorthings.Store()
    sensorthings.seed_default_entities(store)
    for i in range(rows):
        store.ingest_observation(1, {"result": i}, receipt_time=float(i))

    def read(skip):
        status, _, _ = sensorthings.respond(
            store, "GET", "/v1.0/Datastreams(1)/Observations?$top=100&$skip=%d" % skip, b"", 0.0)
        assert status == 200

    cold = []
    for page in range(1, 21):
        t0 = time.perf_counter()
        read(rows - 100 * page)
        cold.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(cold), median_us(lambda: read(rows - 100), repeat, number)


def replay_timing(rows: int, repeat: int):
    """(median ms, µs per record) of ``Store.recover`` on a journal of the
    seed entities and ``rows`` observations."""
    rng = random.Random(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/journal.jsonl"
        store = sensorthings.Store(journal_path=path)
        sensorthings.seed_default_entities(store)
        for i in range(rows):
            store.ingest_observation(1, {"result": rng.randint(1000, 9999)},
                                     receipt_time=1.5e9 + i)
        store.close()
        with open(path, "rb") as handle:
            records = handle.read().count(b"\n")
        rounds = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            store = sensorthings.Store.recover(path)
            rounds.append(time.perf_counter() - t0)
            store.close()
    ms = statistics.median(rounds) * 1e3
    return ms, ms * 1e3 / records


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
    print("%-36s %10.1f" % ("NON exchange, in-thread HTTP hop",
                            exchange_timing(args.repeat, args.number)))
    print("%-36s %10s %10s" % ("100-row page through respond", "cold µs", "warm µs"))
    for rows in PAGE_ROWS:
        cold, warm = page_timing(rows, args.repeat, args.number)
        print("  %6d rows %33.1f %10.1f" % (rows, cold, warm))
    print("%-36s %10s %10s" % ("Store.recover of a journal", "median ms", "µs/record"))
    for rows in REPLAY_ROWS:
        ms, us = replay_timing(rows, args.repeat)
        print("  %6d rows %33.2f %10.2f" % (rows, ms, us))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
