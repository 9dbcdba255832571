import pytest

from iotpipe import gateway, link154, node, sensorthings, stack
from iotpipe.clock import VirtualClock


def make_endpoint(loss=0.0, seed=0):
    link = link154.SimulatedLink(link154.LinkConfig(loss_probability=loss, seed=seed))
    return stack.StackEndpoint(link.endpoints[0], stack.node_stack_config()), link


def send(config, endpoint, count):
    """Send records of ``count`` observations from a fresh node with no gateway."""
    sensor = node.Node(config, endpoint, VirtualClock())
    return [sensor.send_observation() for _ in range(count)]


def test_payload_for_four_digit_result_is_15_bytes():
    assert node.serialize_payload(2143) == b'{"result":2143}'
    assert len(node.serialize_payload(2143)) == 15


def test_payload_sizes_follow_digit_count():
    assert node.serialize_payload(0) == b'{"result":0}'
    assert node.serialize_payload(-5) == b'{"result":-5}'


def test_calibrated_compressed_frame_is_67_bytes():
    endpoint, _link = make_endpoint()
    records = send(node.NodeConfig(), endpoint, 5)
    for record in records:
        assert record.total_frame_bytes == 67
        assert record.payload_bytes == 15
        assert record.coap_overhead_bytes == 22
        assert record.net_transport_bytes == 9
        assert record.link_overhead_bytes == 21


def test_uncompressed_stack_sizes():
    link = link154.SimulatedLink()
    endpoint = stack.StackEndpoint(
        link.endpoints[0], stack.node_stack_config(compress=False)
    )
    records = send(node.NodeConfig(), endpoint, 1)
    # uncompressed on-air form carries the 1-byte IPv6 dispatch
    assert records[0].net_transport_bytes == 49
    assert records[0].total_frame_bytes == 15 + 22 + 49 + 21


def test_con_total_loss_retransmits_then_fails():
    endpoint, _link = make_endpoint(loss=1.0)
    cfg = node.NodeConfig(
        reliability=node.Reliability(confirmable=True, max_retransmit=4)
    )
    records = send(cfg, endpoint, 2)
    for record in records:
        assert record.attempts == 5
        assert record.outcome == "failed"


def test_send_record_json_round_trips():
    import json

    endpoint, _link = make_endpoint()
    records = send(node.NodeConfig(), endpoint, 1)
    loaded = json.loads(records[0].to_json())
    assert loaded["result"] == 2143
    assert bytes.fromhex(loaded["payload_hex"]) == b'{"result":2143}'


# -- the wait for a reply ------------------------------------------------------

CON = node.NodeConfig(reliability=node.Reliability(confirmable=True))


@pytest.fixture
def exchange_rig(serve):
    """``exchange_rig(link_config, config=CON)``: a node (CON unless
    ``config`` says otherwise) and a gateway on one link, the gateway
    answering from a BackendServer on the node's clock in its own thread.
    Returns the node, the gateway, the store, the pump to pass the node and
    the list of times it was called."""
    def build(link_config, config=CON):
        clock = VirtualClock(100.0)
        link = link154.SimulatedLink(link_config)
        store = sensorthings.Store()
        sensorthings.seed_default_entities(store)
        gw = gateway.Gateway(
            stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config()),
            gateway.UpstreamConfig(base_url=serve(store, clock).base_url),
        )
        sensor = node.Node(config, stack.StackEndpoint(
            link.endpoints[0], stack.node_stack_config()), clock)
        pumps = []

        def pump(now):
            pumps.append(now)
            gw.process_pending(now)

        return sensor, gw, store, pump, pumps
    return build


def test_non_send_pumps_once_at_its_send_time(exchange_rig):
    sensor, _gw, store, pump, pumps = exchange_rig(link154.LinkConfig(), node.NodeConfig())
    t0 = sensor.clock.now()
    record = sensor.send_observation(pump=pump)
    assert (record.outcome, record.response_code, record.attempts) == ("acked", "2.01", 1)
    assert pumps == [t0]
    assert sensor.clock.now() == record.time == t0
    assert store.count("Observations") == 1


def test_lost_non_request_fails_after_one_attempt_and_one_pump(exchange_rig):
    sensor, _gw, store, pump, pumps = exchange_rig(link154.LinkConfig(loss_probability=1.0),
                                                   node.NodeConfig())
    t0 = sensor.clock.now()
    record = sensor.send_observation(pump=pump)
    assert (record.outcome, record.attempts) == ("failed", 1)
    assert pumps == [t0]
    assert sensor.clock.now() == t0
    assert store.count("Observations") == 0


def test_con_wait_pumps_at_most_twice_per_attempt(exchange_rig):
    # One poll after each send and one at its deadline.
    sensor, _gw, _store, pump, pumps = exchange_rig(
        link154.LinkConfig(loss_probability=0.3, seed=4))
    for _ in range(200):
        sensor.clock.sleep(10.0)
        before = len(pumps)
        record = sensor.send_observation(pump=pump)
        assert len(pumps) - before <= 2 * record.attempts
    assert sum(r.attempts > 1 for r in sensor.records) > 10
    assert sum(r.outcome == "acked" for r in sensor.records) > 150


def test_con_wait_wakes_for_each_frame_in_flight(exchange_rig):
    sensor, _gw, store, pump, pumps = exchange_rig(link154.LinkConfig(latency=0.3))
    t0 = sensor.clock.now()
    record = sensor.send_observation(pump=pump)
    assert record.outcome == "acked" and record.attempts == 1
    assert record.time == pytest.approx(t0 + 0.6)
    assert pumps == pytest.approx([t0, t0 + 0.3, t0 + 0.6])
    assert store.count("Observations") == 1


def test_reply_slower_than_the_ack_timeout_acks_the_retransmitted_exchange(exchange_rig):
    # A 3-s round trip: the retransmission at t0 + 2 s is still in flight
    # when the reply to the first send arrives at t0 + 3 s.
    sensor, gw, store, pump, _pumps = exchange_rig(link154.LinkConfig(latency=1.5))
    t0 = sensor.clock.now()
    first = sensor.send_observation(pump=pump)
    assert first.outcome == "acked" and first.attempts == 2
    assert first.time == pytest.approx(t0 + 3.0)
    assert sensor.endpoint.link.next_due() == pytest.approx(t0 + 3.5)

    sensor.clock.sleep(10.0)
    second = sensor.send_observation(pump=pump)
    assert second.outcome == "acked"
    assert gw.metrics.dedup_hits == 1
    assert store.count("Observations") == 2
