from iotpipe import link154, node, stack
from iotpipe.clock import VirtualClock


def make_endpoint(loss=0.0, seed=0):
    link = link154.SimulatedLink(link154.LinkConfig(loss_probability=loss, seed=seed))
    return stack.StackEndpoint(link.endpoints[0], stack.node_stack_config()), link


def test_payload_for_four_digit_result_is_15_bytes():
    assert node.serialize_payload(2143) == b'{"result":2143}'
    assert len(node.serialize_payload(2143)) == 15


def test_payload_sizes_follow_digit_count():
    assert node.serialize_payload(0) == b'{"result":0}'
    assert node.serialize_payload(-5) == b'{"result":-5}'


def test_virtual_clock_100s_period_10_gives_10_records():
    endpoint, _link = make_endpoint()
    clock = VirtualClock()
    records = node.run_node(node.NodeConfig(period=10.0), endpoint, clock,
                            duration=100.0)
    assert len(records) == 10
    assert [r.time for r in records] == [10.0 * (i + 1) for i in range(10)]


def test_calibrated_compressed_frame_is_67_bytes():
    endpoint, _link = make_endpoint()
    clock = VirtualClock()
    records = node.run_node(node.NodeConfig(), endpoint, clock, count=5)
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
    records = node.run_node(node.NodeConfig(), endpoint, VirtualClock(), count=1)
    # uncompressed on-air form carries the 1-byte IPv6 dispatch
    assert records[0].net_transport_bytes == 49
    assert records[0].total_frame_bytes == 15 + 22 + 49 + 21


def test_con_total_loss_retransmits_then_fails():
    endpoint, _link = make_endpoint(loss=1.0)
    clock = VirtualClock()
    cfg = node.NodeConfig(
        reliability=node.Reliability(confirmable=True, max_retransmit=4)
    )
    records = node.run_node(cfg, endpoint, clock, count=2)
    for record in records:
        assert record.attempts == 5
        assert record.outcome == "failed"


def test_random_walk_source_is_seeded():
    a = node.RandomWalkTemperature(seed=3)
    b = node.RandomWalkTemperature(seed=3)
    assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]


def test_send_record_json_round_trips():
    import json

    endpoint, _link = make_endpoint()
    records = node.run_node(node.NodeConfig(), endpoint, VirtualClock(), count=1)
    loaded = json.loads(records[0].to_json())
    assert loaded["result"] == 2143
    assert bytes.fromhex(loaded["payload_hex"]) == b'{"result":2143}'
