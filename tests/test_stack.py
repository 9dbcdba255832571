import pytest

from iotpipe import gateway, link154, lowpan, node, stack
from iotpipe.clock import VirtualClock

PROFILES = ("calibrated", "extended")
COMPRESSED_HEADER_BYTES = 9  # the calibrated IPHC/NHC header of every node datagram


class FrameRecorder:
    """A link endpoint that keeps a copy of every frame sent through it."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.sent = []

    def send(self, wire, now=0.0):
        self.sent.append(wire)
        return self.endpoint.send(wire, now=now)

    def receive(self, now=None):
        return self.endpoint.receive(now)


def endpoint_pair(profile):
    link = link154.SimulatedLink()
    node_ep = stack.StackEndpoint(FrameRecorder(link.endpoints[0]),
                                  stack.node_stack_config(profile=profile))
    gw_ep = stack.StackEndpoint(FrameRecorder(link.endpoints[1]),
                                stack.gateway_stack_config(profile=profile))
    return node_ep, gw_ep


@pytest.mark.parametrize("profile", PROFILES)
def test_frames_match_the_derived_overhead_at_every_payload_size(profile):
    node_ep, gw_ep = endpoint_pair(profile)
    include_fcs = link154.PROFILES[profile].include_fcs
    largest = lowpan.MAX_DATAGRAM - COMPRESSED_HEADER_BYTES
    for size in range(largest + 1):
        payload = bytes(i & 0xFF for i in range(size))
        del node_ep.link.sent[:]
        tx = node_ep.send(payload)
        link_payload_bytes = 0
        for wire in node_ep.link.sent:
            assert len(wire) <= link154.MAX_FRAME
            frame_payload = link154.LinkFrame.parse(wire, include_fcs=include_fcs).payload
            assert len(wire) - len(frame_payload) == node_ep.link_overhead
            link_payload_bytes += len(frame_payload)
        assert tx.frame_sizes == [len(wire) for wire in node_ep.link.sent]
        assert tx.link_overhead_bytes == sum(tx.frame_sizes) - link_payload_bytes
        [datagram] = gw_ep.receive()
        assert datagram.payload == payload
    with pytest.raises(lowpan.DatagramTooLarge):
        node_ep.send(bytes(largest + 1))


@pytest.mark.parametrize("reading,frames", [(2143, 1), ("x" * 300, 4)],
                         ids=["one-frame", "fragmented"])
def test_extended_profile_exchange_carries_fcs_and_source_pan(backend, reading, frames):
    node_ep, gw_ep = endpoint_pair("extended")
    gw = gateway.Gateway(gw_ep, gateway.UpstreamConfig(base_url=backend.base_url))
    try:
        sensor = node.Node(node.NodeConfig(temperature=node.FixedTemperature(reading)),
                           node_ep, VirtualClock())
        record = sensor.send_observation(pump=gw.process_pending)
    finally:
        gw.session.close()
    assert record.response_code == "2.01"
    assert backend.store.count("Observations") == 1
    assert len(node_ep.link.sent) == frames
    for wire in node_ep.link.sent + gw_ep.link.sent:
        assert not int.from_bytes(wire[:2], "little") & (1 << 6)  # intra-PAN bit clear
        assert link154.LinkFrame.parse(wire, include_fcs=True).src_pan == link154.PAN_ID
        assert int.from_bytes(wire[-2:], "little") == link154.crc16_kermit(wire[:-2])
