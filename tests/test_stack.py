import pytest
from hypothesis import given, settings, strategies as st

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


def _raw_then_valid(profile, frames, payload=b"reading"):
    """The gateway side's receive() after ``frames`` are queued raw on the link,
    followed by one valid datagram carrying ``payload``."""
    link = link154.SimulatedLink()
    node_ep = stack.StackEndpoint(link.endpoints[0], stack.node_stack_config(profile=profile))
    gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config(profile=profile))
    for wire in frames:
        link.endpoints[0].send(wire)
    node_ep.send(payload)
    return gw_ep, gw_ep.receive()


@pytest.mark.parametrize("wire,errors", [
    (b"\x01\x02\x03", (1, 0)),
    (stack.link_frame(stack.node_stack_config(), b"\x00").serialize(), (0, 1)),
], ids=["short-frame", "bad-dispatch"])
def test_malformed_frame_does_not_lose_the_frames_after_it(wire, errors):
    gw_ep, received = _raw_then_valid("calibrated", [wire])
    assert [d.payload for d in received] == [b"reading"]
    assert (gw_ep.link_errors, gw_ep.lowpan_errors) == errors
    assert gw_ep.receive() == []


FRAMES = st.lists(st.one_of(
    st.binary(max_size=link154.MAX_FRAME),             # raw frame bytes
    st.binary(max_size=100).map(lambda p: (p,)),       # a valid frame around raw bytes
), max_size=4)


@settings(max_examples=300, deadline=None)
@given(profile=st.sampled_from(PROFILES), frames=FRAMES)
def test_any_frame_bytes_are_dropped_or_delivered_never_raised(profile, frames):
    cfg = stack.node_stack_config(profile=profile)
    wires = [stack.link_frame(cfg, f[0]).serialize() if isinstance(f, tuple) else f
             for f in frames]
    gw_ep, received = _raw_then_valid(profile, wires)
    assert received and received[-1].payload == b"reading"
    assert len(received) - 1 + gw_ep.link_errors + gw_ep.lowpan_errors <= len(frames)
