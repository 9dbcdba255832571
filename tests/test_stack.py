import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from iotpipe import gateway, link154, lowpan, node, stack
from iotpipe.clock import VirtualClock
from tests.conftest import hostile_frames

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


# The largest request the extended profile carries: a 1377-B payload.
LARGEST_READING = "x" * (1377 - len('{"result":""}'))


@pytest.mark.parametrize("reading,frames", [(2143, 1), ("x" * 300, 4), (LARGEST_READING, 15)],
                         ids=["one-frame", "fragmented", "largest"])
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
    assert record.payload_bytes == len(node.serialize_payload(reading))
    assert backend.store.count("Observations") == 1
    assert len(node_ep.link.sent) == frames
    assert len(gw_ep.link.sent) == 1        # the 2.01 names the row; it carries no body
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


# -- the template path against the general codecs ------------------------------

def general_frames(cfg, payload, sequence, tag):
    """The frames of one datagram, built by the general codecs alone."""
    headers = stack.udp_headers(cfg, payload)
    if cfg.compress:
        ctx = lowpan.CompressionContext(link_src=cfg.local_link_addr, link_dst=cfg.peer_link_addr)
        header = lowpan.compress(headers, ctx).to_bytes()
    else:
        header = bytes([lowpan.DISPATCH_IPV6]) + headers.serialize()
    overhead = len(stack.link_frame(cfg, b"").serialize())
    fset = lowpan.fragment(header + payload, link154.MAX_FRAME - overhead, tag=tag)
    return [stack.link_frame(cfg, link_payload, (sequence + i) & 0xFF).serialize()
            for i, link_payload in enumerate(fset.wire_fragments())]


class GeneralReceiver:
    """The receive path of ``StackEndpoint`` built from the general parsers alone."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.include_fcs = link154.PROFILES[cfg.profile].include_fcs
        self.reassembler = lowpan.Reassembler()
        self.link_errors = self.lowpan_errors = 0

    def receive(self, wires):
        out = []
        for wire in wires:
            try:
                frame = link154.LinkFrame.parse(wire, include_fcs=self.include_fcs)
            except link154.LinkError:
                self.link_errors += 1
                continue
            link_src = bytes(frame.src_addr)
            try:
                datagram = self.reassembler.push(link_src, frame.payload)
                if datagram is None:
                    continue
                if datagram[0] == lowpan.DISPATCH_IPV6:
                    headers, payload = lowpan.Ipv6UdpHeaders.parse(datagram[1:49]), datagram[49:]
                else:
                    ctx = lowpan.CompressionContext(link_src=link_src,
                                                    link_dst=self.cfg.local_link_addr)
                    headers, payload = lowpan.parse_datagram(datagram, ctx)
            except lowpan.LowpanError:
                self.lowpan_errors += 1
                continue
            out.append(stack.Datagram(headers=headers, payload=payload, link_src=link_src))
        return out

    def counters(self):
        return self.link_errors, self.lowpan_errors, self.reassembler.expired_count


def counters(endpoint):
    return endpoint.link_errors, endpoint.lowpan_errors, endpoint.reassembly_expired


class Inbox:
    """A link endpoint that hands the receiver the given frames as they are,
    including those a ``SimulatedLink`` would refuse to carry (over 127 B)."""

    def __init__(self, frames):
        self.frames = list(frames)

    def receive(self, now=None):
        out, self.frames = self.frames, []
        return out


def received_by_both(profile, compress, frames):
    """What the gateway side's ``StackEndpoint`` and the general parsers make
    of ``frames``, with the counters of each."""
    cfg = stack.gateway_stack_config(compress, profile)
    endpoint = stack.StackEndpoint(Inbox(frames), cfg)
    reference = GeneralReceiver(cfg)
    return ((endpoint.receive(), counters(endpoint)),
            (reference.receive(frames), reference.counters()))


@st.composite
def payloads(draw, compress):
    header = COMPRESSED_HEADER_BYTES if compress else 49
    size = draw(st.integers(0, lowpan.MAX_DATAGRAM - header))
    return draw(st.one_of(st.binary(min_size=size, max_size=size),
                          st.sampled_from([b"\x00", b"\xff"]).map(lambda b: b * size)))


@settings(max_examples=200, deadline=None)
@given(profile=st.sampled_from(PROFILES), compress=st.booleans(), data=st.data())
def test_template_path_matches_the_general_codecs(profile, compress, data):
    link = link154.SimulatedLink()
    node_ep = stack.StackEndpoint(FrameRecorder(link.endpoints[0]),
                                  stack.node_stack_config(compress, profile))
    gw_ep = stack.StackEndpoint(link.endpoints[1], stack.gateway_stack_config(compress, profile))
    reference = GeneralReceiver(gw_ep.config)
    sequence = 0
    for tag in (1, 2):
        payload = data.draw(payloads(compress))
        del node_ep.link.sent[:]
        tx = node_ep.send(payload)
        expected = general_frames(node_ep.config, payload, sequence, tag)
        assert node_ep.link.sent == expected
        assert tx.frame_sizes == [len(wire) for wire in expected]
        sequence += len(expected)
        received = gw_ep.receive()
        assert received == reference.receive(expected)
        assert [d.payload for d in received] == [payload]
        assert counters(gw_ep) == reference.counters() == (0, 0, 0)


@settings(max_examples=300, deadline=None)
@given(profile=st.sampled_from(PROFILES), compress=st.booleans(), data=st.data())
def test_hostile_frames_give_the_general_result(profile, compress, data):
    node_cfg = stack.node_stack_config(compress, profile)
    frames = data.draw(hostile_frames(node_cfg))
    frames += general_frames(node_cfg, b"reading", 0, 1)
    (received, errors), expected = received_by_both(profile, compress, frames)
    assert (received, errors) == expected
    assert received[-1].payload == b"reading"


def test_a_bad_fcs_or_an_overrun_on_the_template_header_is_a_link_error():
    cfg = stack.node_stack_config(profile="extended")
    [good] = general_frames(cfg, b"reading", 0, 1)
    bad_fcs = good[:-1] + bytes([good[-1] ^ 1])
    overrun = good[:-2] + bytes(link154.MAX_FRAME) + good[-2:]
    (received, errors), expected = received_by_both("extended", True, [bad_fcs, overrun, good])
    assert (received, errors) == expected
    assert [d.payload for d in received] == [b"reading"]
    assert errors == (2, 0, 0)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("profile", PROFILES)
def test_only_frames_off_the_template_reach_the_general_parsers(monkeypatch, profile):
    cfg = stack.node_stack_config(profile=profile)
    fcs = link154.PROFILES[profile].include_fcs
    stranger = bytes.fromhex("00124b0009090909")
    [template] = general_frames(cfg, b"reading", 0, 1)
    other_pan = link154.LinkFrame(
        dst_addr=cfg.peer_link_addr, src_addr=cfg.local_link_addr,
        payload=link154.LinkFrame.parse(template, include_fcs=fcs).payload,
        dst_pan=0x1234, src_pan=None if link154.PROFILES[profile].pan_compression else 0x1234,
        include_fcs=fcs).serialize()
    other_src = dataclasses.replace(cfg, local_link_addr=stranger,
                                    local_ipv6=lowpan.link_local_from(stranger))
    frames = general_frames(other_src, b"x", 0, 1) + [template, other_pan]
    gw_cfg = stack.gateway_stack_config(profile=profile)
    stack.StackEndpoint(Inbox(frames), gw_cfg).receive()   # fills the templates
    parse = _counting(monkeypatch, link154.LinkFrame, "parse")
    parse_datagram = _counting(monkeypatch, lowpan, "parse_datagram")
    endpoint = stack.StackEndpoint(Inbox(frames), gw_cfg)
    received = endpoint.receive()
    assert len(parse) == 2            # the frames from another source or PAN
    assert len(parse_datagram) == 1   # the datagram from another source; its elided IID differs
    assert received == GeneralReceiver(gw_cfg).receive(frames)
    assert [d.payload for d in received] == [b"x", b"reading", b"reading"]
    assert received[0].link_src == stranger
    assert received[0].headers.src_addr == lowpan.link_local_from(stranger)
    assert counters(endpoint) == (0, 0, 0)


def test_stack_config_is_frozen_and_hashable():
    cfg = stack.node_stack_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.compress = False
    assert hash(cfg) == hash(stack.node_stack_config())
    assert stack.peer_config(stack.gateway_stack_config()) == cfg
