import pytest

from iotpipe import link154, stack

EXT_A = bytes.fromhex("00124b0001020304")
EXT_B = bytes.fromhex("00124b00050607ff")


def bitwise_crc16_kermit(data):
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x8408 if crc & 1 else crc >> 1
    return crc


def test_crc_matches_bitwise_reference_at_every_frame_length():
    data = bytes((i * 37 + 11) & 0xFF for i in range(link154.MAX_FRAME))
    for length in range(link154.MAX_FRAME + 1):
        assert link154.crc16_kermit(data[:length]) == bitwise_crc16_kermit(data[:length])
    assert link154.crc16_kermit(bytes(range(256))) == bitwise_crc16_kermit(bytes(range(256)))


def test_crc_known_vector():
    assert link154.crc16_kermit(b"123456789") == 0x2189


def test_frame_overheads():
    for profile, overhead in (("calibrated", 21), ("extended", 25)):
        cfg = stack.node_stack_config(profile=profile)
        assert len(stack.link_frame(cfg, b"").serialize()) == overhead


def test_calibrated_overhead_matches_serialized_frame():
    frame = link154.LinkFrame(
        dst_addr=EXT_B, src_addr=EXT_A, payload=b"", include_fcs=False
    )
    assert len(frame.serialize()) == 21


def test_serialize_parse_round_trip():
    frame = link154.LinkFrame(
        dst_addr=EXT_B, src_addr=EXT_A, payload=b"hello", sequence=42
    )
    parsed = link154.LinkFrame.parse(frame.serialize())
    assert parsed == frame


def test_short_addresses_round_trip():
    frame = link154.LinkFrame(
        dst_addr=b"\x01\x00", src_addr=b"\x02\x00", payload=b"x",
        src_pan=0x1234,
    )
    parsed = link154.LinkFrame.parse(frame.serialize())
    assert parsed == frame


def test_fcs_corruption_detected():
    wire = bytearray(link154.LinkFrame(
        dst_addr=EXT_B, src_addr=EXT_A, payload=b"payload"
    ).serialize())
    wire[-3] ^= 0x01
    with pytest.raises(link154.LinkError):
        link154.LinkFrame.parse(bytes(wire))


@pytest.mark.parametrize("include_fcs", [True, False])
@pytest.mark.parametrize("wire", [b"", b"\x41", b"\x41\xcc\x00"])
def test_frame_shorter_than_its_header_rejected(wire, include_fcs):
    with pytest.raises(link154.LinkError):
        link154.LinkFrame.parse(wire, include_fcs=include_fcs)


def test_oversized_frame_rejected():
    frame = link154.LinkFrame(dst_addr=EXT_B, src_addr=EXT_A, payload=b"q" * 120)
    with pytest.raises(link154.FrameTooLarge):
        frame.serialize()


def test_endpoint_rejects_oversized_bytes():
    link = link154.SimulatedLink()
    with pytest.raises(link154.FrameTooLarge):
        link.endpoints[0].send(b"\x00" * 128)


def test_lossless_link_always_delivers():
    link = link154.SimulatedLink(link154.LinkConfig(loss_probability=0.0))
    for _ in range(100):
        assert link.endpoints[0].send(b"\x01").delivered
    assert len(link.endpoints[1].receive()) == 100


def test_total_loss_never_delivers():
    link = link154.SimulatedLink(link154.LinkConfig(loss_probability=1.0))
    for _ in range(100):
        assert not link.endpoints[0].send(b"\x01").delivered
    assert link.endpoints[1].receive() == []


def test_seeded_loss_is_reproducible():
    def pattern(seed):
        link = link154.SimulatedLink(
            link154.LinkConfig(loss_probability=0.5, seed=seed)
        )
        return [link.endpoints[0].send(b"\x01").delivered for _ in range(1000)]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)


def test_fifo_order_on_lossless_link():
    link = link154.SimulatedLink()
    sent = [bytes([i]) for i in range(50)]
    for frame in sent:
        link.endpoints[0].send(frame)
    assert link.endpoints[1].receive() == sent


def test_latency_holds_frames_until_due():
    link = link154.SimulatedLink(link154.LinkConfig(latency=0.5))
    link.endpoints[0].send(b"\x01", now=0.0)
    assert link.endpoints[1].receive(now=0.2) == []
    assert link.endpoints[1].receive(now=0.5) == [b"\x01"]


def test_next_due_is_the_earliest_frame_in_flight_either_way():
    link = link154.SimulatedLink(link154.LinkConfig(latency=0.5))
    node_side, gateway_side = link.endpoints
    assert node_side.next_due() is None
    node_side.send(b"\x01", now=1.0)
    gateway_side.send(b"\x02", now=0.75)
    assert node_side.next_due() == gateway_side.next_due() == 1.25
    node_side.receive(now=1.25)
    assert gateway_side.next_due() == 1.5
    gateway_side.receive(now=1.5)
    assert node_side.next_due() is None
