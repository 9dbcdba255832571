import pytest
from hypothesis import given, settings, strategies as st

from iotpipe import link154, lowpan

NODE_LINK = bytes.fromhex("00124b0001020304")
GW_LINK = bytes.fromhex("00124b00050607ff")

CTX = lowpan.CompressionContext(link_src=NODE_LINK, link_dst=GW_LINK)


def make_headers(src, dst, sp=0xF0B1, dp=0xF0B2, hop=64, tc=0, fl=0,
                 payload=b""):
    return lowpan.Ipv6UdpHeaders(
        src_addr=src,
        dst_addr=dst,
        udp_src_port=sp,
        udp_dst_port=dp,
        udp_checksum=lowpan.udp_checksum(src, dst, sp, dp, payload),
        payload_length=8 + len(payload),
        hop_limit=hop,
        traffic_class=tc,
        flow_label=fl,
    )


def test_uncompressed_headers_are_48_bytes():
    h = make_headers(lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK))
    wire = h.serialize()
    assert len(wire) == 48
    assert lowpan.Ipv6UdpHeaders.parse(wire) == h


def test_best_case_compression_is_6_bytes():
    # both addresses derived from the link addresses, hop limit 64,
    # zero tc/fl, ports in the 4-bit range, checksum inline:
    # 2 (IPHC) + 1 (NHC) + 1 (port nibbles) + 2 (checksum)
    h = make_headers(
        lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK)
    )
    c = lowpan.compress(h, CTX)
    assert c.size == 6
    assert len(c.iphc_bytes) == 2
    assert lowpan.parse_datagram(c.to_bytes(), CTX) == (h, b"")


def test_best_case_exact_bytes():
    # hand-derived: dispatch 011, TF=11, NH=1, HLIM=10 -> 0x7E;
    # SAM=11, M=0, DAM=11 -> 0x33; NHC 0xF3 (checksum inline, ports 4+4);
    # port nibbles 0x12 for 0xF0B1 -> 0xF0B2
    h = make_headers(
        lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK)
    )
    c = lowpan.compress(h, CTX)
    assert c.iphc_bytes == bytes([0x7E, 0x33])
    assert c.nhc_bytes == bytes([0xF3])
    assert c.udp_inline[0] == 0x12


def test_global_addresses_carried_inline():
    src = bytes.fromhex("20010db8000000000000000000000001")
    dst = bytes.fromhex("20010db8000000000000000000000002")
    h = make_headers(src, dst)
    c = lowpan.compress(h, CTX)
    assert c.size >= 2 + 32
    assert lowpan.parse_datagram(c.to_bytes(), CTX) == (h, b"")


def test_calibrated_pipeline_headers_compress_to_9_bytes():
    gw_addr = lowpan.LINK_LOCAL_PREFIX + bytes.fromhex("000000fffe000001")
    h = make_headers(lowpan.link_local_from(NODE_LINK), gw_addr, hop=2)
    c = lowpan.compress(h, CTX)
    assert c.size == 9
    assert c.network_bytes == 5
    assert c.transport_bytes == 4
    assert lowpan.parse_datagram(c.to_bytes(), CTX) == (h, b"")


def test_compress_rejects_non_udp():
    h = make_headers(lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK))
    h.next_header = 6
    with pytest.raises(lowpan.UnsupportedHeaderChain):
        lowpan.compress(h, CTX)


def test_bad_dispatch():
    with pytest.raises(lowpan.BadDispatch):
        lowpan.parse_datagram(b"\x41\x00\x00\x00", CTX)


@pytest.mark.parametrize("wire", ["663300", "7c3340"])
def test_truncated_inline_fields_rejected(wire):
    with pytest.raises(lowpan.BadDispatch):
        lowpan.parse_datagram(bytes.fromhex(wire), CTX)


@settings(max_examples=1000, deadline=None)
@given(st.binary(max_size=140), st.integers(0, 31), st.booleans())
def test_decoders_raise_only_typed_errors(data, iphc_bits, include_fcs):
    """Any bytes either decode or raise the decoder's own error type."""
    try:
        link154.LinkFrame.parse(data, include_fcs=include_fcs)
    except link154.LinkError:
        pass
    for datagram in (data, bytes([0x60 | iphc_bits]) + data):
        try:
            lowpan.parse_datagram(datagram, CTX)
        except lowpan.LowpanError:
            pass
    reassembler = lowpan.Reassembler()
    size_bits = iphc_bits & 7  # the low 3 bits of a fragment header start the size
    for link_payload in (data, bytes([0xC0 | size_bits]) + data, bytes([0xE0 | size_bits]) + data):
        try:
            datagram = reassembler.push(b"s", link_payload)  # raw, behind FRAG1, behind FRAGN
        except lowpan.LowpanError:
            continue
        assert datagram is None or len(datagram) > 0


def rfc1071_udp_checksum(src, dst, sp, dp, payload):
    """Reference: fold the pseudo-header, UDP header and payload word by word
    with end-around carry (RFC 1071), complement, and send 0 as 0xFFFF."""
    length = 8 + len(payload)
    data = (src + dst + length.to_bytes(4, "big") + bytes([0, 0, 0, lowpan.UDP_PROTO])
            + sp.to_bytes(2, "big") + dp.to_bytes(2, "big") + length.to_bytes(2, "big")
            + bytes(2) + payload)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += data[i] << 8 | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total & 0xFFFF) or 0xFFFF


ADDRESS = st.binary(min_size=16, max_size=16)
PORT = st.integers(0, 0xFFFF)


@settings(max_examples=300, deadline=None)
@given(src=ADDRESS, dst=ADDRESS, sp=PORT, dp=PORT, payload=st.one_of(
    st.binary(max_size=lowpan.MAX_DATAGRAM),
    st.integers(0, lowpan.MAX_DATAGRAM).map(lambda n: bytes(n)),
    st.integers(0, lowpan.MAX_DATAGRAM).map(lambda n: b"\xff" * n),
))
def test_udp_checksum_matches_the_rfc1071_word_fold(src, dst, sp, dp, payload):
    assert lowpan.udp_checksum(src, dst, sp, dp, payload) == \
        rfc1071_udp_checksum(src, dst, sp, dp, payload)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 15, 255, 1398, 1399, lowpan.MAX_DATAGRAM])
@pytest.mark.parametrize("fill", [0x00, 0xFF, 0x5A])
def test_udp_checksum_at_edge_lengths_and_fills(length, fill):
    src, dst = lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK)
    payload = bytes([fill]) * length
    assert lowpan.udp_checksum(src, dst, 0xF0B1, 0xF0B2, payload) == \
        rfc1071_udp_checksum(src, dst, 0xF0B1, 0xF0B2, payload)


def test_udp_checksum_sends_a_zero_sum_as_ffff():
    # All-zero addresses, ports 0 and 0xFFDE and an empty payload sum to
    # 17 + 0xFFDE + 2 * 8 = 0xFFFF, whose complement is 0.
    assert rfc1071_udp_checksum(bytes(16), bytes(16), 0, 0xFFDE, b"") == 0xFFFF
    assert lowpan.udp_checksum(bytes(16), bytes(16), 0, 0xFFDE, b"") == 0xFFFF


@pytest.mark.parametrize("link_payload", ["", "c010", "c01000", "e0100001", "c0000001", "e000000100"])
def test_reassembler_rejects_malformed_fragment_headers(link_payload):
    with pytest.raises(lowpan.BadDispatch):
        lowpan.Reassembler().push(b"s", bytes.fromhex(link_payload))


def frag(size, offset, body, tag=1):
    """A FRAG1 link payload at offset 0, a FRAGN one elsewhere."""
    dispatch = lowpan.FRAG1_DISPATCH if offset == 0 else lowpan.FRAGN_DISPATCH
    header = ((dispatch << 11) | size).to_bytes(2, "big") + tag.to_bytes(2, "big")
    return header + (bytes([offset // 8]) if offset else b"") + body


def test_overlap_at_another_offset_restarts_reassembly():
    datagram = bytes(range(24))
    r = lowpan.Reassembler()
    assert r.push(b"s", frag(24, 0, datagram[:16])) is None
    assert r.push(b"s", frag(24, 8, datagram[8:16])) is None  # discards [0, 16)
    assert r.push(b"s", frag(24, 16, datagram[16:])) is None
    assert r.push(b"s", frag(24, 0, datagram[:8])) == datagram


def test_overlap_after_an_in_order_run_restarts_reassembly():
    datagram = bytes(range(40))
    r = lowpan.Reassembler()
    for offset in (0, 16):                      # in order: no overlap scan runs
        assert r.push(b"s", frag(40, offset, datagram[offset:offset + 16])) is None
    # starts inside [0, 16), at no buffered offset: discards [0, 32)
    assert r.push(b"s", frag(40, 8, datagram[8:32])) is None
    assert r.push(b"s", frag(40, 32, datagram[32:])) is None
    assert r.push(b"s", frag(40, 0, datagram[:8])) == datagram


def test_fragment_past_the_datagram_end_is_rejected():
    datagram = bytes(range(24))
    r = lowpan.Reassembler()
    with pytest.raises(lowpan.BadDispatch):
        r.push(b"s", frag(24, 16, datagram[:16]))
    assert r.push(b"s", frag(24, 0, datagram[:16])) is None
    assert r.push(b"s", frag(24, 16, datagram[16:])) == datagram


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.lists(st.tuples(st.integers(0, 37), st.integers(1, 300)), max_size=12),
    st.integers(min_value=16, max_value=127),
)
def test_overlapping_fragments_never_yield_wrong_bytes(size, cuts, budget):
    """Slices of one datagram, overlapping at any offset, never raise and never
    complete to other bytes; two clean passes of its fragments then complete it."""
    datagram = bytes((i * 7 + 3) & 0xFF for i in range(size))
    r = lowpan.Reassembler()
    done = []
    for slot, length in cuts:
        offset = min(slot * 8, (size - 1) & ~7)
        done.append(r.push(b"s", frag(size, offset, datagram[offset:offset + length])))
    clean = [frag(size, offset, chunk) for offset, chunk in lowpan.fragment(datagram, budget).fragments]
    done += [r.push(b"s", wire) for wire in clean + clean]
    done = [d for d in done if d is not None]
    assert done and all(d == datagram for d in done)


def test_elided_checksum_recomputed():
    payload = b'{"result":2143}'
    h = make_headers(
        lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK),
        payload=payload,
    )
    c = lowpan.compress(h, CTX)
    # C=1 in the NHC byte, and the 2 inline checksum bytes left out
    elided = c.iphc_bytes + c.ip_inline + bytes([c.nhc_bytes[0] | 0x04]) + c.udp_inline[:-2]
    assert len(elided) == 4
    assert lowpan.parse_datagram(elided + payload, CTX) == (h, payload)


def test_context_missing():
    h = make_headers(lowpan.link_local_from(NODE_LINK), lowpan.link_local_from(GW_LINK))
    c = lowpan.compress(h, CTX)
    with pytest.raises(lowpan.ContextMissing):
        lowpan.parse_datagram(c.to_bytes(), lowpan.CompressionContext())


# -- address/field generators for the round-trip property -------------------

link_addrs = st.one_of(st.binary(min_size=2, max_size=2),
                       st.binary(min_size=8, max_size=8))


@st.composite
def header_cases(draw):
    link_src = draw(link_addrs)
    link_dst = draw(link_addrs)
    kinds = st.sampled_from(["derived", "short_form", "link_local", "global"])

    def make_addr(kind, link_addr):
        if kind == "derived":
            return lowpan.link_local_from(link_addr)
        if kind == "short_form":
            tail = draw(st.binary(min_size=2, max_size=2))
            return lowpan.LINK_LOCAL_PREFIX + b"\x00\x00\x00\xff\xfe\x00" + tail
        if kind == "link_local":
            return lowpan.LINK_LOCAL_PREFIX + draw(st.binary(min_size=8, max_size=8))
        return b"\x20\x01" + draw(st.binary(min_size=14, max_size=14))

    src = make_addr(draw(kinds), link_src)
    dst_kind = draw(st.sampled_from(
        ["derived", "short_form", "link_local", "global", "mcast_small", "mcast_full"]
    ))
    if dst_kind == "mcast_small":
        dst = b"\xff\x02" + bytes(13) + draw(st.binary(min_size=1, max_size=1))
    elif dst_kind == "mcast_full":
        dst = b"\xff\x05" + draw(st.binary(min_size=14, max_size=14))
    else:
        dst = make_addr(dst_kind, link_dst)

    ports = st.sampled_from(["nibble", "f0_src", "f0_dst", "full"])
    port_kind = draw(ports)
    if port_kind == "nibble":
        sp = 0xF0B0 | draw(st.integers(0, 15))
        dp = 0xF0B0 | draw(st.integers(0, 15))
    elif port_kind == "f0_src":
        sp = 0xF000 | draw(st.integers(0, 0xAF))
        dp = draw(st.integers(1, 0xEFFF))
    elif port_kind == "f0_dst":
        sp = draw(st.integers(1, 0xEFFF))
        dp = 0xF000 | draw(st.integers(0, 0xAF))
    else:
        sp = draw(st.integers(1, 0xEFFF))
        dp = draw(st.integers(1, 0xEFFF))

    payload = draw(st.binary(max_size=40))
    headers = lowpan.Ipv6UdpHeaders(
        src_addr=src,
        dst_addr=dst,
        udp_src_port=sp,
        udp_dst_port=dp,
        udp_checksum=lowpan.udp_checksum(src, dst, sp, dp, payload),
        payload_length=8 + len(payload),
        hop_limit=draw(st.sampled_from([1, 2, 17, 64, 128, 255])),
        traffic_class=draw(st.sampled_from([0, 3, 0x2C, 0xFF])),
        flow_label=draw(st.sampled_from([0, 1, 0x812, 0xFFFFF])),
    )
    ctx = lowpan.CompressionContext(link_src=link_src, link_dst=link_dst)
    return headers, ctx, payload


@settings(max_examples=400, deadline=None)
@given(header_cases())
def test_compression_round_trip(case):
    headers, ctx, payload = case
    compressed = lowpan.compress(headers, ctx)
    assert lowpan.parse_datagram(compressed.to_bytes() + payload, ctx) == (headers, payload)


@settings(max_examples=400, deadline=None)
@given(header_cases())
def test_compression_always_beats_uncompressed(case):
    headers, ctx, _payload = case
    assert lowpan.compress(headers, ctx).size < 48


# -- fragmentation ----------------------------------------------------------

def receive(fset):
    """What one Reassembler returns for each of ``fset``'s link payloads."""
    reassembler = lowpan.Reassembler()
    return [reassembler.push(b"\x01\x02", wire) for wire in fset.wire_fragments()]


def test_single_fragment_for_small_datagram():
    fset = lowpan.fragment(b"x" * 67, 102)
    assert not fset.fragmented
    assert fset.wire_fragments() == [b"x" * 67]
    assert receive(fset) == [b"x" * 67]


def test_multi_fragment_split_reassembles():
    # 8-byte offset alignment caps chunks at 88 bytes for a 96-byte budget
    datagram = bytes(range(200)) * 1
    fset = lowpan.fragment(datagram, 96)
    assert len(fset.fragments) == 3
    assert all(offset % 8 == 0 for offset, _ in fset.fragments)
    assert receive(fset) == [None, None, datagram]


def test_datagram_too_large():
    with pytest.raises(lowpan.DatagramTooLarge):
        lowpan.fragment(b"x" * 2000, 96)


def test_missing_middle_fragment():
    wires = lowpan.fragment(b"y" * 300, 80).wire_fragments()
    r = lowpan.Reassembler()
    assert [r.push(b"\x01", wire, now=0.0) for wire in (wires[0], wires[-1])] == [None, None]
    assert r.expired_count == 0
    # the next push after the timeout drops the incomplete set, then buffers anew
    assert r.push(b"\x01", wires[1], now=lowpan.REASSEMBLY_TIMEOUT) is None
    assert r.expired_count == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=1408),
    st.integers(min_value=16, max_value=127),
)
def test_fragmentation_identity(size, budget):
    datagram = bytes(i & 0xFF for i in range(size))
    fset = lowpan.fragment(datagram, budget)
    for _, chunk in fset.fragments:
        header = 0 if not fset.fragmented else 5
        assert len(chunk) + header <= budget + 1  # FRAG1 header is 4, FRAGN 5
    assert receive(fset) == [None] * (len(fset.fragments) - 1) + [datagram]


def test_wire_fragments_reassemble_through_reassembler():
    datagram = bytes(range(256)) + b"tail"
    fset = lowpan.fragment(datagram, 90, tag=7)
    r = lowpan.Reassembler()
    result = None
    for wire in fset.wire_fragments():
        result = r.push(b"\x01\x02", wire, now=0.0)
    assert result == datagram


def test_interleaved_tags_reassemble_independently():
    d1 = b"a" * 200
    d2 = b"b" * 180
    f1 = lowpan.fragment(d1, 90, tag=1).wire_fragments()
    f2 = lowpan.fragment(d2, 90, tag=2).wire_fragments()
    r = lowpan.Reassembler()
    results = []
    for wire in [f1[0], f2[0], f1[1], f2[1], f1[2], f2[2]]:
        out = r.push(b"\x01\x02", wire, now=0.0)
        if out is not None:
            results.append(out)
    assert results == [d1, d2]


def test_reassembly_timeout_drops_partials():
    fset = lowpan.fragment(b"z" * 200, 90, tag=3)
    r = lowpan.Reassembler()
    r.push(b"\x01", fset.wire_fragments()[0], now=0.0)
    # a late fragment after expiry starts a fresh partial set
    assert r.push(b"\x01", fset.wire_fragments()[1], now=10.0) is None
    assert r.expired_count == 1
