"""6LoWPAN adaptation layer.

IPHC compression of the IPv6 header, NHC compression of the UDP header,
and FRAG1/FRAGN fragmentation so datagrams fit IEEE 802.15.4 frames.
"""

import struct
from dataclasses import dataclass, field

UDP_PROTO = 17
DISPATCH_IPV6 = 0x41          # uncompressed IPv6 follows
IPHC_DISPATCH_BITS = 0b011    # top 3 bits of the first IPHC byte
FRAG1_DISPATCH = 0b11000
FRAGN_DISPATCH = 0b11100

LINK_LOCAL_PREFIX = bytes.fromhex("fe80000000000000")

# FRAG datagram_size field is 11 bits; we cap well below that at the IPv6
# minimum MTU plus slack for the compressed/uncompressed header delta.
MAX_DATAGRAM = 1408


class LowpanError(Exception):
    pass


class UnsupportedHeaderChain(LowpanError):
    pass


class BadDispatch(LowpanError):
    pass


class ContextMissing(LowpanError):
    pass


class DatagramTooLarge(LowpanError):
    pass


@dataclass
class Ipv6UdpHeaders:
    src_addr: bytes            # 16 bytes
    dst_addr: bytes            # 16 bytes
    udp_src_port: int
    udp_dst_port: int
    udp_checksum: int
    payload_length: int        # IPv6 payload length = 8 + |app payload|
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    next_header: int = UDP_PROTO

    def serialize(self) -> bytes:
        """Uncompressed wire form: 40-byte IPv6 header + 8-byte UDP header."""
        vtf = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        ipv6 = struct.pack(
            ">IHBB", vtf, self.payload_length, self.next_header, self.hop_limit
        ) + self.src_addr + self.dst_addr
        udp = struct.pack(
            ">HHHH",
            self.udp_src_port,
            self.udp_dst_port,
            self.payload_length,
            self.udp_checksum,
        )
        return ipv6 + udp

    @classmethod
    def parse(cls, data: bytes):
        if len(data) < 48:
            raise LowpanError("need 48 header bytes, got %d" % len(data))
        vtf, plen, nh, hlim = struct.unpack(">IHBB", data[:8])
        if vtf >> 28 != 6:
            raise LowpanError("not an IPv6 header")
        src = data[8:24]
        dst = data[24:40]
        sp, dp, _ulen, csum = struct.unpack(">HHHH", data[40:48])
        return cls(
            src_addr=src,
            dst_addr=dst,
            udp_src_port=sp,
            udp_dst_port=dp,
            udp_checksum=csum,
            payload_length=plen,
            hop_limit=hlim,
            traffic_class=(vtf >> 20) & 0xFF,
            flow_label=vtf & 0xFFFFF,
            next_header=nh,
        )


def _word_sum(data: bytes) -> int:
    """The sum of ``data`` as big-endian 16-bit words (an odd tail padded with
    a zero byte), modulo 0xFFFF. As 2**16 ≡ 1 (mod 0xFFFF), the number the
    bytes spell is congruent to the sum of its words, so one C-level
    conversion replaces the word loop."""
    value = int.from_bytes(data, "big")
    return (value << 8 if len(data) & 1 else value) % 0xFFFF


def pseudo_header_sum(src_addr: bytes, dst_addr: bytes, src_port: int,
                      dst_port: int) -> int:
    """The part of the UDP checksum sum that does not depend on the payload:
    the addresses, next header and ports (the length is added per datagram)."""
    return _word_sum(src_addr + dst_addr) + UDP_PROTO + src_port + dst_port


def checksum_with(header_sum: int, payload: bytes) -> int:
    """UDP checksum of ``payload`` from its ``pseudo_header_sum``.

    The length counts twice, in the pseudo-header and in the UDP header. The
    one's-complement sum folded to 16 bits is 0xFFFF, not 0, whenever the
    total is a non-zero multiple of 0xFFFF, and an all-zero total still sends
    0xFFFF, so the result is never 0.
    """
    total = header_sum + 2 * (8 + len(payload)) + _word_sum(payload)
    return 0xFFFF - total % 0xFFFF


def udp_checksum(src_addr: bytes, dst_addr: bytes, src_port: int,
                 dst_port: int, payload: bytes) -> int:
    """UDP checksum over the IPv6 pseudo-header, ports, length and payload."""
    return checksum_with(pseudo_header_sum(src_addr, dst_addr, src_port, dst_port), payload)


def iid_from_link_addr(link_addr: bytes) -> bytes:
    """Interface identifier derived from an 802.15.4 address.

    Extended (8-byte) addresses flip the universal/local bit; short
    (2-byte) addresses expand to the 0000:00ff:fe00:XXXX form.
    """
    if len(link_addr) == 8:
        return bytes([link_addr[0] ^ 0x02]) + link_addr[1:]
    if len(link_addr) == 2:
        return b"\x00\x00\x00\xff\xfe\x00" + link_addr
    raise ValueError("link address must be 2 or 8 bytes")


def link_local_from(link_addr: bytes) -> bytes:
    return LINK_LOCAL_PREFIX + iid_from_link_addr(link_addr)


@dataclass
class CompressionContext:
    """Shared knowledge both ends use for address elision."""

    link_src: bytes = b""      # sender's 802.15.4 address
    link_dst: bytes = b""


@dataclass
class CompressedHeaders:
    iphc_bytes: bytes          # 2-byte IPHC base
    ip_inline: bytes           # inline IPv6 fields, wire order
    nhc_bytes: bytes           # 1-byte UDP NHC header
    udp_inline: bytes          # inline UDP fields, wire order

    @property
    def network_bytes(self) -> int:
        return len(self.iphc_bytes) + len(self.ip_inline)

    @property
    def transport_bytes(self) -> int:
        return len(self.nhc_bytes) + len(self.udp_inline)

    @property
    def size(self) -> int:
        return self.network_bytes + self.transport_bytes

    def to_bytes(self) -> bytes:
        return self.iphc_bytes + self.ip_inline + self.nhc_bytes + self.udp_inline


def _is_link_local(addr: bytes) -> bool:
    return addr[:8] == LINK_LOCAL_PREFIX


def _addr_mode(addr: bytes, link_addr: bytes):
    """Pick the unicast compression mode: (mode_bits, inline_bytes)."""
    if _is_link_local(addr):
        if link_addr and addr[8:] == iid_from_link_addr(link_addr):
            return 3, b""
        if addr[8:14] == b"\x00\x00\x00\xff\xfe\x00":
            return 2, addr[14:]
        return 1, addr[8:]
    return 0, addr


def compress(headers: Ipv6UdpHeaders, context: CompressionContext) -> CompressedHeaders:
    """IPHC + UDP NHC compression, stateless (no prefix contexts).

    The UDP checksum is always carried inline: RFC 6282 section 4.3.2 lets
    it be elided only where an upper layer covers the same data.
    """
    if headers.next_header != UDP_PROTO:
        raise UnsupportedHeaderChain(
            "only UDP next-header supported, got %d" % headers.next_header
        )

    ip_inline = bytearray()

    # Traffic class / flow label
    ecn = headers.traffic_class & 0x03
    dscp = headers.traffic_class >> 2
    if headers.flow_label == 0 and headers.traffic_class == 0:
        tf = 3
    elif headers.flow_label == 0:
        tf = 2
        ip_inline.append((ecn << 6) | dscp)
    elif dscp == 0:
        tf = 1
        ip_inline.append((ecn << 6) | (headers.flow_label >> 16))
        ip_inline += (headers.flow_label & 0xFFFF).to_bytes(2, "big")
    else:
        tf = 0
        ip_inline.append((ecn << 6) | dscp)
        ip_inline.append(headers.flow_label >> 16)
        ip_inline += (headers.flow_label & 0xFFFF).to_bytes(2, "big")

    # Hop limit
    hlim_map = {1: 1, 64: 2, 255: 3}
    hlim = hlim_map.get(headers.hop_limit, 0)
    if hlim == 0:
        ip_inline.append(headers.hop_limit)

    sam, src_inline = _addr_mode(headers.src_addr, context.link_src)
    ip_inline += src_inline

    if headers.dst_addr[0] == 0xFF:
        m = 1
        if headers.dst_addr[1] == 0x02 and headers.dst_addr[2:15] == bytes(13):
            dam = 3
            ip_inline.append(headers.dst_addr[15])
        else:
            dam = 0
            ip_inline += headers.dst_addr
    else:
        m = 0
        dam, dst_inline = _addr_mode(headers.dst_addr, context.link_dst)
        ip_inline += dst_inline

    # NH=1: next header compressed with NHC
    byte0 = (IPHC_DISPATCH_BITS << 5) | (tf << 3) | (1 << 2) | hlim
    byte1 = (sam << 4) | (m << 3) | dam  # CID=0, SAC=0, DAC=0

    udp_inline = bytearray()
    sp, dp = headers.udp_src_port, headers.udp_dst_port
    if sp & 0xFFF0 == 0xF0B0 and dp & 0xFFF0 == 0xF0B0:
        ports = 3
        udp_inline.append(((sp & 0x0F) << 4) | (dp & 0x0F))
    elif dp >> 8 == 0xF0:
        ports = 1
        udp_inline += sp.to_bytes(2, "big")
        udp_inline.append(dp & 0xFF)
    elif sp >> 8 == 0xF0:
        ports = 2
        udp_inline.append(sp & 0xFF)
        udp_inline += dp.to_bytes(2, "big")
    else:
        ports = 0
        udp_inline += sp.to_bytes(2, "big")
        udp_inline += dp.to_bytes(2, "big")

    udp_inline += headers.udp_checksum.to_bytes(2, "big")
    nhc = 0xF0 | ports  # C=0

    return CompressedHeaders(
        iphc_bytes=bytes([byte0, byte1]),
        ip_inline=bytes(ip_inline),
        nhc_bytes=bytes([nhc]),
        udp_inline=bytes(udp_inline),
    )


def parse_datagram(data: bytes, context: CompressionContext):
    """Parse an IPHC/NHC-compressed datagram into (headers, payload).

    Lengths are recomputed from the payload; the checksum is recomputed
    when elided. The context describes the original sender's view
    (link_src = transmitting node).
    """
    if len(data) < 3:
        raise BadDispatch("too short for IPHC + NHC")
    if data[0] >> 5 != IPHC_DISPATCH_BITS:
        raise BadDispatch("first byte 0x%02x is not an IPHC dispatch" % data[0])
    byte0, byte1 = data[0], data[1]
    tf = (byte0 >> 3) & 0x3
    nh_compressed = (byte0 >> 2) & 0x1
    hlim = byte0 & 0x3
    cid = (byte1 >> 7) & 0x1
    sac = (byte1 >> 6) & 0x1
    sam = (byte1 >> 4) & 0x3
    m = (byte1 >> 3) & 0x1
    dac = (byte1 >> 2) & 0x1
    dam = byte1 & 0x3
    if cid or sac or dac:
        raise ContextMissing("context-based compression not supported")
    if not nh_compressed:
        raise UnsupportedHeaderChain("expected NHC-compressed UDP next header")

    pos = 2

    def read(n):
        nonlocal pos
        chunk = data[pos:pos + n]
        if len(chunk) < n:
            raise BadDispatch("inline fields truncated")
        pos += n
        return chunk

    tc = 0
    fl = 0
    if tf == 0:
        b = read(4)
        fl = ((b[1] & 0x0F) << 16) | int.from_bytes(b[2:4], "big")
        tc = ((b[0] & 0x3F) << 2) | (b[0] >> 6)
    elif tf == 1:
        b = read(3)
        tc = b[0] >> 6  # ECN only, DSCP elided as zero
        fl = ((b[0] & 0x0F) << 16) | int.from_bytes(b[1:3], "big")
    elif tf == 2:
        b = read(1)[0]
        tc = ((b & 0x3F) << 2) | (b >> 6)

    if hlim == 0:
        hop_limit = read(1)[0]
    else:
        hop_limit = {1: 1, 2: 64, 3: 255}[hlim]

    if sam == 0:
        src = read(16)
    elif sam == 1:
        src = LINK_LOCAL_PREFIX + read(8)
    elif sam == 2:
        src = LINK_LOCAL_PREFIX + b"\x00\x00\x00\xff\xfe\x00" + read(2)
    else:
        if not context.link_src:
            raise ContextMissing("source elided but no link source address")
        src = link_local_from(context.link_src)

    if m:
        if dam == 3:
            dst = b"\xff\x02" + bytes(13) + read(1)
        elif dam == 0:
            dst = read(16)
        else:
            raise BadDispatch("unsupported multicast address mode %d" % dam)
    elif dam == 0:
        dst = read(16)
    elif dam == 1:
        dst = LINK_LOCAL_PREFIX + read(8)
    elif dam == 2:
        dst = LINK_LOCAL_PREFIX + b"\x00\x00\x00\xff\xfe\x00" + read(2)
    else:
        if not context.link_dst:
            raise ContextMissing("destination elided but no link destination address")
        dst = link_local_from(context.link_dst)

    nhc = read(1)[0]
    if nhc & 0xF8 != 0xF0:
        raise BadDispatch("byte 0x%02x is not a UDP NHC header" % nhc)
    csum_elided = (nhc >> 2) & 0x1
    ports = nhc & 0x3
    if ports == 0:
        sp = int.from_bytes(read(2), "big")
        dp = int.from_bytes(read(2), "big")
    elif ports == 1:
        sp = int.from_bytes(read(2), "big")
        dp = 0xF000 | read(1)[0]
    elif ports == 2:
        sp = 0xF000 | read(1)[0]
        dp = int.from_bytes(read(2), "big")
    else:
        b = read(1)[0]
        sp = 0xF0B0 | (b >> 4)
        dp = 0xF0B0 | (b & 0x0F)

    if csum_elided:
        csum = None
    else:
        csum = int.from_bytes(read(2), "big")

    payload = data[pos:]
    if csum is None:
        csum = udp_checksum(src, dst, sp, dp, payload)

    headers = Ipv6UdpHeaders(
        src_addr=src,
        dst_addr=dst,
        udp_src_port=sp,
        udp_dst_port=dp,
        udp_checksum=csum,
        payload_length=8 + len(payload),
        hop_limit=hop_limit,
        traffic_class=tc,
        flow_label=fl,
    )
    return headers, payload


@dataclass
class FragmentSet:
    datagram_size: int
    datagram_tag: int
    fragments: list            # ordered [(offset, bytes)]
    fragmented: bool = True

    def wire_fragments(self) -> list:
        """Link payloads: FRAG1/FRAGN headers prepended when fragmented."""
        if not self.fragmented:
            return [chunk for _, chunk in self.fragments]
        out = []
        for i, (offset, chunk) in enumerate(self.fragments):
            word = ((FRAG1_DISPATCH if i == 0 else FRAGN_DISPATCH) << 11) | self.datagram_size
            header = word.to_bytes(2, "big") + self.datagram_tag.to_bytes(2, "big")
            if i > 0:
                header += bytes([offset // 8])
            out.append(header + chunk)
        return out


def fragment(datagram: bytes, link_mtu_payload: int, tag: int = 0) -> FragmentSet:
    if link_mtu_payload < 16:
        raise ValueError("link payload budget below 16 bytes")
    if len(datagram) > MAX_DATAGRAM:
        raise DatagramTooLarge(
            "%d bytes exceeds the %d-byte limit" % (len(datagram), MAX_DATAGRAM)
        )
    if len(datagram) <= link_mtu_payload:
        return FragmentSet(
            datagram_size=len(datagram),
            datagram_tag=tag,
            fragments=[(0, datagram)],
            fragmented=False,
        )

    fragments = []
    first_len = (link_mtu_payload - 4) & ~7
    fragments.append((0, datagram[:first_len]))
    offset = first_len
    step = (link_mtu_payload - 5) & ~7
    while offset < len(datagram):
        chunk = datagram[offset:offset + step]
        fragments.append((offset, chunk))
        offset += len(chunk)
    return FragmentSet(
        datagram_size=len(datagram),
        datagram_tag=tag,
        fragments=fragments,
        fragmented=True,
    )


REASSEMBLY_TIMEOUT = 5.0


@dataclass
class _PartialDatagram:
    size: int
    deadline: float
    chunks: dict = field(default_factory=dict)  # offset -> bytes; never overlapping
    received: int = 0
    furthest: int = 0   # the end of the furthest buffered chunk


class Reassembler:
    """Per-(source, tag) reassembly buffers with a fixed timeout.

    Owned by a single link endpoint; expired partial datagrams are
    dropped silently and counted.
    """

    def __init__(self):
        self._partial = {}
        self.expired_count = 0

    def push(self, source, link_payload: bytes, now: float = 0.0):
        """Feed one link payload; returns a complete datagram or None.

        Following RFC 4944 section 5.3, a fragment that overlaps buffered ones
        and is not an exact duplicate discards them and starts the buffer anew.
        """
        self._expire(now)
        if not link_payload:
            raise BadDispatch("empty link payload")
        dispatch5 = link_payload[0] >> 3
        if dispatch5 not in (FRAG1_DISPATCH, FRAGN_DISPATCH):
            return link_payload  # unfragmented datagram passes through
        if len(link_payload) < (4 if dispatch5 == FRAG1_DISPATCH else 5):
            raise BadDispatch("truncated fragment header")
        size = int.from_bytes(link_payload[:2], "big") & 0x7FF
        if size == 0:
            raise BadDispatch("fragment header announces an empty datagram")
        tag = int.from_bytes(link_payload[2:4], "big")
        if dispatch5 == FRAG1_DISPATCH:
            offset, body = 0, link_payload[4:]
        else:
            offset, body = link_payload[4] * 8, link_payload[5:]
        end = offset + len(body)
        if end > size:
            raise BadDispatch("fragment ends at byte %d of a %d-byte datagram" % (end, size))

        key = (source, tag)
        entry = self._partial.get(key)
        if entry is not None and entry.size == size:
            if entry.chunks.get(offset) == body:
                return None  # duplicate
            if offset < entry.furthest or offset in entry.chunks:  # else no chunk can overlap
                for start, chunk in entry.chunks.items():
                    if start == offset or (start < end and offset < start + len(chunk)):
                        entry = None  # overlap: discard the buffer
                        break
        else:
            entry = None
        if entry is None:
            entry = self._partial[key] = _PartialDatagram(size, now + REASSEMBLY_TIMEOUT)
        entry.chunks[offset] = body
        entry.received += len(body)
        entry.furthest = max(entry.furthest, end)
        if entry.received < size:
            return None
        del self._partial[key]
        return b"".join(chunk for _, chunk in sorted(entry.chunks.items()))

    def _expire(self, now: float):
        stale = [k for k, v in self._partial.items() if v.deadline <= now]
        for k in stale:
            del self._partial[k]
            self.expired_count += 1
