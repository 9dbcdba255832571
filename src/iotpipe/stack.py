"""Network stack endpoint: UDP/IPv6 (+6LoWPAN) datagrams over the simulated link.

Binds one 802.15.4 link endpoint to a pair of IPv6/UDP endpoints and moves
application payloads across, compressing and fragmenting as configured.
"""

import dataclasses
import functools
from dataclasses import dataclass

from . import link154, lowpan

# Calibrated one-hop deployment: node with an extended link address whose
# interface id is elided from the source address, gateway reachable at a
# short-derived address carried as 2 inline bytes, hop limit inline,
# CoAP ports inside the 4-bit compressible range, checksum inline.
NODE_LINK_ADDR = bytes.fromhex("00124b0001020304")
GATEWAY_LINK_ADDR = bytes.fromhex("00124b00050607ff")
NODE_IPV6 = lowpan.link_local_from(NODE_LINK_ADDR)
GATEWAY_IPV6 = lowpan.LINK_LOCAL_PREFIX + bytes.fromhex("000000fffe000001")
NODE_PORT = 0xF0B1
GATEWAY_PORT = 0xF0B2
CALIBRATED_HOP_LIMIT = 2


@dataclass(frozen=True)
class StackConfig:
    local_link_addr: bytes
    peer_link_addr: bytes
    local_ipv6: bytes
    peer_ipv6: bytes
    local_port: int
    peer_port: int
    profile: str = "calibrated"
    compress: bool = True


def node_stack_config(compress: bool = True, profile: str = "calibrated") -> StackConfig:
    return StackConfig(
        local_link_addr=NODE_LINK_ADDR,
        peer_link_addr=GATEWAY_LINK_ADDR,
        local_ipv6=NODE_IPV6,
        peer_ipv6=GATEWAY_IPV6,
        local_port=NODE_PORT,
        peer_port=GATEWAY_PORT,
        profile=profile,
        compress=compress,
    )


def gateway_stack_config(compress: bool = True, profile: str = "calibrated") -> StackConfig:
    return peer_config(node_stack_config(compress, profile))


def udp_headers(cfg: StackConfig, payload: bytes) -> lowpan.Ipv6UdpHeaders:
    """Uncompressed IPv6/UDP headers of one datagram from ``cfg``'s local end to its peer."""
    return lowpan.Ipv6UdpHeaders(
        src_addr=cfg.local_ipv6,
        dst_addr=cfg.peer_ipv6,
        udp_src_port=cfg.local_port,
        udp_dst_port=cfg.peer_port,
        udp_checksum=lowpan.udp_checksum(
            cfg.local_ipv6, cfg.peer_ipv6, cfg.local_port, cfg.peer_port, payload
        ),
        payload_length=8 + len(payload),
        hop_limit=CALIBRATED_HOP_LIMIT,
    )


def link_frame(cfg: StackConfig, link_payload: bytes, sequence: int = 0) -> link154.LinkFrame:
    """The 802.15.4 frame that carries ``link_payload`` from ``cfg``'s local end to its peer."""
    profile = link154.PROFILES[cfg.profile]
    return link154.LinkFrame(
        dst_addr=cfg.peer_link_addr,
        src_addr=cfg.local_link_addr,
        payload=link_payload,
        sequence=sequence,
        src_pan=None if profile.pan_compression else link154.PAN_ID,
        include_fcs=profile.include_fcs,
    )


def peer_config(cfg: StackConfig) -> StackConfig:
    """The config of ``cfg``'s peer: the same flow in the other direction."""
    return dataclasses.replace(
        cfg, local_link_addr=cfg.peer_link_addr, peer_link_addr=cfg.local_link_addr,
        local_ipv6=cfg.peer_ipv6, peer_ipv6=cfg.local_ipv6,
        local_port=cfg.peer_port, peer_port=cfg.local_port)


# Where an uncompressed datagram (dispatch byte, then RFC 8200 / RFC 768
# headers) carries its IPv6 payload length, and then its UDP length and
# checksum, the fields that change per datagram.
_PLAIN_LENGTH = 1 + 4
_PLAIN_UDP_LENGTH = 1 + 44

_SEQUENCE_BYTES = [bytes([n]) for n in range(256)]


class _Flow:
    """Header templates of the datagrams and frames that ``cfg``'s local end
    sends to its peer, filled once from the general codecs.

    Per datagram only the UDP checksum and the lengths change, and per frame
    the sequence number (byte 2 of the 802.15.4 header) and the FCS. The
    receiving end holds the same templates and recognises their bytes.
    """

    def __init__(self, cfg: StackConfig):
        headers = udp_headers(cfg, b"")
        ctx = lowpan.CompressionContext(link_src=cfg.local_link_addr,
                                        link_dst=cfg.peer_link_addr)
        compressed = lowpan.compress(headers, ctx).to_bytes()
        # The inline checksum is the last field of the IPHC/NHC header
        # (RFC 6282 section 4.3.3); everything before it is constant.
        self.iphc_len = len(compressed)
        self.iphc_prefix = compressed[:-2]
        # The headers the receiver parses from the prefix, the same for every
        # datagram of the flow apart from the checksum and the length.
        self.headers, _ = lowpan.parse_datagram(compressed, ctx)
        plain = bytes([lowpan.DISPATCH_IPV6]) + headers.serialize()
        self.plain_head = plain[:_PLAIN_LENGTH]
        self.plain_mid = plain[_PLAIN_LENGTH + 2:_PLAIN_UDP_LENGTH]
        self.checksum_sum = lowpan.pseudo_header_sum(
            cfg.local_ipv6, cfg.peer_ipv6, cfg.local_port, cfg.peer_port)
        self.compress = cfg.compress

        empty = link_frame(cfg, b"")
        wire = empty.serialize()
        self.include_fcs = empty.include_fcs
        self.min_frame = len(wire)
        self.header_len = len(wire) - (2 if empty.include_fcs else 0)
        self.mac_head, self.mac_tail = wire[:2], wire[3:self.header_len]
        self.src = cfg.local_link_addr

    def datagram_header(self, payload: bytes) -> bytes:
        checksum = lowpan.checksum_with(self.checksum_sum, payload).to_bytes(2, "big")
        if self.compress:
            return self.iphc_prefix + checksum
        length = (8 + len(payload)).to_bytes(2, "big")
        return self.plain_head + length + self.plain_mid + length + checksum

    def frame(self, sequence: int, link_payload: bytes) -> bytes:
        wire = self.mac_head + _SEQUENCE_BYTES[sequence] + self.mac_tail + link_payload
        if self.include_fcs:
            wire += link154.crc16_kermit(wire).to_bytes(2, "little")
        return wire

    def unframe(self, wire: bytes):
        """The link payload of ``wire`` if it carries this flow's 802.15.4
        header (any sequence number) and fits the frame limits, else None.
        Raises ``LinkError`` on a bad FCS."""
        if not (self.min_frame <= len(wire) <= link154.MAX_FRAME
                and wire.startswith(self.mac_head) and wire.startswith(self.mac_tail, 3)):
            return None
        if not self.include_fcs:
            return wire[self.header_len:]
        if int.from_bytes(wire[-2:], "little") != link154.crc16_kermit(wire[:-2]):
            raise link154.LinkError("FCS mismatch")
        return wire[self.header_len:-2]

    def parse(self, datagram: bytes):
        """(headers, payload) of a datagram that starts with this flow's
        IPHC/NHC header, else None."""
        if len(datagram) < self.iphc_len or not datagram.startswith(self.iphc_prefix):
            return None
        h = self.headers
        payload = datagram[self.iphc_len:]
        return lowpan.Ipv6UdpHeaders(
            h.src_addr, h.dst_addr, h.udp_src_port, h.udp_dst_port,
            int.from_bytes(datagram[self.iphc_len - 2:self.iphc_len], "big"),
            8 + len(payload), h.hop_limit, h.traffic_class, h.flow_label, h.next_header,
        ), payload


_flow = functools.cache(_Flow)  # one set of templates per config


@dataclass
class TransmitRecord:
    net_transport_bytes: int
    link_overhead_bytes: int
    frame_sizes: list
    delivered: bool

    @property
    def total_bytes(self) -> int:
        return sum(self.frame_sizes)


@dataclass
class Datagram:
    headers: lowpan.Ipv6UdpHeaders
    payload: bytes
    link_src: bytes = b""


class StackEndpoint:
    """One UDP endpoint over one link endpoint. Single-owner, not thread-safe.

    Headers come from per-flow templates (``_Flow``), filled on first use and
    shared by every endpoint with the same config. A received frame or
    datagram whose header is not its peer's template goes to the general
    parsers, ``LinkFrame.parse`` and ``lowpan.parse_datagram``.
    """

    def __init__(self, link_endpoint: link154.LinkEndpoint, config: StackConfig):
        self.link = link_endpoint
        self.config = config
        empty = link_frame(config, b"")
        self.link_overhead = len(empty.serialize())  # header + trailer bytes per frame
        self._include_fcs = empty.include_fcs
        self._sequence = 0
        self._tag = 0
        self._reassembler = lowpan.Reassembler()
        self._out = self._in = None  # _Flow of what this end sends and receives
        self.link_errors = 0      # received frames dropped as malformed 802.15.4
        self.lowpan_errors = 0    # received frames dropped as malformed 6LoWPAN

    @property
    def reassembly_expired(self) -> int:
        return self._reassembler.expired_count

    def send(self, payload: bytes, now: float = 0.0) -> TransmitRecord:
        flow = self._out
        if flow is None:
            flow = self._out = _flow(self.config)
        header_bytes = flow.datagram_header(payload)
        datagram = header_bytes + payload

        self._tag = (self._tag + 1) & 0xFFFF
        fset = lowpan.fragment(datagram, link154.MAX_FRAME - self.link_overhead, tag=self._tag)

        frame_sizes = []
        delivered = True
        for link_payload in fset.wire_fragments():
            wire = flow.frame(self._sequence, link_payload)
            self._sequence = (self._sequence + 1) & 0xFF
            frame_sizes.append(len(wire))
            outcome = self.link.send(wire, now=now)
            delivered = delivered and outcome.delivered

        return TransmitRecord(
            net_transport_bytes=len(header_bytes),
            link_overhead_bytes=self.link_overhead * len(frame_sizes),
            frame_sizes=frame_sizes,
            delivered=delivered,
        )

    def receive(self, now: float = None) -> list:
        """Complete datagrams that have arrived, as Datagram records.

        A malformed frame is dropped and counted in ``link_errors`` or
        ``lowpan_errors``; the frames after it are still processed.
        """
        out = []
        tick = now if now is not None else 0.0
        flow = self._in
        if flow is None:
            flow = self._in = _flow(peer_config(self.config))
        for wire in self.link.receive(now):
            try:
                link_payload = flow.unframe(wire)
                if link_payload is not None:
                    link_src = flow.src
                else:
                    frame = link154.LinkFrame.parse(wire, include_fcs=self._include_fcs)
                    link_src, link_payload = bytes(frame.src_addr), frame.payload
            except link154.LinkError:
                self.link_errors += 1
                continue
            try:
                datagram = self._reassembler.push(link_src, link_payload, now=tick)
                if datagram is None:
                    continue
                parsed = flow.parse(datagram) if link_src == flow.src else None
                if parsed is not None:
                    headers, payload = parsed
                elif datagram[0] == lowpan.DISPATCH_IPV6:
                    headers = lowpan.Ipv6UdpHeaders.parse(datagram[1:49])
                    payload = datagram[49:]
                else:
                    ctx = lowpan.CompressionContext(link_src=link_src,
                                                    link_dst=self.config.local_link_addr)
                    headers, payload = lowpan.parse_datagram(datagram, ctx)
            except lowpan.LowpanError:
                self.lowpan_errors += 1
                continue
            out.append(Datagram(headers=headers, payload=payload, link_src=link_src))
        return out
