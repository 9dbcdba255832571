"""Network stack endpoint: UDP/IPv6 (+6LoWPAN) datagrams over the simulated link.

Binds one 802.15.4 link endpoint to a pair of IPv6/UDP endpoints and moves
application payloads across, compressing and fragmenting as configured.
"""

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


@dataclass
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
    return StackConfig(
        local_link_addr=GATEWAY_LINK_ADDR,
        peer_link_addr=NODE_LINK_ADDR,
        local_ipv6=GATEWAY_IPV6,
        peer_ipv6=NODE_IPV6,
        local_port=GATEWAY_PORT,
        peer_port=NODE_PORT,
        profile=profile,
        compress=compress,
    )


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


@dataclass
class TransmitRecord:
    payload_bytes: int
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
    """One UDP endpoint over one link endpoint. Single-owner, not thread-safe."""

    def __init__(self, link_endpoint: link154.LinkEndpoint, config: StackConfig):
        self.link = link_endpoint
        self.config = config
        empty = link_frame(config, b"")
        self.link_overhead = len(empty.serialize())  # header + trailer bytes per frame
        self._include_fcs = empty.include_fcs
        self._sequence = 0
        self._tag = 0
        self._reassembler = lowpan.Reassembler()

    @property
    def reassembly_expired(self) -> int:
        return self._reassembler.expired_count

    def send(self, payload: bytes, now: float = 0.0) -> TransmitRecord:
        cfg = self.config
        headers = udp_headers(cfg, payload)
        if cfg.compress:
            ctx = lowpan.CompressionContext(
                link_src=cfg.local_link_addr, link_dst=cfg.peer_link_addr
            )
            header_bytes = lowpan.compress(headers, ctx).to_bytes()
        else:
            header_bytes = bytes([lowpan.DISPATCH_IPV6]) + headers.serialize()
        datagram = header_bytes + payload

        self._tag = (self._tag + 1) & 0xFFFF
        fset = lowpan.fragment(datagram, link154.MAX_FRAME - self.link_overhead, tag=self._tag)

        frame_sizes = []
        delivered = True
        for link_payload in fset.wire_fragments():
            wire = link_frame(cfg, link_payload, self._sequence).serialize()
            self._sequence = (self._sequence + 1) & 0xFF
            frame_sizes.append(len(wire))
            outcome = self.link.send(wire, now=now)
            delivered = delivered and outcome.delivered

        return TransmitRecord(
            payload_bytes=len(payload),
            net_transport_bytes=len(header_bytes),
            link_overhead_bytes=self.link_overhead * len(frame_sizes),
            frame_sizes=frame_sizes,
            delivered=delivered,
        )

    def receive(self, now: float = None) -> list:
        """Complete datagrams that have arrived, as Datagram records."""
        out = []
        tick = now if now is not None else 0.0
        for wire in self.link.receive(now):
            frame = link154.LinkFrame.parse(wire, include_fcs=self._include_fcs)
            datagram = self._reassembler.push(bytes(frame.src_addr), frame.payload, now=tick)
            if datagram is None:
                continue
            if datagram[0] == lowpan.DISPATCH_IPV6:
                headers = lowpan.Ipv6UdpHeaders.parse(datagram[1:49])
                payload = datagram[49:]
            else:
                ctx = lowpan.CompressionContext(
                    link_src=bytes(frame.src_addr),
                    link_dst=self.config.local_link_addr,
                )
                headers, payload = lowpan.parse_datagram(datagram, ctx)
            out.append(Datagram(headers=headers, payload=payload,
                                link_src=bytes(frame.src_addr)))
        return out
