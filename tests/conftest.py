import socket
import threading

import pytest
from hypothesis import strategies as st

from iotpipe import link154, lowpan, sensorthings, stack

# Verbatim Thing body for the deployed sensor node, including its office
# location; used across backend and acceptance tests.
THING_BODY = {
    "name": "RIOT Alpha",
    "description": "IoT sensor node",
    "properties": {
        "owner": "iNET RG, HAW Hamburg",
        "device": "Phytec phyNODE",
        "operating system": "RIOT-OS",
    },
    "Locations": [{
        "name": "BT7-R580A",
        "description": "Office",
        "encodingType": "application/vnd.geo+json",
        "location": {
            "type": "Point",
            "coordinates": [10.022993, 53.557189],
        },
    }],
}


@pytest.fixture
def store():
    return sensorthings.Store()


@pytest.fixture
def seeded_store():
    s = sensorthings.Store()
    sensorthings.seed_default_entities(s)
    return s


@pytest.fixture
def serve():
    """``serve(store, clock=None)`` starts a BackendServer on ``store``, on
    ``clock`` or else the wall clock, and returns it; every server started
    is stopped after the test."""
    servers = []

    def start(store, clock=None):
        servers.append(sensorthings.BackendServer(store, clock=clock).start())
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def backend(serve, seeded_store):
    return serve(seeded_store)


def hostile_frames(cfg):
    """Lists of frames a sender with ``stack.StackConfig`` ``cfg`` might put
    on the link, most of them malformed. Several carry ``cfg``'s own 802.15.4
    header or IPHC/NHC prefix, so that they reach the receiver's template
    path: that header around random bytes (a bad FCS where the profile has
    one, and past 127 B), valid frames around the prefix and random bytes,
    valid frames with one byte flipped. Others come from another source
    address or PAN, or are raw bytes."""
    include_fcs = link154.PROFILES[cfg.profile].include_fcs
    empty = stack.link_frame(cfg, b"").serialize()
    header = empty[:len(empty) - 2] if include_fcs else empty
    ctx = lowpan.CompressionContext(link_src=cfg.local_link_addr, link_dst=cfg.peer_link_addr)
    prefix = lowpan.compress(stack.udp_headers(cfg, b""), ctx).to_bytes()[:-2]
    body = st.binary(max_size=80)
    sequence = st.integers(0, 255)

    def flipped(frame, at, mask):
        at %= len(frame)
        return frame[:at] + bytes([frame[at] ^ mask]) + frame[at + 1:]

    def foreign(src, src_pan, dst_pan, sequence, payload):
        return link154.LinkFrame(dst_addr=cfg.peer_link_addr, src_addr=src, payload=payload,
                                 sequence=sequence, dst_pan=dst_pan, src_pan=src_pan,
                                 include_fcs=include_fcs).serialize()

    valid = st.builds(lambda s, p: stack.link_frame(cfg, p, s).serialize(), sequence,
                      st.one_of(body, body.map(lambda b: prefix + b)))
    frame = st.one_of(
        st.binary(max_size=link154.MAX_FRAME + 3),
        st.binary(max_size=link154.MAX_FRAME).map(lambda b: header + b),
        st.binary(min_size=link154.MAX_FRAME + 1 - len(header), max_size=link154.MAX_FRAME)
        .map(lambda b: header + b),
        valid,
        st.builds(flipped, valid, st.integers(0, link154.MAX_FRAME), st.integers(1, 255)),
        st.builds(foreign,
                  st.one_of(st.binary(min_size=8, max_size=8), st.binary(min_size=2, max_size=2),
                            st.just(cfg.local_link_addr)),
                  st.one_of(st.none(), st.integers(0, 0xFFFF)),
                  st.one_of(st.just(link154.PAN_ID), st.integers(0, 0xFFFF)),
                  sequence, st.one_of(body, body.map(lambda b: prefix + b))),
    )
    return st.lists(frame, max_size=6)


class ScriptedUpstream:
    """A listener that answers with fixed raw replies.

    ``script`` holds one list of replies per connection it accepts, in order.
    Each request read on a connection gets that connection's next reply, and
    the connection is closed after its last one. ``requests`` collects the
    raw requests, heads and bodies, as received.
    """

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5)
        self.url = "http://127.0.0.1:%d/v1.0" % self.listener.getsockname()[1]
        self.requests = []
        self._thread = threading.Thread(target=self._serve, args=(script,), daemon=True)
        self._thread.start()

    def _serve(self, script):
        try:
            for replies in script:
                conn, _ = self.listener.accept()
                with conn, conn.makefile("rb") as rfile:
                    for reply in replies:
                        head, length = b"", 0
                        while not head.endswith(b"\r\n\r\n"):
                            line = rfile.readline()
                            if not line:
                                return
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                            head += line
                        self.requests.append(head + rfile.read(length))
                        conn.sendall(reply)
        except OSError:
            pass

    def close(self):
        self._thread.join(10)       # accept() gives up after 5 s
        self.listener.close()
        assert not self._thread.is_alive()


@pytest.fixture
def scripted():
    upstreams = []

    def start(*script):
        upstreams.append(ScriptedUpstream(script))
        return upstreams[-1]

    yield start
    for upstream in upstreams:
        upstream.close()
