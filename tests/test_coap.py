import pytest
from hypothesis import given, settings, strategies as st

from iotpipe import coap

PAYLOAD = b'{"result":2143}'


def test_empty_ack_encodes_to_four_bytes():
    msg = coap.CoapMessage(msg_type=coap.MsgType.ACK, code=(0, 0), message_id=0x1234)
    assert coap.encode(msg) == bytes.fromhex("60001234")


def test_non_post_first_byte():
    msg = coap.CoapMessage(msg_type=coap.MsgType.NON, code=(0, 2), message_id=0)
    encoded = coap.encode(msg)
    assert len(encoded) == 4
    assert encoded[0] == 0x50


def test_canonical_observation_request_is_37_bytes():
    msg = coap.build_observation_request(["Observations"], PAYLOAD)
    encoded = coap.encode(msg)
    assert len(encoded) == 37
    assert len(encoded) - len(msg.payload) == 22


def test_decode_empty_ack():
    msg = coap.decode(bytes.fromhex("60001234"))
    assert msg.msg_type == coap.MsgType.ACK
    assert msg.message_id == 0x1234
    assert msg.token == b""
    assert msg.options == []
    assert msg.payload == b""


def test_canonical_request_round_trips():
    msg = coap.build_observation_request(["Observations"], PAYLOAD)
    assert coap.decode(coap.encode(msg)) == msg


def test_decode_truncated():
    with pytest.raises(coap.Truncated):
        coap.decode(b"\x40")


def test_decode_bad_version():
    with pytest.raises(coap.BadVersion):
        coap.decode(bytes.fromhex("20001234"))


def test_decode_reserved_nibble():
    # option byte with delta nibble 15 that is not a payload marker
    with pytest.raises(coap.BadOptionEncoding):
        coap.decode(bytes.fromhex("600012 34 f1 00".replace(" ", "")))


def test_encode_rejects_long_token():
    msg = coap.CoapMessage(
        msg_type=coap.MsgType.CON, code=(0, 1), message_id=1, token=b"123456789"
    )
    with pytest.raises(coap.TokenTooLong):
        coap.encode(msg)


def test_encode_rejects_unsorted_options():
    msg = coap.CoapMessage(
        msg_type=coap.MsgType.CON, code=(0, 1), message_id=1,
        options=[(12, b"\x32"), (11, b"x")],
    )
    with pytest.raises(coap.OptionOrderViolation):
        coap.encode(msg)


def test_build_observation_request_longer_path_is_bigger():
    short = coap.build_observation_request(["Observations"], PAYLOAD)
    full = coap.build_observation_request(
        ["v1.0", "Datastreams(1)", "Observations"], PAYLOAD
    )
    assert len(coap.encode(full)) > len(coap.encode(short)) == 37


def test_build_observation_request_rejects_empty_payload():
    with pytest.raises(ValueError):
        coap.build_observation_request(["Observations"], b"")


def test_build_observation_request_rejects_empty_segment():
    with pytest.raises(ValueError):
        coap.build_observation_request([""], PAYLOAD)


def test_match_response_same_token():
    req = coap.CoapMessage(coap.MsgType.CON, (0, 2), 7, token=b"\xab\xcd")
    ack = coap.CoapMessage(coap.MsgType.ACK, (2, 1), 7, token=b"\xab\xcd")
    assert coap.match_response(req, ack)


def test_match_response_differing_tokens():
    req = coap.CoapMessage(coap.MsgType.CON, (0, 2), 7, token=b"\xab\xcd")
    resp = coap.CoapMessage(coap.MsgType.ACK, (2, 1), 7, token=b"\xab\xce")
    assert not coap.match_response(req, resp)


def test_match_response_separate_non_response():
    # token carries the correlation for separate responses; message id differs
    req = coap.CoapMessage(coap.MsgType.CON, (0, 2), 7, token=b"\xab\xcd")
    sep = coap.CoapMessage(coap.MsgType.NON, (2, 1), 99, token=b"\xab\xcd")
    assert coap.match_response(req, sep)


def test_match_response_ack_wrong_mid():
    req = coap.CoapMessage(coap.MsgType.CON, (0, 2), 7, token=b"\xab\xcd")
    ack = coap.CoapMessage(coap.MsgType.ACK, (2, 1), 8, token=b"\xab\xcd")
    assert not coap.match_response(req, ack)


def test_content_format_registry():
    assert coap.CONTENT_FORMATS[0] == "text/plain"
    assert coap.CONTENT_FORMATS[50] == "application/json"
    assert coap.CONTENT_FORMATS[60] == "application/cbor"
    assert len(set(coap.CONTENT_FORMATS)) == len(coap.CONTENT_FORMATS)


def test_message_id_counter_wraps():
    counter = coap.MessageIdCounter(start=0xFFFF)
    assert counter.take() == 0xFFFF
    assert counter.take() == 0


option_values = st.binary(max_size=20)
option_numbers = st.integers(min_value=0, max_value=2000)

messages = st.builds(
    coap.CoapMessage,
    msg_type=st.sampled_from(list(coap.MsgType)),
    code=st.tuples(st.integers(0, 7), st.integers(0, 31)),
    message_id=st.integers(0, 0xFFFF),
    token=st.binary(max_size=8),
    options=st.lists(
        st.tuples(option_numbers, option_values), max_size=5
    ).map(lambda opts: sorted(opts, key=lambda o: o[0])),
    payload=st.binary(max_size=64),
)


@settings(max_examples=300)
@given(messages)
def test_round_trip(msg):
    assert coap.decode(coap.encode(msg)) == msg


@settings(max_examples=200)
@given(messages)
def test_size_formula(msg):
    encoded = coap.encode(msg)
    options_size = 0
    prev = 0
    for number, value in msg.options:
        options_size += 1 + len(value)
        for part in (number - prev, len(value)):
            if 13 <= part < 269:
                options_size += 1
            elif part >= 269:
                options_size += 2
        prev = number
    expected = 4 + len(msg.token) + options_size
    expected += 1 + len(msg.payload) if msg.payload else 0
    assert len(encoded) == expected


@settings(max_examples=100)
@given(messages)
def test_encoding_is_canonical(msg):
    assert coap.encode(msg) == coap.encode(coap.decode(coap.encode(msg)))
