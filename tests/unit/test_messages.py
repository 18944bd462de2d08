"""Unit tests for wire messages."""

import json
import math
import sys

import numpy as np
import pytest

from repro.errors import TransportError
from repro.sim.messages import (
    Message,
    decode_message,
    encode_message,
    float_repr_lengths,
)


class TestMessage:
    def test_unique_ids(self):
        a = Message(kind="x", source=1, destination=2)
        b = Message(kind="x", source=1, destination=2)
        assert a.msg_id != b.msg_id

    def test_response_swaps_endpoints(self):
        request = Message(kind="ping", source=1, destination=2)
        reply = request.response(alive=True)
        assert reply.source == 2 and reply.destination == 1
        assert reply.reply_to == request.msg_id
        assert reply.kind == "ping_reply"
        assert reply.payload == {"alive": True}

    def test_response_custom_kind(self):
        request = Message(kind="q", source=1, destination=2)
        assert request.response(kind="ans").kind == "ans"

    def test_is_response(self):
        request = Message(kind="q", source=1, destination=2)
        assert not request.is_response
        assert request.response().is_response


class TestWireCoding:
    def test_roundtrip(self):
        original = Message(
            kind="lookup",
            source=10,
            destination=20,
            payload={"key": 5, "path": [1, 2]},
        )
        decoded = decode_message(encode_message(original))
        assert decoded.kind == original.kind
        assert decoded.source == original.source
        assert decoded.destination == original.destination
        assert decoded.payload == original.payload
        assert decoded.msg_id == original.msg_id

    def test_reply_to_preserved(self):
        reply = Message(kind="r", source=1, destination=2, reply_to=77)
        assert decode_message(encode_message(reply)).reply_to == 77

    def test_encoded_size_positive(self):
        assert Message(kind="x", source=0, destination=0).encoded_size() > 0

    def test_unserializable_payload(self):
        bad = Message(kind="x", source=0, destination=1, payload={"f": object()})
        with pytest.raises(TransportError):
            encode_message(bad)

    def test_malformed_datagram(self):
        with pytest.raises(TransportError):
            decode_message(b"not json")
        with pytest.raises(TransportError):
            decode_message(b'{"kind": "x"}')  # missing fields


class TestFloatReprLengths:
    """Batch sizing must match what ``json.dumps`` puts on the wire."""

    EDGE_VALUES = [
        math.inf,
        -math.inf,
        math.nan,
        0.0,
        -0.0,
        1e16,
        9999999999999998.0,
        5e-324,
        sys.float_info.max,
        -sys.float_info.max,
        1.0,
        -123.456,
    ]

    def test_equals_json_numeral_length(self):
        # json.dumps writes Infinity/-Infinity where repr writes inf/-inf.
        lengths = float_repr_lengths(np.array(self.EDGE_VALUES))
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [len(json.dumps(float(v))) for v in self.EDGE_VALUES]
