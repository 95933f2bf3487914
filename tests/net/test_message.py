"""Messages and the wire schema: each packet type's declared shapes."""

import numpy as np
import pytest

from repro.net import Message, PacketType
from repro.net.message import array, items, scalar, sized, text


def test_type_tags_are_single_byte():
    for ptype in PacketType:
        assert 0 < int(ptype) < 256


def test_type_tags_unique():
    values = [int(p) for p in PacketType]
    assert len(values) == len(set(values))


def test_every_type_declares_a_shape():
    for ptype in PacketType:
        assert ptype.shapes, ptype.name
        for shape in ptype.shapes:
            kinds = shape.values() if isinstance(shape, dict) else [shape]
            assert all(k in (None, scalar, array, text, items, sized) for k in kinds), ptype.name


def test_scalar_kind():
    assert scalar(None) == 0
    assert scalar(7) == 8
    assert scalar(3.14) == 8
    assert scalar(True) == 8
    assert scalar(np.int32(2)) == 8


def test_array_kind():
    assert array(np.zeros(10, dtype=np.int64)) == 80
    assert array(np.zeros(10, dtype=np.int8)) == 10


def test_text_kind_is_utf8_length():
    assert text("out") == 3
    assert text("é") == 2


def test_items_kind_charges_each_item_of_a_sequence_or_map():
    assert items([1, 2, 3]) == 24
    assert items((PacketType.DIRECTORY_UPDATE,)) == 8
    assert items({"a": 1.0, "b": 2.0}) == 16


def test_sized_kind_reads_nbytes():
    class Sized:
        nbytes = 1234

    assert sized(Sized()) == 1234


def test_record_charges_values_not_field_names():
    """A struct-of-arrays data packet charges its arrays + scalar
    header fields; the field names are struct layout, not wire data."""
    payload = {"step": 1, "round": 2, "inc": 0,
               "dst": np.zeros(10, dtype=np.int64), "val": np.zeros(10)}
    msg = Message(ptype=PacketType.VERTEX_MSG, payload=payload)
    assert msg.size_bytes == 1 + 3 * 8 + 10 * 8 + 10 * 8


def test_message_size_includes_type_byte():
    msg = Message(ptype=PacketType.SPLIT_REPORT, payload=np.zeros(2, dtype=np.int64))
    assert msg.size_bytes == 1 + 16


def test_flag_only_packet_is_one_byte():
    assert Message(ptype=PacketType.DIRECTORY_QUERY).size_bytes == 1


def test_undeclared_field_raises():
    payload = {"agent_id": 1, "extra": 2}
    with pytest.raises(TypeError, match="HEARTBEAT declares no payload"):
        Message(ptype=PacketType.HEARTBEAT, payload=payload)


def test_missing_field_raises():
    with pytest.raises(TypeError, match="VERTEX_MSG_ACK declares no payload"):
        Message(ptype=PacketType.VERTEX_MSG_ACK, payload={"count": 2})


def test_wrong_field_type_raises():
    with pytest.raises(TypeError, match="VERTEX_MSG.dst: array field holds list"):
        Message(
            ptype=PacketType.VERTEX_MSG,
            payload={"step": 0, "round": 0, "inc": 0, "dst": [1, 2], "val": np.zeros(2)},
        )


def test_wrong_payload_type_raises():
    with pytest.raises(TypeError, match="SPLIT_REPORT: array field holds str"):
        Message(ptype=PacketType.SPLIT_REPORT, payload="7")
    with pytest.raises(TypeError, match="VERTEX_MSG declares no payload shaped like NoneType"):
        Message(ptype=PacketType.VERTEX_MSG)
    with pytest.raises(TypeError, match="DIRECTORY_QUERY declares no payload shaped like int"):
        Message(ptype=PacketType.DIRECTORY_QUERY, payload=3)


def test_a_dict_payload_matches_only_a_record():
    """SUBSCRIBE declares a topic sequence and a ``{"remove": ...}``
    record: a dict is never sized as a sequence."""
    with pytest.raises(TypeError, match="SUBSCRIBE declares no payload"):
        Message(ptype=PacketType.SUBSCRIBE, payload={"topics": 1})


def test_reply_correlates_request_id():
    request = Message(ptype=PacketType.DIRECTORY_QUERY, request_id=42)
    response = request.reply(PacketType.DIRECTORY_ASSIGN, payload=7)
    assert response.request_id == 42
    assert response.ptype == PacketType.DIRECTORY_ASSIGN
    assert response.payload == 7
    assert response.size_bytes == 9
