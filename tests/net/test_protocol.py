"""Frame codec and structured-error codec, over real socketpairs."""

from __future__ import annotations

import math
import socket
import struct
import threading

import pytest

from repro.exceptions import (
    HazyError,
    NetworkError,
    NetworkTimeoutError,
    ProtocolError,
    SQLPlanningError,
    SQLSyntaxError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    decode_error,
    encode_error,
    read_frame,
    write_frame,
)


def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def roundtrip(message: dict) -> dict:
    left, right = pair()
    try:
        write_frame(left, message)
        return read_frame(right)
    finally:
        left.close()
        right.close()


class TestFraming:
    def test_simple_round_trip(self):
        message = {"op": "query", "sql": "SELECT 1", "params": [1, "two", None, True]}
        assert roundtrip(message) == message

    def test_floats_round_trip_bit_identical(self):
        values = [0.1, 1 / 3, 2.5e-17, 1e300, -0.0, math.pi]
        back = roundtrip({"values": values})["values"]
        assert [v.hex() for v in back] == [v.hex() for v in values]

    def test_non_finite_floats_round_trip(self):
        back = roundtrip({"values": [math.inf, -math.inf, math.nan]})["values"]
        assert back[0] == math.inf
        assert back[1] == -math.inf
        assert math.isnan(back[2])

    def test_unicode_round_trip(self):
        message = {"sql": "SELECT 'héllo — ünïcode 🎓'"}
        assert roundtrip(message) == message

    def test_many_frames_in_sequence(self):
        left, right = pair()
        try:
            for index in range(50):
                write_frame(left, {"index": index})
            for index in range(50):
                assert read_frame(right) == {"index": index}
        finally:
            left.close()
            right.close()

    def test_oversized_outgoing_frame_rejected(self):
        left, right = pair()
        try:
            with pytest.raises(ProtocolError):
                write_frame(left, {"blob": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_rejected_before_read(self):
        left, right = pair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_is_protocol_error(self):
        left, right = pair()
        try:
            left.sendall(struct.pack(">I", 100) + b"only a little")
            left.close()
            with pytest.raises(ProtocolError):
                read_frame(right, eof_ok=True)  # EOF *mid-frame* is never ok
        finally:
            right.close()

    def test_clean_eof_between_frames(self):
        left, right = pair()
        try:
            left.close()
            assert read_frame(right, eof_ok=True) is None
            with pytest.raises(NetworkError):
                read_frame(right, eof_ok=False)
        finally:
            right.close()

    def test_garbage_payload_is_protocol_error(self):
        left, right = pair()
        try:
            payload = b"\xff\xfe not json"
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_payload_is_protocol_error(self):
        left, right = pair()
        try:
            payload = b"[1,2,3]"
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_deeply_nested_payload_is_protocol_error(self):
        # The decoder gives up on deep nesting with a RecursionError; the frame
        # layer must report it as a protocol fault like any other bad payload.
        left, right = pair()
        payload = b"[" * 200_000
        sender = threading.Thread(
            target=left.sendall, args=(struct.pack(">I", len(payload)) + payload,)
        )
        sender.start()
        try:
            with pytest.raises(ProtocolError, match="nests too deeply"):
                read_frame(right)
        finally:
            sender.join(timeout=5.0)
            left.close()
            right.close()

    def test_read_timeout_raises_network_timeout(self):
        left, right = pair()
        try:
            right.settimeout(0.05)
            with pytest.raises(NetworkTimeoutError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_incremental_row_encoding_is_byte_identical(self):
        import json

        from repro.net.protocol import _INCREMENTAL_ROWS, _encode_payload

        rows = [
            {"id": i, "margin": i * 0.1 - 1 / 3, "label": f"c{i % 3}", "none": None}
            for i in range(_INCREMENTAL_ROWS + 10)
        ]
        # ``rows`` last, matching how the server orders its query responses.
        message = {"ok": True, "rowcount": len(rows), "rows": rows}
        incremental = _encode_payload(message)
        monolithic = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert incremental == monolithic

    def test_incremental_encoding_rows_only_message(self):
        import json

        from repro.net.protocol import _INCREMENTAL_ROWS, _encode_payload

        message = {"rows": [{"id": i} for i in range(_INCREMENTAL_ROWS + 1)]}
        assert json.loads(_encode_payload(message)) == message

    def test_handler_threads_share_the_encoder(self):
        # Every frame goes through one module-level JSONEncoder; concurrent
        # encodes, switched as often as the interpreter allows, must each get
        # their own message's bytes.
        import json
        import sys

        from repro.net.protocol import _INCREMENTAL_ROWS, _encode_payload

        messages = [
            {"ok": True, "rowcount": n, "rows": [{"id": i, "tag": f"m{n}"} for i in range(n)]}
            for n in (3, _INCREMENTAL_ROWS + 1, 3 * _INCREMENTAL_ROWS)
        ]
        expected = [json.dumps(m, separators=(",", ":")).encode("utf-8") for m in messages]
        wrong: list[int] = []

        def encode(index: int) -> None:
            for _ in range(40):
                if _encode_payload(messages[index % 3]) != expected[index % 3]:
                    wrong.append(index)

        threads = [threading.Thread(target=encode, args=(index,)) for index in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_large_frame_crosses_in_chunks(self):
        # Big enough to need many recv() calls on a real socket buffer.
        message = {"rows": [{"id": i, "text": "t" * 200} for i in range(5000)]}
        left, right = pair()
        received: list[dict] = []

        def reader():
            received.append(read_frame(right))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            write_frame(left, message)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert received[0] == message
        finally:
            left.close()
            right.close()


class TestErrorCodec:
    def test_syntax_error_round_trip_with_diagnostics(self):
        original = SQLSyntaxError("unexpected token", position=17, token="FORM")
        rebuilt = decode_error(encode_error(original))
        assert type(rebuilt) is SQLSyntaxError
        assert str(rebuilt) == "unexpected token"
        assert rebuilt.position == 17
        assert rebuilt.token == "FORM"

    def test_planning_error_round_trip_with_diagnostics(self):
        original = SQLPlanningError("unknown column 'nme'", position=7, token="nme")
        rebuilt = decode_error(encode_error(original))
        assert type(rebuilt) is SQLPlanningError
        assert rebuilt.position == 7
        assert rebuilt.token == "nme"

    def test_error_without_diagnostics(self):
        payload = encode_error(HazyError("plain failure"))
        assert "position" not in payload
        rebuilt = decode_error(payload)
        assert type(rebuilt) is HazyError
        assert str(rebuilt) == "plain failure"

    def test_unknown_type_degrades_to_network_error(self):
        rebuilt = decode_error({"type": "TotallyMadeUpError", "message": "boom"})
        assert type(rebuilt) is NetworkError
        assert "TotallyMadeUpError" in str(rebuilt)
        assert "boom" in str(rebuilt)

    def test_non_hazy_type_name_degrades_to_network_error(self):
        # A real attribute of the exceptions module that is not a HazyError
        # subclass must not be instantiated.
        rebuilt = decode_error({"type": "annotations", "message": "x"})
        assert type(rebuilt) is NetworkError

    def test_codec_survives_a_socket_hop(self):
        original = SQLSyntaxError("bad", position=3, token="SELEC")
        frame = {"ok": False, "error": encode_error(original)}
        back = roundtrip(frame)
        rebuilt = decode_error(back["error"])
        assert type(rebuilt) is SQLSyntaxError
        assert (rebuilt.position, rebuilt.token) == (3, "SELEC")
