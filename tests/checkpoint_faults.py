"""Corruptions of a valid checkpoint's bytes that the loader must reject.

``CHECKPOINT_FAULTS`` maps a fault name to ``(corrupt, message)``:
``corrupt`` turns the bytes of a checkpoint written by ``save_checkpoint``
(3 classes, final channel count not divisible by 3) into faulty bytes,
and ``message`` is part of the ``FormatError`` the loader must raise.
"""

import math
import struct

HEADER = 12   # magic, version, config length


def split_records(blob: bytes) -> tuple:
    """(header and config bytes, [bytes of each parameter record])."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    offset = HEADER + text_len
    head, records = blob[:offset], []
    while offset < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, offset)
        shape = struct.unpack_from("<4Q", blob, offset + 4 + name_len)
        end = offset + 4 + name_len + 32 + 8 * math.prod(shape)
        records.append(blob[offset:end])
        offset = end
    return head, records


def _set_byte(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


def _edit_config(blob: bytes, key: str, edit) -> bytes:
    """Rewrite one ``key=value`` line of the config text (and its length)."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    lines = blob[HEADER:HEADER + text_len].decode("utf-8").splitlines()
    lines = [f"{key}={edit(line.split('=', 1)[1])}"
             if line.startswith(key + "=") else line for line in lines]
    text = ("\n".join(lines) + "\n").encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + blob[HEADER + text_len:])


def _add_config_line(blob: bytes, line: str) -> bytes:
    """Append one line to the config text (and fix its length)."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    text = blob[HEADER:HEADER + text_len] + line.encode("utf-8") + b"\n"
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + blob[HEADER + text_len:])


def _repeat_config_line(blob: bytes, key: str) -> bytes:
    """Append a second copy of the ``key=value`` line, value unchanged."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    text = blob[HEADER:HEADER + text_len].decode("utf-8")
    line = next(line for line in text.splitlines()
                if line.startswith(key + "="))
    return _add_config_line(blob, line)


def _drop_config_line(blob: bytes, key: str) -> bytes:
    """Remove the ``key=value`` line from the config text (and fix its length)."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    lines = blob[HEADER:HEADER + text_len].decode("utf-8").splitlines()
    text = "".join(line + "\n" for line in lines
                   if not line.startswith(key + "=")).encode("utf-8")
    return (blob[:8] + struct.pack("<I", len(text)) + text
            + blob[HEADER + text_len:])


def _nan_last_value(blob: bytes) -> bytes:
    return blob[:-8] + struct.pack("<d", math.nan)


def _bad_utf8_name(blob: bytes) -> bytes:
    head, _ = split_records(blob)
    return _set_byte(blob, len(head) + 4, 0xFF)


def _duplicate_last_record(blob: bytes) -> bytes:
    head, records = split_records(blob)
    return head + b"".join(records + records[-1:])


def _unknown_record_first(blob: bytes) -> bytes:
    """A one-value record named ``bogus``, holding NaN, before the first."""
    head, records = split_records(blob)
    bogus = (struct.pack("<I", 5) + b"bogus" + struct.pack("<4Q", 1, 1, 1, 1)
             + struct.pack("<d", math.nan))
    return head + bogus + b"".join(records)


CHECKPOINT_FAULTS = {
    "unsupported version": (
        lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
        "unsupported checkpoint version 2"),
    "non-finite value": (_nan_last_value, "non-finite value in head.out.bias"),
    "config not UTF-8": (lambda blob: _set_byte(blob, HEADER, 0xFF),
                         "checkpoint config is not valid UTF-8"),
    "name not UTF-8": (_bad_utf8_name, "parameter name is not valid UTF-8"),
    "duplicate record": (_duplicate_last_record,
                         "duplicate parameter record 'head.out.bias'"),
    "unknown record first": (_unknown_record_first,
                             "parameter table mismatch: ['bogus']"),
    "input size too large": (
        lambda blob: _edit_config(_edit_config(
            blob, "input_height", lambda v: "65536"),
            "input_width", lambda v: "65536"),
        "invalid checkpoint config: input size 65536x65536 exceeds 1024"),
    "fab_ratio does not divide": (
        lambda blob: _edit_config(blob, "fab_ratio", lambda v: "3"),
        "invalid checkpoint config: fab_ratio 3 must divide"),
    "flag not a bool": (
        lambda blob: _edit_config(blob, "freeze_backbone", lambda v: "maybe"),
        "invalid checkpoint config: expected true/false, got 'maybe'"),
    "class-name count": (
        lambda blob: _edit_config(blob, "class_names", lambda v: v + ",extra"),
        "invalid checkpoint config: 4 class names for 3 classes"),
    "unknown config key": (
        lambda blob: _add_config_line(blob, "bogus_key=1"),
        "unknown checkpoint config key 'bogus_key'"),
    "repeated config key": (
        lambda blob: _repeat_config_line(blob, "head_hidden"),
        "repeated checkpoint config key 'head_hidden'"),
    "missing config key": (
        lambda blob: _drop_config_line(blob, "head_hidden"),
        "missing checkpoint config key 'head_hidden'"),
}
