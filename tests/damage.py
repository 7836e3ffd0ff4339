"""Damaged copies of binary files, drawn by hypothesis, for reader fuzz tests."""

from hypothesis import strategies as st

# values written over a count, length, rank or extent field
ABSURD_COUNTS = (0, 1, 2, 33, 70, 1200, 2**31 - 1, 2**31, 2**32 - 1)


def damage(data, blob: bytes, count_fields=()) -> bytes:
    """One to three of: a truncation, a bit flip, a random 4-byte overwrite,
    or an absurd value over one of the uint32 fields at ``count_fields``."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="damages")):
        kind = data.draw(st.sampled_from(
            ("truncate", "flip", "overwrite", "count")), label="kind")
        if not out:
            break
        if kind == "truncate":
            del out[data.draw(st.integers(0, len(out) - 1), label="cut"):]
            continue
        if kind == "flip":
            at = data.draw(st.integers(0, len(out) - 1), label="byte")
            out[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            continue
        if kind == "count" and count_fields:
            at = data.draw(st.sampled_from(count_fields), label="field")
            value = data.draw(st.sampled_from(ABSURD_COUNTS), label="count")
        else:
            at = data.draw(st.integers(0, len(out) - 1), label="at")
            value = data.draw(st.integers(0, 2**32 - 1), label="word")
        out[at:at + 4] = value.to_bytes(4, "little")
    return bytes(out)
