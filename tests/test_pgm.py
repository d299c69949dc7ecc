"""PGM image files and plain-text kernel files."""

import numpy as np
import pytest

from redlab import gaussian_kernel
from redlab.pgmio import read_kernel_file, read_pgm, write_kernel_file, write_pgm


def test_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(8)
    img = rng.random(30).reshape(6, 5)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert not back.flags.writeable
    assert np.max(np.abs(back - img)) <= 1.0 / 65535


def test_round_trip_8bit(tmp_path):
    # The package writes 16-bit files only; 8-bit ones come from elsewhere.
    img = np.random.default_rng(9).random(16).reshape(4, 4)
    path = tmp_path / "b.pgm"
    levels = np.floor(img * 255 + 0.5).astype(np.uint8)
    path.write_bytes(b"P5\n4 4\n255\n" + levels.tobytes())
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255


def test_write_clips_and_rounds(tmp_path):
    # Out-of-range pixels clip; in-range ones round half away from zero.
    img = np.array([[-0.5, 1.5, 0.5 / 65535, 1.5 / 65535]])
    path = tmp_path / "c.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    levels = np.frombuffer(raw[-8:], dtype=">u2").tolist()
    assert levels == [0, 65535, 1, 2]


def test_write_is_always_16bit(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(path, np.array([[0.0, 1.0]]))
    assert path.read_bytes() == b"P5\n2 1\n65535\n" + bytes([0, 0, 255, 255])


def test_write_rejects_non_finite_and_non_2d(tmp_path):
    # A NaN has no defined 16-bit level; a flat vector has no width.
    path = tmp_path / "d2.pgm"
    for bad in (np.array([[0.5, np.nan]]), np.array([[np.inf, 0.5]]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            write_pgm(path, bad)
    assert not path.exists()


def test_read_known_bytes(tmp_path):
    path = tmp_path / "e.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert np.allclose(img, [[0.0, 1.0], [128 / 255, 64 / 255]])


def test_read_header_comments(tmp_path):
    path = tmp_path / "f.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
    img = read_pgm(path)
    assert np.allclose(img, [[10 / 255, 20 / 255]])


def test_read_rejects_ascii_pgm(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_rejects_truncated(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1]))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_rejects_bad_maxval(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n1 1\n70000\n" + bytes([0, 0]))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_16bit_is_big_endian(tmp_path):
    # Level 1 at maxval 65535 must serialize as 0x00 0x01.
    img = np.array([[1.0 / 65535]])
    path = tmp_path / "j.pgm"
    write_pgm(path, img)
    assert path.read_bytes()[-2:] == bytes([0, 1])


def test_kernel_file_round_trip(tmp_path):
    k = gaussian_kernel(5, 1.3)
    path = tmp_path / "k.txt"
    write_kernel_file(path, k)
    back = read_kernel_file(path)
    assert back.shape == (5, 5)
    assert not back.flags.writeable
    assert np.array_equal(back, k)
    # First line is the size, then one row per line.
    lines = path.read_text().splitlines()
    assert lines[0] == "5"
    assert len(lines) == 6


def test_kernel_file_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ValueError):
        read_kernel_file(p)
    p.write_text("3\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_kernel_file(p)
    p.write_text("2\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_kernel_file(p)
    p.write_text("3\n1 2 3 4 5 6 7 8 x\n")
    with pytest.raises(ValueError):
        read_kernel_file(p)
    p.write_text("3\n1 2 3 4 nan 6 7 8 9\n")
    with pytest.raises(ValueError):
        read_kernel_file(p)


@pytest.mark.parametrize(
    "read, data, message",
    [
        (read_pgm, b"P5\n2 ", "truncated PGM header"),
        (read_pgm, b"P5\n0 2\n255\n", "invalid PGM dimensions"),
        (read_kernel_file, b"x\n1\n", "invalid kernel size token"),
    ],
    ids=["truncated_header", "zero_width", "kernel_size_token"],
)
def test_malformed_headers_are_refused(tmp_path, read, data, message):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        read(path)
