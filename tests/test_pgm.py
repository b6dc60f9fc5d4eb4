import re

import numpy as np
import pytest

from vdfourier.pgm import read_pgm, write_pgm


def test_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(8, 12)).astype(float) / 255
    path = tmp_path / "a.pgm"
    write_pgm(path, img, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(np.rint(back * 255), np.rint(img * 255))


def test_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 65536, size=(5, 7)).astype(float) / 65535
    path = tmp_path / "b.pgm"
    write_pgm(path, img, maxval=65535)
    back, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(np.rint(back * 65535), np.rint(img * 65535))


def test_read_ascii_p2_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n3 2\n# another\n255\n0 128 255\n10 20 30\n")
    img, maxval = read_pgm(path)
    assert maxval == 255
    assert img.shape == (2, 3)
    assert np.rint(img[0] * 255).tolist() == [0, 128, 255]


def test_write_clips_out_of_range(tmp_path):
    path = tmp_path / "d.pgm"
    write_pgm(path, np.array([[-0.5, 1.5]]), maxval=255)
    img, _ = read_pgm(path)
    assert img[0].tolist() == [0.0, 1.0]


def test_read_rejects_bad_files(tmp_path):
    bad = tmp_path / "e.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(bad)
    trunc = tmp_path / "f.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_pgm(trunc)


@pytest.mark.parametrize("data", [b"", b"P5\n4 4\n", b"P2\n"], ids=["empty", "no-maxval", "p2-no-size"])
def test_read_rejects_truncated_header(tmp_path, data):
    path = tmp_path / "h.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("data, bad", [
    (b"P2\n2 1\n255\n0 -1\n", "pixel value -1 outside [0, maxval = 255]"),
    (b"P2\n2 1\n255\n4294967296 0\n", "pixel value 4294967296 outside"),
    (b"P2\n2 1\n255\n7 256\n", "pixel value 256 outside"),
    (b"P5\n2 1\n200\n\x00\xc9", "pixel value 201 outside [0, maxval = 200]"),
], ids=["p2-negative", "p2-past-uint32", "p2-past-maxval", "p5-past-maxval"])
def test_read_names_a_pixel_value_out_of_range(tmp_path, data, bad):
    path = tmp_path / "v.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(bad)):
        read_pgm(path)


@pytest.mark.parametrize("size", [b"-2 -2", b"-1 2", b"2 0"], ids=["negative", "negative-width", "zero-height"])
@pytest.mark.parametrize("magic, raster", [(b"P2", b"0 0 0 0\n"), (b"P5", b"\x00" * 4)], ids=["p2", "p5"])
def test_read_names_a_size_that_is_not_positive(tmp_path, size, magic, raster):
    path = tmp_path / "s.pgm"
    path.write_bytes(magic + b"\n" + size + b"\n255\n" + raster)
    width, height = size.decode().split()
    with pytest.raises(ValueError, match=f"invalid PGM size {width} x {height}"):
        read_pgm(path)


@pytest.mark.parametrize("data, message", [
    (b"P5\nab 4\n255\n", "width 'ab' is not an integer"),
    (b"P5\n4 4x\n255\n", "height '4x' is not an integer"),
    (b"P2\n2 1\n2.5\n0 1\n", "maxval '2.5' is not an integer"),
    (b"P2\n2 1\n255\n0 x\n", "pixel 'x' is not an integer"),
    (b"P7\n2 1\n255\n\x00\x00", "not a PGM file (magic b'P7')"),
    (b"P5\n4 4\n255\n\x00\x01", "truncated P5 pixel data"),
], ids=["width", "height", "maxval", "pixel", "magic", "short-raster"])
def test_read_errors_name_the_path_and_the_field(tmp_path, data, message):
    path = tmp_path / "m.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"PGM {path}: {message}")):
        read_pgm(path)


def test_write_rejects_bad_maxval(tmp_path):
    # a float or bool would be written into the header as 255.5, 255.0 or True,
    # which read_pgm cannot parse
    path = tmp_path / "g.pgm"
    for maxval in (70000, 0, 255.5, np.float64(255.0), True):
        with pytest.raises(ValueError, match="maxval"):
            write_pgm(path, np.zeros((2, 2)), maxval=maxval)
        assert not path.exists()


def test_roundtrip_at_a_numpy_integer_maxval(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.2]])
    path = tmp_path / "n.pgm"
    write_pgm(path, img, maxval=np.int64(255))
    assert path.read_bytes().startswith(b"P5\n2 2\n255\n")
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(np.rint(back * 255), np.rint(img * 255))


@pytest.mark.parametrize("pixels", [np.array([[0.5, np.nan], [0.0, 1.0]]), np.zeros((2, 2, 2)),
                                    np.zeros(4), np.zeros((0, 3)), np.zeros((2, 0))],
                         ids=["nan-pixel", "3-d", "1-d", "no-rows", "no-columns"])
def test_write_rejects_pixels_it_cannot_write(tmp_path, pixels):
    path = tmp_path / "w.pgm"
    with pytest.raises(ValueError, match="finite 2-D array"):
        write_pgm(path, pixels)
    assert not path.exists()
