import numpy as np
import pytest

from sparsa import arrayio


class TestPgm:
    def test_binary_roundtrip(self, tmp_path, rng):
        raster = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n7 5\n255\n" + raster.tobytes())
        back = arrayio.read_pgm(path)
        assert back.shape == (5, 7)
        assert np.array_equal(back, raster / 255)

    def test_ascii_roundtrip(self, tmp_path, rng):
        raster = rng.integers(0, 256, size=(4, 3))
        path = tmp_path / "img.pgm"
        rows = "\n".join(" ".join(str(v) for v in row) for row in raster)
        path.write_text(f"P2\n3 4\n255\n{rows}\n")
        back = arrayio.read_pgm(path)
        assert back.shape == (4, 3)
        assert np.array_equal(back, raster / 255)

    def test_reads_comments_and_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment line\n2 2\n100\n0 50\n100 25\n")
        img = arrayio.read_pgm(path)
        assert np.allclose(img, [[0.0, 0.5], [1.0, 0.25]])

    def test_comment_between_header_tokens(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2 # magic\n2 # width\n1\n# maxval next\n255\n0 255\n")
        assert np.array_equal(arrayio.read_pgm(path), [[0.0, 1.0]])

    def test_binary_maxval_below_255_scales(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
        assert np.array_equal(arrayio.read_pgm(path), [[0.0, 5 / 15, 1.0]])

    def test_binary_raster_may_start_with_whitespace_bytes(self, tmp_path):
        # exactly one whitespace byte ends the header; raster bytes 10, 32
        # and 9 are samples, not separators
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([10, 32, 9, 200]))
        assert np.array_equal(arrayio.read_pgm(path), np.array([[10, 32], [9, 200]]) / 255)

    @pytest.mark.parametrize(
        "data",
        [b"P2\n2 2\n255\n0 1 2\n", b"P5\n2 2\n255\n" + bytes(3), b"P5\n4 4\n", b"P2 3"],
        ids=["p2", "p5", "header-before-maxval", "header-after-width"],
    )
    def test_truncated_raster_rejected(self, tmp_path, data):
        path = tmp_path / "short.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated"):
            arrayio.read_pgm(path)

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_unsupported_maxval_rejected(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        path.write_bytes(f"P2\n1 1\n{maxval}\n0\n".encode())
        with pytest.raises(ValueError, match=f"unsupported PGM maxval {maxval}"):
            arrayio.read_pgm(path)

    @pytest.mark.parametrize(
        "header, raster",
        [
            (b"P2\n2 1\n15\n", b"0 200\n"),
            (b"P5\n2 1\n15\n", bytes([0, 200])),
            (b"P2\n2 1\n255\n", b"0 -1\n"),
            (b"P2\n2 1\n255\n", b"0 256\n"),
            (b"P2\n2 1\n255\n", b"0 99999999999999999999\n"),
        ],
        ids=["p2-above-maxval", "p5-above-maxval", "p2-negative", "p2-above-255", "p2-huge"],
    )
    def test_sample_outside_maxval_rejected(self, tmp_path, header, raster):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + raster)
        with pytest.raises(ValueError, match="samples"):
            arrayio.read_pgm(path)

    @pytest.mark.parametrize(
        "data, needle",
        [
            (b"P2\n0 0\n255\n", "PGM width must be positive"),
            (b"P2\n-2 -1\n255\n0 1\n", "PGM width must be positive"),
            (b"P5\n2 0\n255\n", "PGM height must be positive"),
            (b"P2\n2 x\n255\n", "PGM height must be an integer"),
            (b"P2\n2.5 2\n255\n0 1 2 3 4\n", "PGM width must be an integer"),
            (b"P2\n1 1\n2x\n0\n", "PGM maxval must be an integer"),
        ],
        ids=["zero-size", "negative-size", "p5-zero-height", "non-integer-height",
             "fractional-width", "non-integer-maxval"],
    )
    def test_bad_header_field_rejected_by_name(self, tmp_path, data, needle):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=needle):
            arrayio.read_pgm(path)

    @pytest.mark.parametrize(
        "data",
        [b"P6\n2 2\n255\n" + bytes(12), b"\x89PNG\r\n\x1a\n" + bytes(25), b""],
        ids=["p6", "png", "empty"],
    )
    def test_bad_magic_rejected(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="not a PGM"):
            arrayio.read_pgm(path)

