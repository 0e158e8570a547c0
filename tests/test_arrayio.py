import numpy as np
import pytest

from sparsa import arrayio


class TestPgm:
    def test_binary_roundtrip(self, tmp_path, rng):
        img = rng.random((5, 7))
        path = tmp_path / "img.pgm"
        arrayio.write_pgm(path, img, binary=True)
        back = arrayio.read_pgm(path)
        assert back.shape == (5, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_ascii_roundtrip(self, tmp_path, rng):
        img = rng.random((4, 3))
        path = tmp_path / "img.pgm"
        arrayio.write_pgm(path, img, binary=False)
        back = arrayio.read_pgm(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_reads_comments_and_maxval(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment line\n2 2\n100\n0 50\n100 25\n")
        img = arrayio.read_pgm(path)
        assert np.allclose(img, [[0.0, 0.5], [1.0, 0.25]])

    def test_values_clipped_on_write(self, tmp_path):
        path = tmp_path / "clip.pgm"
        arrayio.write_pgm(path, np.array([[-0.5, 1.5]]))
        assert np.allclose(arrayio.read_pgm(path), [[0.0, 1.0]])

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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            arrayio.read_pgm(path)

