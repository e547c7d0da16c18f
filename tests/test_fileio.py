import math
import re
import struct

import numpy as np
import pytest

from metamorph.fileio import (
    read_gated_bundle,
    read_image_raw,
    read_sinogram,
    write_gated_bundle,
    write_image_raw,
    write_pgm,
    write_sinogram,
)
from metamorph.grid import GridSpec, Image
from metamorph.ray import Geometry, Sinogram


def test_image_raw_roundtrip_exact(tmp_path):
    spec = GridSpec(16.0, 32, 32)
    rng = np.random.default_rng(0)
    img = Image(spec, rng.normal(size=spec.shape))
    path = tmp_path / "img.mimg"
    write_image_raw(img, path)
    assert path.stat().st_size == 20 + 32 * 32 * 8
    back = read_image_raw(path)
    assert back.spec == spec
    assert np.array_equal(back.values, img.values)


def test_image_raw_keeps_half_width_exactly(tmp_path):
    spec = GridSpec(16.1, 8, 8)
    write_image_raw(Image.zeros(spec), tmp_path / "img.mimg")
    assert read_image_raw(tmp_path / "img.mimg").spec == spec


def test_image_raw_reads_version_1(tmp_path):
    values = np.arange(64, dtype="<f8").reshape(8, 8)
    path = tmp_path / "v1.mimg"
    path.write_bytes(struct.pack("<4sIIf", b"MIMG", 8, 8, 16.0) + values.tobytes())
    img = read_image_raw(path)
    assert img.spec == GridSpec(16.0, 8, 8)
    assert np.array_equal(img.values, values)


def test_image_raw_rejects_garbage(tmp_path):
    path = tmp_path / "junk.mimg"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        read_image_raw(path)
    path.write_bytes(b"MIMG" + b"\x00" * 8)
    with pytest.raises(Exception):
        read_image_raw(path)


def test_pgm_header_and_range(tmp_path):
    spec = GridSpec(16.0, 16, 16)
    img = Image.from_function(spec, lambda x, y: x)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n16 16\n65535\n")
    pixels = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels.min() == 0 and pixels.max() == 65535


def test_pgm_constant_image(tmp_path):
    spec = GridSpec(16.0, 16, 16)
    path = tmp_path / "flat.pgm"
    write_pgm(Image.full(spec, 3.0), path)
    pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(pixels == 0)


def test_sinogram_roundtrip(tmp_path):
    geo = Geometry(np.array([0.1, 0.7, 2.2]), 24, 20.0)
    rng = np.random.default_rng(1)
    sino = Sinogram(geo, rng.normal(size=(3, 24)))
    path = tmp_path / "data.sino"
    write_sinogram(sino, path)
    back = read_sinogram(path, det_extent=20.0)
    assert np.array_equal(back.geometry.angles, geo.angles)
    assert back.geometry.n_det == 24
    assert np.array_equal(back.values, sino.values)


def test_sinogram_rejects_garbage(tmp_path):
    path = tmp_path / "junk.sino"
    path.write_bytes(b"XXXX")
    with pytest.raises(ValueError):
        read_sinogram(path, det_extent=20.0)


def test_gated_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    gates = []
    for k, n_angles in ((2, 4), (5, 6)):
        geo = Geometry(np.sort(rng.uniform(0, np.pi, n_angles)), 16, 22.0)
        gates.append((k, Sinogram(geo, rng.normal(size=(n_angles, 16)))))
    out = tmp_path / "bundle"
    write_gated_bundle(out, gates, seed=99)
    assert (out / "gates.toml").exists()
    assert (out / "gate_1.sino").exists()
    back = read_gated_bundle(out)
    assert [k for k, _ in back] == [2, 5]
    for (k0, s0), (k1, s1) in zip(gates, back):
        assert np.array_equal(s0.values, s1.values)
        assert np.array_equal(s0.geometry.angles, s1.geometry.angles)
        assert s1.geometry.det_extent == 22.0
    text = (out / "gates.toml").read_text()
    assert "seed = 99" in text


def _bundle_without(tmp_path, line_start):
    """A two-gate bundle whose manifest lacks every line starting with line_start."""
    geo = Geometry(np.array([0.2, 1.3]), 8, 12.0)
    gates = [(k, Sinogram(geo, np.full((2, 8), float(k)))) for k in (1, 3)]
    out = tmp_path / "bundle"
    write_gated_bundle(out, gates)
    manifest = out / "gates.toml"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(x for x in lines if not x.startswith(line_start)) + "\n")
    return out


def test_gated_manifest_missing_n_gates(tmp_path):
    out = _bundle_without(tmp_path, "n_gates")
    with pytest.raises(ValueError, match=r"gates\.toml: top level lacks key 'n_gates'"):
        read_gated_bundle(out)


def test_gated_manifest_missing_gate_section(tmp_path):
    out = _bundle_without(tmp_path, "[gate_2]")
    # the keys of gate 2 now belong to [gate_1], and [gate_2] is gone
    with pytest.raises(ValueError, match=r"gates\.toml: missing section \[gate_2\]"):
        read_gated_bundle(out)


@pytest.mark.parametrize("key", ["t_index", "file", "det_extent"])
def test_gated_manifest_missing_gate_key(tmp_path, key):
    out = _bundle_without(tmp_path, key)
    with pytest.raises(ValueError, match=rf"gates\.toml: section \[gate_1\] lacks key '{key}'"):
        read_gated_bundle(out)


@pytest.mark.parametrize("section, key, bad", [
    ("top level", "n_gates", "two"),
    ("section [gate_1]", "t_index", "x"),
    ("section [gate_1]", "det_extent", "wide"),
])
def test_gated_manifest_bad_value(tmp_path, section, key, bad):
    out = _bundle_without(tmp_path, key)
    manifest = out / "gates.toml"
    lines = manifest.read_text().splitlines()
    at = 0 if key == "n_gates" else lines.index("[gate_1]") + 1
    lines.insert(at, f"{key} = {bad}")
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"gates\.toml: {re.escape(section)} key '{key}' "
                                         rf"has bad value '{bad}'"):
        read_gated_bundle(out)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    spec = GridSpec(16.0, 8, 8)
    write_image_raw(Image.zeros(spec), tmp_path / "a.mimg")
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
