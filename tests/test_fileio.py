import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    assert path.stat().st_size == 20 + 3 * 25 * 8
    back = read_sinogram(path)
    assert np.array_equal(back.geometry.angles, geo.angles)
    assert (back.geometry.n_det, back.geometry.det_extent) == (24, 20.0)
    assert np.array_equal(back.values, sino.values)


def test_sinogram_rejects_garbage(tmp_path):
    path = tmp_path / "junk.sino"
    path.write_bytes(b"XXXX")
    with pytest.raises(ValueError):
        read_sinogram(path)


@pytest.mark.parametrize("extent", [20.0, 16.0 * math.sqrt(2.0), 0.1 + 0.2,
                                    np.float64(8.0 * math.sqrt(2.0))],
                         ids=["whole", "irrational", "inexact_sum", "numpy_scalar"])
def test_sinogram_keeps_its_detector_extent_exactly(tmp_path, extent):
    # the extent is part of the file's ray transform, not a value to supply on read
    write_sinogram(Sinogram.zeros(Geometry.uniform(3, 8, extent)), tmp_path / "data.sino")
    back = read_sinogram(tmp_path / "data.sino").geometry.det_extent
    assert struct.pack("<d", back) == struct.pack("<d", extent)


@pytest.mark.parametrize("reader, header", [
    (read_image_raw, struct.pack("<4sIIf", b"MIMG", 2, 2, 16.0) + b"\x00" * 32),
    (read_sinogram, struct.pack("<4sII", b"SINO", 1, 2) + b"\x00" * 24),
], ids=["MIMG", "SINO"])
def test_version_1_file_is_named_and_must_be_written_again(tmp_path, reader, header):
    path = tmp_path / "old"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a version-1 .* file, "
                                         r"which no longer reads; write the file again$"):
        reader(path)


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
    # each gate's geometry lives only in its .sino file
    assert "det_extent" not in text


def test_gated_bundle_manifest_holds_plain_numbers(tmp_path):
    # a numpy scalar extent reads back as the number it holds
    geo = Geometry.uniform(3, 8, np.float64(22.6))
    write_gated_bundle(tmp_path, [(1, Sinogram.zeros(geo))])
    assert read_gated_bundle(tmp_path)[0][1].geometry.det_extent == 22.6


def test_gated_manifest_with_angles_line_still_reads(tmp_path):
    # manifests once repeated each gate's angles, which live in its .sino file
    geo = Geometry(np.array([0.2, 1.3]), 8, 12.0)
    write_gated_bundle(tmp_path, [(2, Sinogram(geo, np.ones((2, 8))))])
    manifest = tmp_path / "gates.toml"
    assert "angles" not in manifest.read_text()
    manifest.write_text(manifest.read_text() + "angles = 0.2,1.3\n")
    [(t_index, sino)] = read_gated_bundle(tmp_path)
    assert t_index == 2
    assert np.array_equal(sino.geometry.angles, geo.angles)


def _bundle(directory, t_indices):
    geo = Geometry(np.array([0.2, 1.3]), 8, 12.0)
    write_gated_bundle(directory, [(k, Sinogram(geo, np.full((2, 8), float(k))))
                                   for k in t_indices])
    return directory / "gates.toml"


def test_gated_manifest_with_a_section_past_n_gates_is_rejected(tmp_path):
    # with n_gates = 2, a [gate_3] would go unread
    manifest = _bundle(tmp_path, (1, 2, 3))
    manifest.write_text(manifest.read_text().replace("n_gates = 3", "n_gates = 2"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: section \[gate_3\] "
                                         r"is not one of the n_gates = 2 gate sections"):
        read_gated_bundle(tmp_path)


@pytest.mark.parametrize("extra, key", [
    ("[gate_2]\nt_index = 5\n", "t_index"),  # 5 would replace gate 2's index
    ("file = gate_1.sino\n", "file"),  # the same section, with no second header
], ids=["second_header", "same_section"])
def test_gated_manifest_with_a_repeated_key_is_rejected(tmp_path, extra, key):
    manifest = _bundle(tmp_path, (1, 2))
    manifest.write_text(manifest.read_text() + extra)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: section \[gate_2\] "
                                         rf"sets key '{key}' more than once"):
        read_gated_bundle(tmp_path)


def _bundle_without(tmp_path, line_start):
    """A two-gate bundle whose manifest lacks every line starting with line_start."""
    manifest = _bundle(tmp_path / "bundle", (1, 3))
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(x for x in lines if not x.startswith(line_start)) + "\n")
    return manifest.parent


def test_gated_manifest_missing_n_gates(tmp_path):
    out = _bundle_without(tmp_path, "n_gates")
    with pytest.raises(ValueError, match=r"gates\.toml: top level lacks key 'n_gates'"):
        read_gated_bundle(out)


def test_gated_manifest_missing_gate_section(tmp_path):
    out = _bundle_without(tmp_path, "[gate_2]")
    # the keys of gate 2 now belong to [gate_1], and [gate_2] is gone
    with pytest.raises(ValueError, match=r"gates\.toml: missing section \[gate_2\]"):
        read_gated_bundle(out)


@pytest.mark.parametrize("key", ["t_index", "file"])
def test_gated_manifest_missing_gate_key(tmp_path, key):
    out = _bundle_without(tmp_path, key)
    with pytest.raises(ValueError, match=rf"gates\.toml: section \[gate_1\] lacks key '{key}'"):
        read_gated_bundle(out)


@pytest.mark.parametrize("section, key, bad", [
    ("top level", "n_gates", "two"),
    ("section [gate_1]", "t_index", "x"),
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


def _named(path):
    """pytest.raises for a ValueError whose message starts with the path."""
    return pytest.raises(ValueError, match="^" + re.escape(str(path)))


def _image_file(nx, ny, half_width, payload: bytes) -> bytes:
    return struct.pack("<4sIId", b"MIM2", nx, ny, half_width) + payload


def _sino_file(angles, n_det, det_extent, payload: bytes) -> bytes:
    angles = np.asarray(angles, dtype="<f8")
    header = struct.pack("<4sIId", b"SIN2", angles.size, n_det, det_extent)
    return header + angles.tobytes() + payload


def test_image_raw_payload_of_partial_samples_is_named(tmp_path):
    path = tmp_path / "odd.mimg"
    path.write_bytes(_image_file(2, 2, 16.0, b"\x00" * 33))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected 32 bytes .* found 33"):
        read_image_raw(path)


def test_sinogram_payload_of_partial_samples_is_named(tmp_path):
    path = tmp_path / "odd.sino"
    path.write_bytes(struct.pack("<4sIId", b"SIN2", 3, 2, 20.0) + b"\x00" * 13)
    # three angles and 3 x 2 values
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected 72 bytes .* found 13"):
        read_sinogram(path)


@pytest.mark.parametrize("nx, ny, half_width, values", [
    (2, 2, 16.0, [0.0, math.nan, 1.0, 2.0]),
    (1, 1, 16.0, [0.0]),
    (2, 3, 16.0, [0.0] * 6),
    (2, 2, math.nan, [0.0] * 4),
])
def test_image_raw_bad_contents_are_named(tmp_path, nx, ny, half_width, values):
    path = tmp_path / "bad.mimg"
    path.write_bytes(_image_file(nx, ny, half_width, np.array(values, dtype="<f8").tobytes()))
    with _named(path):
        read_image_raw(path)


@pytest.mark.parametrize("angles, values, det_extent", [
    ([0.5, math.pi], [0.0] * 4, 20.0),
    ([0.5, 1.0], [0.0, math.nan, 0.0, 0.0], 20.0),
    ([], [], 20.0),
    ([0.5], [0.0, 0.0], math.nan),
])
def test_sinogram_bad_contents_are_named(tmp_path, angles, values, det_extent):
    path = tmp_path / "bad.sino"
    path.write_bytes(_sino_file(angles, 2, det_extent, np.array(values, dtype="<f8").tobytes()))
    with _named(path):
        read_sinogram(path)


@pytest.mark.parametrize("n_gates", [0, -1])
def test_gated_manifest_needs_a_gate(tmp_path, n_gates):
    (tmp_path / "gates.toml").write_text(f"n_gates = {n_gates}\n")
    with pytest.raises(ValueError, match=r"gates\.toml: top level key 'n_gates' must be at least 1"):
        read_gated_bundle(tmp_path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_image_raw_roundtrip_and_prefixes(data):
    n = data.draw(st.integers(2, 5))
    spec = GridSpec(data.draw(st.floats(1e-6, 1e6)), n, n)
    img = Image(spec, data.draw(arrays(np.float64, spec.shape, elements=finite)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img.mimg"
        write_image_raw(img, path)
        back = read_image_raw(path)
        assert back.spec == spec
        assert back.values.tobytes() == img.values.tobytes()
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with _named(path):
                read_image_raw(path)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_sinogram_roundtrip_and_prefixes(data):
    angles = data.draw(st.lists(st.floats(0.0, math.pi, exclude_max=True), min_size=1, max_size=4))
    geo = Geometry(np.array(angles), data.draw(st.integers(1, 4)), 20.0)
    sino = Sinogram(geo, data.draw(arrays(np.float64, (geo.n_angles, geo.n_det), elements=finite)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.sino"
        write_sinogram(sino, path)
        back = read_sinogram(path)
        assert (back.geometry.n_det, back.geometry.det_extent) == (geo.n_det, geo.det_extent)
        assert back.geometry.angles.tobytes() == geo.angles.tobytes()
        assert back.values.tobytes() == sino.values.tobytes()
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with _named(path):
                read_sinogram(path)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_gated_manifest_without_a_required_key_is_named(data):
    geo = Geometry(np.array([0.2, 1.3]), 4, 12.0)
    gates = [(k, Sinogram(geo, np.full((2, 4), float(k))))
             for k in range(1, data.draw(st.integers(1, 3)) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        write_gated_bundle(tmp, gates)
        manifest = Path(tmp) / "gates.toml"
        lines = manifest.read_text().splitlines()
        required = [i for i, line in enumerate(lines)
                    if line.split(" = ")[0] in ("n_gates", "t_index", "file")]
        drop = data.draw(st.sampled_from(required))
        key = lines.pop(drop).split(" = ")[0]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: .*'{key}'"):
            read_gated_bundle(tmp)
