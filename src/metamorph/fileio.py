"""On-disk formats: raw images, PGM previews, sinograms, gated bundles.

Raw images and sinograms round-trip exactly.  Each starts with one 20-byte
header, magic, u32, u32, f64, little endian: an image (``MIM2``) gives nx, ny
and its half-width, then its float64 node values in x-major order; a
sinogram (``SIN2``) gives n_angles, n_det and its detector extent, then its
float64 angles and row-major values.  Version-1 files (``MIMG``, ``SINO``)
must be written again.  A gated bundle's ``gates.toml`` manifest gives each
gate's time index and sinogram file in its own section ``[gate_k]``,
k = 1..n_gates, with no other section and no key set twice.  PGM output is
16-bit, min-max normalised, for viewing only.  All writers go through a
temp-file-plus-rename so partially written files never appear.
"""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .grid import GridSpec, Image
from .ray import Geometry, Sinogram

_IMG_MAGIC = b"MIM2"
_SINO_MAGIC = b"SIN2"
# magic, two sizes and a length: an image's nx, ny and half-width, a
# sinogram's n_angles, n_det and detector extent
_HEADER = "<4sIId"
_HEADER_SIZE = struct.calcsize(_HEADER)
_VERSION_1 = {b"MIMG": "raw image", b"SINO": "sinogram"}


def atomic_write_bytes(path, data: bytes):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _naming(path):
    """Prefix the file's path to a ValueError raised while building from it."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _read_samples(path, magic: bytes, what: str, count):
    """The header's two sizes n1, n2 and its length, and the count(n1, n2)
    float64 samples that must fill the file after it."""
    blob = Path(path).read_bytes()
    if blob[:4] in _VERSION_1:
        raise ValueError(f"{path}: a version-1 {_VERSION_1[blob[:4]]} file, which no longer "
                         f"reads; write the file again")
    if blob[:4] != magic or len(blob) < _HEADER_SIZE:
        raise ValueError(f"{path} is not a {what} file")
    _, n1, n2, length = struct.unpack_from(_HEADER, blob)
    size, expected = len(blob) - _HEADER_SIZE, 8 * count(n1, n2)
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes of samples after the "
                         f"{_HEADER_SIZE}-byte header, found {size}")
    return n1, n2, length, np.frombuffer(blob, dtype="<f8", offset=_HEADER_SIZE).copy()


def write_image_raw(img: Image, path):
    header = struct.pack(_HEADER, _IMG_MAGIC, img.spec.nx, img.spec.ny,
                         float(img.spec.half_width))
    atomic_write_bytes(path, header + img.values.astype("<f8").tobytes())


def read_image_raw(path) -> Image:
    nx, ny, half_width, values = _read_samples(path, _IMG_MAGIC, "raw image", lambda m, n: m * n)
    with _naming(path):
        return Image(GridSpec(half_width, nx, ny), values.reshape(nx, ny))


def write_pgm(values_or_img, path):
    """16-bit PGM preview, min-max normalised (lossy)."""
    values = values_or_img.values if hasattr(values_or_img, "values") else values_or_img
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    # transpose + flip so +y points up in viewers
    pixels = np.round((values.T[::-1] - lo) * scale).astype(">u2")
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n65535\n".encode()
    atomic_write_bytes(path, header + pixels.tobytes())


def write_sinogram(sino: Sinogram, path):
    geo = sino.geometry
    header = struct.pack(_HEADER, _SINO_MAGIC, geo.n_angles, geo.n_det, float(geo.det_extent))
    blob = header + geo.angles.astype("<f8").tobytes() + sino.values.astype("<f8").tobytes()
    atomic_write_bytes(path, blob)


def read_sinogram(path) -> Sinogram:
    n_angles, n_det, det_extent, samples = _read_samples(path, _SINO_MAGIC, "sinogram",
                                                         lambda m, n: m * (1 + n))
    with _naming(path):
        geo = Geometry(samples[:n_angles], n_det, det_extent)
        return Sinogram(geo, samples[n_angles:].reshape(n_angles, n_det))


def write_gated_bundle(directory, gates: list[tuple[int, Sinogram]], seed: int | None = None):
    """Write per-gate sinograms plus a plain key-value manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"n_gates = {len(gates)}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    for num, (t_index, sino) in enumerate(gates, start=1):
        fname = f"gate_{num}.sino"
        write_sinogram(sino, directory / fname)
        lines.append(f"[gate_{num}]")
        lines.append(f"t_index = {t_index}")
        lines.append(f"file = {fname}")
    atomic_write_bytes(directory / "gates.toml", ("\n".join(lines) + "\n").encode())


def _parse_manifest(path: Path) -> tuple[dict[str, dict[str, str]], list[tuple[str, str]]]:
    """The sections as {name: {key: value}}, "" the top level, and the
    (section, key) pairs set more than once, in file order."""
    sections: dict[str, dict[str, str]] = {"": {}}
    repeats = []
    name = ""
    current = sections[name]
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError(f"{path}: manifest line without '=': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            repeats.append((name, key))
        current[key] = value.strip()
    return sections, repeats


def _where(section: str) -> str:
    return f"section [{section}]" if section else "top level"


def _manifest_value(manifest: dict[str, dict[str, str]], path: Path,
                    section: str, key: str) -> str:
    if section not in manifest:
        raise ValueError(f"{path}: missing section [{section}]")
    if key not in manifest[section]:
        raise ValueError(f"{path}: {_where(section)} lacks key {key!r}")
    return manifest[section][key]


def _manifest_int(manifest: dict[str, dict[str, str]], path: Path, section: str, key: str):
    raw = _manifest_value(manifest, path, section, key)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{path}: {_where(section)} key {key!r} has bad value {raw!r}, "
                         "expected an integer") from None


def read_gated_bundle(directory) -> list[tuple[int, Sinogram]]:
    """The (t_index, sinogram) gates of a bundle; the manifest must hold
    sections gate_1..gate_n for its n_gates and no other, each key once."""
    directory = Path(directory)
    path = directory / "gates.toml"
    manifest, repeats = _parse_manifest(path)
    n_gates = _manifest_int(manifest, path, "", "n_gates")
    if n_gates < 1:
        raise ValueError(f"{path}: top level key 'n_gates' must be at least 1, got {n_gates}")
    sections = [f"gate_{num}" for num in range(1, n_gates + 1)]
    extra = [section for section in manifest if section and section not in sections]
    if extra:
        raise ValueError(f"{path}: section [{extra[0]}] is not one of the "
                         f"n_gates = {n_gates} gate sections")
    entries = [(_manifest_int(manifest, path, section, "t_index"),
                _manifest_value(manifest, path, section, "file"))
               for section in sections]
    # checked after the sections: a lost [gate_k] line moves gate k's keys
    # into the section before it, where the missing section is the news
    if repeats:
        section, key = repeats[0]
        raise ValueError(f"{path}: {_where(section)} sets key {key!r} more than once")
    return [(t_index, read_sinogram(directory / fname)) for t_index, fname in entries]
