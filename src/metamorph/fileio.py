"""On-disk formats: raw images, PGM previews, sinograms, gated bundles.

Raw image files round-trip exactly: a 20-byte header (magic ``MIM2``, u32
nx, u32 ny, f64 half-width, little endian) followed by the float64 node
values in x-major order.  Version-1 files (magic ``MIMG``, f32 half-width,
16 bytes) still read, with the half-width they stored.  Sinograms use magic
``SINO``, u32 n_angles, u32 n_det, the angle list and the row-major values,
all little-endian float64; the detector extent is not part of the format and
must be supplied on read.  A gated bundle's ``gates.toml`` manifest gives each
gate's time index, sinogram file and detector extent in its own section
``[gate_k]``, k = 1..n_gates, with no other section and no key set twice; the
gate's angles live only in that file.  PGM output is 16-bit, min-max normalised, for viewing
only.  All writers go through a temp-file-plus-rename so partially written
files never appear.
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
# header layout per raw-image magic; the first is the version-1 format
_IMG_HEADERS = {b"MIMG": "<4sIIf", _IMG_MAGIC: "<4sIId"}
_SINO_MAGIC = b"SINO"


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


def _samples(path, blob: bytes, offset: int, count: int) -> np.ndarray:
    """The count little-endian float64 samples that fill blob after offset."""
    size = len(blob) - offset
    if size != 8 * count:
        raise ValueError(f"{path}: expected {8 * count} bytes of samples after the "
                         f"{offset}-byte header, found {size}")
    return np.frombuffer(blob, dtype="<f8", offset=offset).copy()


def write_image_raw(img: Image, path):
    header = struct.pack(_IMG_HEADERS[_IMG_MAGIC], _IMG_MAGIC, img.spec.nx, img.spec.ny,
                         float(img.spec.half_width))
    atomic_write_bytes(path, header + img.values.astype("<f8").tobytes())


def read_image_raw(path) -> Image:
    blob = Path(path).read_bytes()
    layout = _IMG_HEADERS.get(blob[:4])
    if layout is None or len(blob) < struct.calcsize(layout):
        raise ValueError(f"{path} is not a raw image file")
    magic, nx, ny, half_width = struct.unpack_from(layout, blob)
    values = _samples(path, blob, struct.calcsize(layout), nx * ny)
    with _naming(path):
        return Image(GridSpec(float(half_width), nx, ny), values.reshape(nx, ny))


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
    header = struct.pack("<4sII", _SINO_MAGIC, geo.n_angles, geo.n_det)
    blob = header + geo.angles.astype("<f8").tobytes() + sino.values.astype("<f8").tobytes()
    atomic_write_bytes(path, blob)


def read_sinogram(path, det_extent: float) -> Sinogram:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _SINO_MAGIC:
        raise ValueError(f"{path} is not a sinogram file")
    magic, n_angles, n_det = struct.unpack("<4sII", blob[:12])
    samples = _samples(path, blob, 12, n_angles * (1 + n_det))
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
        # repr of a plain float reads back exactly; numpy scalars print as np.float64(...)
        lines.append(f"det_extent = {float(sino.geometry.det_extent)!r}")
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


def _manifest_number(manifest: dict[str, dict[str, str]], path: Path,
                     section: str, key: str, kind: type):
    raw = _manifest_value(manifest, path, section, key)
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{path}: {_where(section)} key {key!r} has bad value {raw!r}, "
                         f"expected {'an integer' if kind is int else 'a number'}") from None


def read_gated_bundle(directory) -> list[tuple[int, Sinogram]]:
    """The (t_index, sinogram) gates of a bundle; the manifest must hold
    sections gate_1..gate_n for its n_gates and no other, each key once."""
    directory = Path(directory)
    path = directory / "gates.toml"
    manifest, repeats = _parse_manifest(path)
    n_gates = _manifest_number(manifest, path, "", "n_gates", int)
    if n_gates < 1:
        raise ValueError(f"{path}: top level key 'n_gates' must be at least 1, got {n_gates}")
    sections = [f"gate_{num}" for num in range(1, n_gates + 1)]
    extra = [section for section in manifest if section and section not in sections]
    if extra:
        raise ValueError(f"{path}: section [{extra[0]}] is not one of the "
                         f"n_gates = {n_gates} gate sections")
    entries = [(_manifest_number(manifest, path, section, "t_index", int),
                _manifest_value(manifest, path, section, "file"),
                _manifest_number(manifest, path, section, "det_extent", float))
               for section in sections]
    # checked after the sections: a lost [gate_k] line moves gate k's keys
    # into the section before it, where the missing section is the news
    if repeats:
        section, key = repeats[0]
        raise ValueError(f"{path}: {_where(section)} sets key {key!r} more than once")
    return [(t_index, read_sinogram(directory / fname, det_extent))
            for t_index, fname, det_extent in entries]
