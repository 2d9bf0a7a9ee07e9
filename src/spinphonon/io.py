"""Model file loading/saving and CSV result serialization.

Models travel as a single JSON document: either explicit data (energies,
modes, couplings as [re, im] pairs) or a ``model_spec`` block that is
synthesized deterministically on load. Results are written as CSV with a
header row, 17 significant digits per number, and the literal token
``inf`` for an infinite T1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import CouplingSet, Model, PhononBath, SpinSystem
from .oracle import ModelSpec, generate_model

_UNITS_TAG = "cm-1"


class ModelFileError(Exception):
    """Base class for model-file problems."""


class ModelParseError(ModelFileError):
    """The file is not valid JSON or misses required structure."""


class ShapeMismatchError(ModelFileError):
    """Array shapes in the file are inconsistent."""


class NonHermitianCouplingError(ModelFileError):
    """A coupling matrix deviates from Hermiticity beyond tolerance."""


class NonPositiveFrequencyError(ModelFileError):
    """A mode frequency is zero or negative."""


def format_number(x: float) -> str:
    """17-significant-digit text form; infinities become 'inf'."""
    return f"{x:.17g}"


def _parse_spec_block(block: dict) -> ModelSpec:
    if not isinstance(block, dict):
        raise ModelParseError("model_spec must be an object")
    known = {
        "seed", "n_states", "n_modes", "gap", "freq_range",
        "coupling_scale", "excited_offset",
    }
    unknown = set(block) - known
    if unknown:
        raise ModelParseError(f"unknown model_spec keys: {sorted(unknown)}")
    if "seed" not in block:
        raise ModelParseError("model_spec requires a seed")
    kwargs = dict(block)
    if "freq_range" in kwargs:
        fr = kwargs["freq_range"]
        if not (isinstance(fr, (list, tuple)) and len(fr) == 2):
            raise ModelParseError("freq_range must be a [low, high] pair")
        kwargs["freq_range"] = (float(fr[0]), float(fr[1]))
    try:
        return ModelSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"invalid model_spec: {exc}") from exc


def model_from_dict(doc: dict) -> Model:
    """Build and validate a model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ModelParseError("model document must be a JSON object")
    if doc.get("units") != _UNITS_TAG:
        raise ModelParseError(f'units tag must be "{_UNITS_TAG}"')

    has_data = any(k in doc for k in ("energies", "modes", "couplings"))
    has_spec = "model_spec" in doc
    if has_data == has_spec:
        raise ModelParseError(
            "exactly one of explicit data (energies/modes/couplings) or a "
            "model_spec block must be present"
        )
    if has_spec:
        return generate_model(_parse_spec_block(doc["model_spec"]))

    for key in ("energies", "modes", "couplings"):
        if key not in doc:
            raise ModelParseError(f"missing required key {key!r}")

    try:
        energies = np.array(doc["energies"], dtype=float)
        modes = np.array(doc["modes"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelParseError(f"energies/modes must be numeric lists: {exc}") from exc
    if energies.ndim != 1 or energies.size < 2:
        raise ShapeMismatchError("energies must be a 1-d list with >= 2 entries")
    if modes.ndim != 1 or modes.size < 1:
        raise ShapeMismatchError("modes must be a non-empty 1-d list")
    if np.any(modes <= 0.0):
        bad = int(np.argmax(modes <= 0.0))
        raise NonPositiveFrequencyError(
            f"non-positive frequency {modes[bad]:g} at mode index {bad}"
        )

    raw = doc["couplings"]
    n_states = energies.size
    n_modes = modes.size
    try:
        coup = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"couplings must be rectangular: {exc}") from exc
    expected = (n_modes, n_states, n_states, 2)
    if coup.shape != expected:
        raise ShapeMismatchError(
            f"couplings must have shape {expected} "
            f"(n_modes, n_states, n_states, [re, im]); got {coup.shape}"
        )
    # checked in file order, so an error names the file's mode index; with
    # the shape and finiteness checked, Hermiticity is all that can fail here
    bad = np.flatnonzero(~np.isfinite(coup).all(axis=(1, 2, 3)))
    if bad.size:
        raise ModelParseError(f"coupling matrix for mode index {bad[0]} is not finite")
    try:
        matrices = CouplingSet(coup[..., 0] + 1j * coup[..., 1]).matrices
    except ValueError as exc:
        raise NonHermitianCouplingError(str(exc)) from exc

    # canonicalize: the bath must be sorted; permute couplings alongside
    order = np.argsort(modes, kind="stable")
    modes = modes[order]
    matrices = matrices[order]

    try:
        return Model(SpinSystem(energies), PhononBath(modes), CouplingSet(matrices))
    except ValueError as exc:
        raise ModelParseError(str(exc)) from exc


def load_system(path: str | Path) -> Model:
    """Load and validate a model file; see module docstring for the format."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def model_to_dict(model: Model) -> dict:
    """Explicit-data JSON document for a model (couplings as [re, im])."""
    system, bath, couplings = model
    mats = couplings.matrices
    return {
        "units": _UNITS_TAG,
        "energies": [float(e) for e in system.energies],
        "modes": [float(w) for w in bath.frequencies],
        "couplings": [
            [
                [[float(x.real), float(x.imag)] for x in row]
                for row in mat
            ]
            for mat in mats
        ],
    }


def save_system(path: str | Path, model: Model) -> None:
    """Write the explicit-data JSON form of a model."""
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def render_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """Result table as text: header row, then 17-significant-digit numbers."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError("every row must match the header width")
        lines.append(",".join(format_number(float(x)) for x in row))
    return "\n".join(lines) + "\n"
