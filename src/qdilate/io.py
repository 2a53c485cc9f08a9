"""JSON file formats for channels, instruments, and states.

Complex entries are encoded as two-element [re, im] arrays so files stay
diff-friendly and parseable without complex-literal syntax. Channel payloads
come in two representations: "kraus" (a list of weighted operators) and
"dynamical_matrix" (the dim^2 x dim^2 matrix itself). Structural problems
raise ParseError; files that parse but break a physical invariant raise
ValidationError naming the invariant. Spec files, like the CLI's reports, are
written by :func:`write_json`, which streams matrices a block of rows at a time.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .channel import DensityMatrix, DynamicalMap, map_from_kraus
from .errors import ParseError, ValidationError
from .instrument import Instrument

FORMAT_VERSION = "1"


def _float_pairs(m) -> np.ndarray:
    """The float view of a complex array with [re, im] along a new last axis."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,))


def encode_matrix(m) -> list:
    """Nested lists with each complex entry as a [re, im] pair."""
    return _float_pairs(m).tolist()


def decode_matrix(obj, where: str) -> np.ndarray:
    """Parse nested [re, im] lists back into a complex matrix.

    A well-formed matrix is converted by one ``np.array`` call, which also
    reads tuples and arrays of that shape; anything else goes through the
    entry-by-entry loop, which names the bad entry.
    """
    try:
        pairs = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        pairs = None
    if (
        pairs is not None
        and pairs.dtype.kind in "biuf"
        and pairs.ndim == 3
        and pairs.shape[0]
        and pairs.shape[2] == 2
    ):
        return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    width = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{where}[{r}]: expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{r}]: row length {len(row)} differs from {width}")
        vals = []
        for c, entry in enumerate(row):
            ok = (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, numbers.Real) for x in entry)
            )
            if not ok:
                raise ParseError(f"{where}[{r}][{c}]: expected a [re, im] pair")
            try:
                vals.append(complex(entry[0], entry[1]))
            except OverflowError:
                raise ParseError(f"{where}[{r}][{c}]: entry is too large for a float") from None
        rows.append(vals)
    return np.array(rows, dtype=complex)


def write_json(obj, fh) -> None:
    """Write the text of ``json.dumps(obj, indent=2) + "\\n"`` to ``fh``.

    A 2-d ndarray is written as :func:`encode_matrix` would encode it, a
    block of rows at a time, its floats formatted by ``_floattext``, which
    gives the ``float.__repr__`` text json uses. Every other value is
    formatted by ``json.dumps`` itself.
    """
    _write(obj, fh.write, "\n")
    fh.write("\n")


def _write(obj, write, nl: str) -> None:
    # nl is a newline followed by the indent of the line obj starts on.
    if isinstance(obj, np.ndarray):
        _write_matrix(obj, write, nl)
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        head = "[" + inner
        for value in obj:
            write(head)
            _write(value, write, inner)
            head = "," + inner
        write(nl + "]")
    elif isinstance(obj, dict) and obj:
        inner = nl + "  "
        head = "{" + inner
        for key, value in obj.items():
            # json's own key coercion, cut out of a one-entry object.
            write(head + json.dumps({key: 0})[1:-4] + ": ")
            _write(value, write, inner)
            head = "," + inner
        write(nl + "}")
    else:
        write(json.dumps(obj))


def _write_matrix(m: np.ndarray, write, nl: str) -> None:
    """Write ``m`` as json.dumps(indent=2) writes its [re, im] lists, in blocks of rows."""
    if m.ndim != 2:
        raise TypeError(f"only 2-d arrays can be written as matrices, got shape {m.shape}")
    if not m.size:
        _write(encode_matrix(m), write, nl)
        return
    # Imported on first use: a process that never writes a matrix does not
    # pay for compiling and loading the kernel.
    from ._floattext import rows_text

    parts = _float_pairs(m).reshape(m.shape[0], -1)
    row_nl, pair_nl, part_nl = nl + "  ", nl + "    ", nl + "      "
    # The text before each float of a row: the close of the last row and the
    # open of this one, the close of a pair and the open of the next, or the
    # comma between re and im.
    closes = pair_nl + "]" + row_nl + "],"
    new_row = closes + row_nl + "[" + pair_nl + "[" + part_nl
    new_pair = pair_nl + "]," + pair_nl + "[" + part_nl
    seps = ([new_row] + ["," + part_nl, new_pair] * m.shape[1])[: parts.shape[1]]
    head = "["  # the text before the first row, in place of `closes`
    for text in rows_text(parts, seps):
        write(head + text[len(closes) :] if head else text)
        head = ""
    write(pair_nl + "]" + row_nl + "]" + nl + "]")


def _parse_document(blob: bytes, path) -> dict:
    """The spec document in ``blob``, the bytes of the file at ``path``."""
    try:
        # The text open(path, encoding="utf-8") reads: strict UTF-8, with
        # "\r\n" and "\r" read as "\n", so parse errors name the same places.
        text = blob.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integer
        # literals past the int-digit limit; RecursionError, deep nesting.
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if str(version) != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    return doc


def _read_document(path) -> dict:
    with open(path, "rb") as fh:
        return _parse_document(fh.read(), path)


def _read_dim(doc: dict, path) -> int:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{path}: 'dim' must be a positive integer")
    return dim


def _decode_channel_payload(obj: dict, dim: int, where: str) -> DynamicalMap:
    representation = obj.get("representation")
    data = obj.get("data")
    if representation == "kraus":
        if not isinstance(data, list) or not data:
            raise ParseError(f"{where}: kraus data must be a non-empty list")
        terms = []
        for k, item in enumerate(data):
            if not isinstance(item, dict) or "matrix" not in item:
                raise ParseError(f"{where}: kraus term {k} must be an object with 'matrix'")
            weight = item.get("weight", 1.0)
            if not isinstance(weight, numbers.Real):
                raise ParseError(f"{where}: kraus term {k} weight must be real")
            try:
                weight = float(weight)
            except OverflowError:
                raise ParseError(
                    f"{where}: kraus term {k} weight is too large for a float"
                ) from None
            op = decode_matrix(item["matrix"], f"{where} kraus term {k}")
            if op.shape != (dim, dim):
                raise ValidationError(
                    f"{where}: kraus operator {k} has shape {op.shape}, "
                    f"expected ({dim}, {dim})"
                )
            terms.append((weight, op))
        return map_from_kraus(terms, dim)
    if representation == "dynamical_matrix":
        bmat = decode_matrix(data, f"{where} dynamical matrix")
        if bmat.shape != (dim * dim, dim * dim):
            raise ValidationError(
                f"{where}: dynamical matrix has shape {bmat.shape}, "
                f"expected ({dim * dim}, {dim * dim})"
            )
        return DynamicalMap(bmat)
    raise ParseError(
        f"{where}: representation must be 'kraus' or 'dynamical_matrix', "
        f"got {representation!r}"
    )


def load_channel(path) -> DynamicalMap:
    """Read a channel spec file into a dynamical map."""
    return _channel_from_document(_read_document(path), path)


def _channel_from_document(doc: dict, path) -> DynamicalMap:
    dim = _read_dim(doc, path)
    return _decode_channel_payload(doc, dim, str(path))


def save_channel_spec(path, dmap: DynamicalMap, metadata: dict = None) -> None:
    """Write a channel as a dynamical-matrix spec file."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": dmap.dim,
        "representation": "dynamical_matrix",
        "data": dmap.bmat,
    }
    if metadata:
        doc["metadata"] = metadata
    _write_document(path, doc)


def load_instrument(path) -> Instrument:
    """Read an instrument spec file into an Instrument."""
    return _instrument_from_document(_read_document(path), path)


def _instrument_from_document(doc: dict, path) -> Instrument:
    dim = _read_dim(doc, path)
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ParseError(f"{path}: 'outcomes' must be a non-empty list")
    maps = []
    for k, item in enumerate(outcomes):
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise ParseError(f"{path}: outcome {k} must be an object with a 'label'")
        label = item["label"]
        maps.append((label, _decode_channel_payload(item, dim, f"{path} outcome {label!r}")))
    padded_index = doc.get("padded_index")
    if padded_index is not None and (
        not isinstance(padded_index, int) or isinstance(padded_index, bool)
    ):
        raise ParseError(f"{path}: 'padded_index' must be an integer when present")
    return Instrument(dim=dim, maps=tuple(maps), padded_index=padded_index)


def save_instrument_spec(path, inst: Instrument) -> None:
    """Write an instrument with every outcome in dynamical-matrix form."""
    outcomes = []
    for label, dmap in inst.maps:
        outcomes.append(
            {
                "label": label,
                "representation": "dynamical_matrix",
                "data": dmap.bmat,
            }
        )
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": inst.dim,
        "outcomes": outcomes,
    }
    if inst.padded_index is not None:
        doc["padded_index"] = inst.padded_index
    _write_document(path, doc)


def load_state(path) -> DensityMatrix:
    """Read a state spec file into a DensityMatrix."""
    return _state_from_document(_read_document(path), path)


def _state_from_document(doc: dict, path) -> DensityMatrix:
    dim = _read_dim(doc, path)
    mat = decode_matrix(doc.get("matrix"), f"{path} state matrix")
    if mat.shape != (dim, dim):
        raise ValidationError(
            f"{path}: state matrix has shape {mat.shape}, expected ({dim}, {dim})"
        )
    return DensityMatrix(mat)


def save_state_spec(path, rho: DensityMatrix) -> None:
    """Write a density matrix as a state spec file."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": rho.dim,
        "matrix": rho.mat,
    }
    _write_document(path, doc)


def _write_document(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh)
