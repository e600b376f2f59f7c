"""Observed cohort data: pair-state counts at two or more times.

Datasets are read here, from files or from the bundled Mwanza cohorts, in
two formats: a JSON document with a schema version, the model kind and a
list of {time, counts} records, or a delimited table (comma or tab) with a
``time,SS,SI,II`` or ``time,SS,IS,SI,II`` header.  They are written by
:func:`pairinfer.io.write_dataset`.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import json
import math
from importlib import resources
from pathlib import Path

from .errors import DomainError, ParseError
from .model import (_FLOAT_MAX, MODELS, GenderPairCounts, PairCounts, _ReadOnly,
                    model_of, model_spec)

# Observations are conceptually integer counts; real-valued entries are
# accepted so model-generated expectations can be used as synthetic data.
_SUM_RTOL = 1e-6


def require_two_times(times):
    """A DomainError unless there are at least two observation times."""
    if len(times) < 2:
        raise DomainError("at least two observation times required")


class Dataset(_ReadOnly):
    """Observation times with aligned pair counts; the first time is t = 0.

    All observations must sum to the same constant pair total N, and at
    least two observation times are required.  Two datasets are equal when
    their times and observations are.
    """

    # every likelihood evaluation reads kind, n (the pair total N) and
    # _elapsed, so they are computed once
    __slots__ = ("times", "observations", "kind", "n", "_elapsed")

    def __init__(self, times, observations):
        try:
            times = tuple(float(t) for t in times)
        except OverflowError:  # an int past the float range
            raise DomainError("observation times must be finite") from None
        observations = tuple(observations)
        if len(times) != len(observations):
            raise DomainError("times and observations must have equal length")
        require_two_times(times)
        if not all(math.isfinite(t) for t in times):
            raise DomainError(f"observation times must be finite, got {times}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise DomainError(
                    f"observation times must strictly increase, got {a} then {b}")
        if len({type(obs) for obs in observations}) != 1:
            raise DomainError("observations must be all PairCounts or all "
                              "GenderPairCounts")
        spec = model_of(observations[0])
        n0 = observations[0].total
        if n0 <= 0:
            raise DomainError("pair total N must be positive")
        for t, obs in zip(times, observations):
            total = obs.total
            # compared before any arithmetic: an int total may pass float range
            if not total <= _FLOAT_MAX:
                raise DomainError(f"counts at time {t:g} sum past the largest "
                                  f"float, {_FLOAT_MAX:g}")
            if abs(total - n0) > _SUM_RTOL * n0:
                raise DomainError(
                    f"counts at time {t:g} sum to {total:g}, expected N={n0:g}")
        t0 = times[0]
        super().__init__(times=times, observations=observations,
                         kind=spec.kind, n=n0,
                         _elapsed=tuple(t - t0 for t in times))

    def __eq__(self, other):
        if type(other) is not Dataset:
            return NotImplemented
        return (self.times, self.observations) == (other.times, other.observations)

    def __hash__(self):
        return hash((self.times, self.observations))

    @property
    def initial(self):
        """The first observation, used as the deterministic initial state."""
        return self.observations[0]

    def elapsed(self):
        """Observation times measured from the first one."""
        return self._elapsed


def nongender_dataset(times, counts) -> Dataset:
    """Dataset from (ss, si, ii) tuples aligned with ``times``."""
    return Dataset(tuple(times), tuple(PairCounts(*c) for c in counts))


def gender_dataset(times, counts) -> Dataset:
    """Dataset from (ss, is_, si, ii) tuples aligned with ``times``."""
    return Dataset(tuple(times), tuple(GenderPairCounts(*c) for c in counts))


# ---------------------------------------------------------------------------
# dataset reading

def _parse_json_dataset(text, source):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except ValueError as exc:  # an int literal past the digit limit
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object")
    version = doc.get("schema_version")
    if version != 1:
        raise ParseError(f"{source}: field 'schema_version' must be 1, "
                         f"got {version!r}")
    model = doc.get("model")
    if not (isinstance(model, str) and model in MODELS):
        raise ParseError(f"{source}: field 'model' must be 'nongender' or "
                         f"'gender', got {model!r}")
    spec = MODELS[model]
    observations = doc.get("observations")
    if not isinstance(observations, list) or not observations:
        raise ParseError(f"{source}: field 'observations' must be a "
                         "non-empty list")
    times = []
    counts = []
    for k, entry in enumerate(observations):
        where = f"{source}: observations[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        if "time" not in entry:
            raise ParseError(f"{where}: missing field 'time'")
        if "counts" not in entry or not isinstance(entry["counts"], dict):
            raise ParseError(f"{where}: missing or invalid field 'counts'")
        # bool is a subclass of int: reject true/false before float() reads 1/0
        if isinstance(entry["time"], bool):
            raise ParseError(f"{where}: field 'time' must be a number")
        try:
            times.append(float(entry["time"]))
        except (TypeError, ValueError):
            raise ParseError(f"{where}: field 'time' must be a number") from None
        except OverflowError:  # an int past the float range
            raise ParseError(f"{where}: field 'time' must be finite") from None
        for key, val in entry["counts"].items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ParseError(f"{where}: counts.{key} must be a number")
        if set(entry["counts"]) != set(spec.state_labels):
            raise ParseError(f"{where}: counts of model '{model}' must have "
                             f"keys {','.join(spec.state_labels)}, got "
                             f"{sorted(entry['counts'])}")
        try:
            counts.append(spec.counts_type(*(entry["counts"][key]
                                             for key in spec.state_labels)))
        except DomainError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    try:
        return Dataset(tuple(times), tuple(counts))
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def _parse_table_dataset(text, source):
    delimiter = "\t" if "\t" in text.splitlines()[0] else ","
    reader = csv.reader(_io.StringIO(text), delimiter=delimiter)
    rows = [(k + 1, [cell.strip() for cell in row])
            for k, row in enumerate(reader)
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{source}: empty table")
    header_line, header = rows[0]
    header_up = [h.upper() for h in header]
    for spec in MODELS.values():
        if header_up == ["TIME", *spec.state_labels]:
            builder, width = spec.counts_type, len(header_up)
            break
    else:
        raise ParseError(f"{source}: line {header_line}: header must be "
                         "time,SS,SI,II or time,SS,IS,SI,II")
    times = []
    counts = []
    for line, row in rows[1:]:
        if len(row) != width:
            raise ParseError(f"{source}: line {line}: expected {width} "
                             f"columns, got {len(row)}")
        values = []
        for name, cell in zip(header, row):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(f"{source}: line {line}: field {name!r} is "
                                 f"not a number: {cell!r}") from None
        times.append(values[0])
        try:
            counts.append(builder(*values[1:]))
        except DomainError as exc:
            raise ParseError(f"{source}: line {line}: {exc}") from exc
    try:
        return Dataset(tuple(times), tuple(counts))
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def parse_dataset(path) -> Dataset:
    """Parse a dataset file (JSON document or delimited table)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    if not text.strip():
        raise ParseError(f"{path}: file is empty")
    if text.lstrip().startswith("{"):
        return _parse_json_dataset(text, str(path))
    return _parse_table_dataset(text, str(path))


def load_bundled(kind) -> Dataset:
    """Load the bundled Mwanza cohort dataset for the given model kind.

    Each is read and parsed once per process, and the one read-only Dataset
    is shared: every fit compares its data with it.
    """
    model_spec(kind)  # an unknown kind is a ConfigError
    return _read_bundled(kind)


@functools.lru_cache(maxsize=None)
def _read_bundled(kind) -> Dataset:
    name = f"mwanza_{kind}.json"
    text = resources.files("pairinfer.data").joinpath(name).read_text()
    return _parse_json_dataset(text, f"bundled:{name}")
