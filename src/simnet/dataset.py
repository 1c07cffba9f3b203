"""Sample records, JSONL persistence, and the planted-family generator."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

log = logging.getLogger(__name__)


class DatasetError(Exception):
    """Base class for anything wrong with input data."""


class ParseError(DatasetError):
    """A line of a JSONL file was not a valid record."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class ValidationError(DatasetError):
    """A structurally valid record carried an invalid field."""

    def __init__(self, sample_id: str, fieldname: str, reason: str):
        self.sample_id = sample_id
        self.fieldname = fieldname
        self.reason = reason
        super().__init__(f"sample {sample_id!r}, field {fieldname!r}: {reason}")


@dataclass(frozen=True)
class Sample:
    """One observation: an ordered API-call sequence plus three string sets.

    ``family`` is None for unlabeled samples.  The sequence keeps order and
    repeats; the three set features are deduplicated by construction.
    """

    id: str
    family: str | None
    api_sequence: tuple[str, ...]
    permissions: frozenset[str]
    activity_names: frozenset[str]
    file_names: frozenset[str]

    def __post_init__(self):
        if not self.id:
            raise ValidationError("", "id", "must be a non-empty string")
        if self.family is not None and not self.family:
            raise ValidationError(self.id, "family", "must be non-empty or null")


@dataclass(frozen=True)
class Dataset:
    """An ordered, id-unique collection of samples."""

    samples: tuple[Sample, ...]
    _ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _labeled_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _families: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _family_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, s in enumerate(self.samples):
            if s.id in index:
                raise ValidationError(s.id, "id", "duplicate sample id")
            index[s.id] = i
        ids = tuple(index)
        labeled_ids = tuple(s.id for s in self.samples if s.family is not None)
        families = tuple(sorted({s.family for s in self.samples if s.family is not None}))
        code = {f: c for c, f in enumerate(families)}
        codes = np.array([code.get(s.family, -1) for s in self.samples], dtype=np.int64)
        codes.flags.writeable = False
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_labeled_ids", labeled_ids)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_families", families)
        object.__setattr__(self, "_family_codes", codes)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, sample_id: str) -> Sample:
        return self.samples[self._index[sample_id]]

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def labeled_ids(self) -> tuple[str, ...]:
        return self._labeled_ids

    @property
    def families(self) -> tuple[str, ...]:
        """Distinct family names, sorted."""
        return self._families

    @property
    def family_codes(self) -> np.ndarray:
        """Read-only per-sample index into ``families``; -1 where unlabeled."""
        return self._family_codes

    def label_census(self) -> dict[str, int]:
        """Family name -> number of labeled samples carrying it."""
        census: dict[str, int] = {}
        for s in self.samples:
            if s.family is not None:
                census[s.family] = census.get(s.family, 0) + 1
        return dict(sorted(census.items()))

    def subset(self, sample_ids) -> "Dataset":
        """New dataset keeping only ``sample_ids``, in original order."""
        wanted = set(sample_ids)
        return Dataset(tuple(s for s in self.samples if s.id in wanted))


_SET_FIELDS = ("permissions", "activity_names", "file_names")


def _record_to_sample(rec: dict, line_no: int) -> Sample:
    if not isinstance(rec, dict):
        raise ParseError(line_no, "record is not a JSON object")
    sid = rec.get("id")
    if not isinstance(sid, str) or not sid:
        raise ParseError(line_no, "missing or empty 'id'")
    family = rec.get("family")
    if family is not None and not isinstance(family, str):
        raise ValidationError(sid, "family", "must be a string or null")
    if family == "":
        raise ValidationError(sid, "family", "must be non-empty or null")

    seq = rec.get("api_sequence")
    if not isinstance(seq, list) or any(not isinstance(t, str) for t in seq):
        raise ValidationError(sid, "api_sequence", "must be a list of strings")

    sets: dict[str, frozenset[str]] = {}
    for name in _SET_FIELDS:
        raw = rec.get(name, [])
        if not isinstance(raw, list) or any(not isinstance(t, str) for t in raw):
            raise ValidationError(sid, name, "must be a list of strings")
        sets[name] = frozenset(raw)

    return Sample(
        id=sid,
        family=family,
        api_sequence=tuple(seq),
        permissions=sets["permissions"],
        activity_names=sets["activity_names"],
        file_names=sets["file_names"],
    )


# after JSON decoding, a valid surrogate pair is one astral code point, so any
# surrogate code point left in a string is a lone one
_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_lone_surrogates(s: Sample) -> None:
    """Raise ValidationError for the first string field holding a lone surrogate.

    Such a string is not Unicode text: it cannot be encoded as UTF-8, so it
    would fail later, in the digests or in an artifact write.
    """
    fields = (("id", (s.id,)), ("family", (s.family or "",)),
              ("api_sequence", s.api_sequence), ("permissions", s.permissions),
              ("activity_names", s.activity_names), ("file_names", s.file_names))
    for name, values in fields:
        if any(_SURROGATE.search(v) for v in values):
            raise ValidationError(s.id, name, "contains a lone surrogate escape")


def load_dataset(path, skip_invalid: bool = False) -> Dataset:
    """Read a JSONL dataset.

    Each line is one record with fields ``id``, optional ``family``,
    ``api_sequence`` (ordered list), and the three set-valued fields.
    Undecodable bytes and JSON nested too deep for the decoder are a
    ParseError; a string holding an escaped lone surrogate is a
    ValidationError.  With ``skip_invalid`` bad lines and duplicate ids are
    logged and dropped instead of raising.
    """
    samples: list[Sample] = []
    seen: set[str] = set()
    # undecodable bytes become lone surrogates, so a bad line fails on its own
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError as e:
                        raise ParseError(line_no, "invalid UTF-8") from e
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ParseError(line_no, f"invalid JSON ({e.msg})") from e
                except RecursionError as e:
                    raise ParseError(line_no, "invalid JSON (nesting too deep)") from e
                sample = _record_to_sample(rec, line_no)
                # only an escape can put a lone surrogate into a decoded string;
                # one backslash is a memchr, far cheaper than searching for "\u"
                if "\\" in line:
                    _reject_lone_surrogates(sample)
                if sample.id in seen:
                    raise ValidationError(sample.id, "id", "duplicate sample id")
            except DatasetError as e:
                if not skip_invalid:
                    raise
                # a ParseError's message already starts with its line number
                log.warning("skipping line %d: %s", line_no,
                            e.reason if isinstance(e, ParseError) else e)
                continue
            seen.add(sample.id)
            samples.append(sample)
    return Dataset(tuple(samples))


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file handle whose contents replace ``path`` when the block ends.

    The handle writes to a pid-named temporary file beside ``path``, renamed
    into place only after the block succeeds, so a reader sees the old file
    or the new one, and a failed write leaves the old file and no temporary
    one.  As with a write in place, a symlinked ``path`` is followed and an
    existing file keeps its permission bits.  Text modes write UTF-8.
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Write JSONL that round-trips through load_dataset, atomically.

    Set-valued fields are sorted so output is byte-stable.
    """
    with atomic_write(path) as fh:
        for s in dataset:
            rec: dict = {"id": s.id}
            if s.family is not None:
                rec["family"] = s.family
            rec["api_sequence"] = list(s.api_sequence)
            rec["permissions"] = sorted(s.permissions)
            rec["activity_names"] = sorted(s.activity_names)
            rec["file_names"] = sorted(s.file_names)
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Planted-family generator
# ---------------------------------------------------------------------------
#
# Each family gets a base profile: an API sequence and three string sets.
# A sample mutates the base at `mutation_rate`: substitutions at
# family-fixed "volatile" slots (drawn from a small family variant pool, so
# siblings often agree), plus insertions, plus a small per-sample "drift"
# of fresh substitutions.  The drift gives every family a tail of harder
# samples instead of a uniform blob.

_API_NOUNS = (
    "Activity", "Service", "Binder", "Socket", "Camera", "Location", "Sms",
    "Telephony", "Package", "Crypto", "File", "Media", "Sensor", "Wifi",
    "Display", "Account", "Clipboard", "Vibrator", "Power", "Alarm",
)
_API_VERBS = (
    "open", "close", "read", "write", "query", "bind", "start", "stop",
    "send", "recv", "encrypt", "decrypt", "list", "delete", "register", "poll",
)
_PERM_ACTIONS = (
    "READ", "WRITE", "ACCESS", "CHANGE", "RECEIVE", "SEND", "BIND",
    "MANAGE", "MODIFY", "USE",
)
_PERM_RESOURCES = (
    "SMS", "CONTACTS", "STORAGE", "LOCATION", "CAMERA", "AUDIO", "NETWORK",
    "ACCOUNTS", "CALL_LOG", "SETTINGS", "BOOT", "TASKS", "WALLPAPER",
    "CALENDAR", "SENSORS", "NFC",
)


def _api_vocab(rng: random.Random) -> list[str]:
    names = {f"{rng.choice(_API_NOUNS)}.{rng.choice(_API_VERBS)}{rng.randrange(100):02d}"
             for _ in range(700)}
    return sorted(names)[:420]


def _permission_universe() -> list[str]:
    return [f"android.permission.{a}_{r}" for a in _PERM_ACTIONS for r in _PERM_RESOURCES]


@dataclass(frozen=True)
class _SetBlueprint:
    stable: tuple[str, ...]       # shared verbatim by every sample
    volatile: int                 # substitution slot count
    inserts: int                  # insertion draw count
    pool: tuple[str, ...]         # family variant pool for volatile draws
    fresh_prefix: str             # namespace for per-sample drift tokens


def _plant_set(rng: random.Random, pool: list[str], size: int, rate: float,
               fresh_prefix: str) -> _SetBlueprint:
    base = rng.sample(pool, size)
    n_sub = round(0.75 * rate * size)
    n_ins = round(0.25 * rate * size)
    stable = tuple(base[n_sub:])
    leftovers = [t for t in pool if t not in base]
    variant = rng.sample(leftovers, min(len(leftovers), max(2 * (n_sub + n_ins), 1)))
    return _SetBlueprint(stable, n_sub, n_ins, tuple(variant), fresh_prefix)


def _sample_set(rng: random.Random, bp: _SetBlueprint, drift: float,
                sample_tag: str) -> frozenset[str]:
    members = set(bp.stable)
    for _ in range(bp.volatile + bp.inserts):
        members.add(rng.choice(bp.pool))
    n_drift = round(drift * (len(bp.stable) + bp.volatile))
    if n_drift:
        survivors = sorted(members)
        for victim in rng.sample(survivors, min(n_drift, len(survivors))):
            members.discard(victim)
            members.add(f"{bp.fresh_prefix}.{sample_tag}.{rng.randrange(10**6):06d}")
    return frozenset(members)


@dataclass(frozen=True)
class _FamilyBlueprint:
    name: str
    seq_base: tuple[str, ...]
    seq_sub_slots: tuple[int, ...]
    seq_ins_slots: tuple[int, ...]
    seq_pool: tuple[str, ...]
    permissions: _SetBlueprint
    activities: _SetBlueprint
    files: _SetBlueprint


def _plant_family(rng: random.Random, name: str, rate: float,
                  api_vocab: list[str], perm_universe: list[str]) -> _FamilyBlueprint:
    length = rng.randrange(200, 401)
    seq_base = tuple(rng.choice(api_vocab) for _ in range(length))
    positions = rng.sample(range(length), length)  # shuffled slot order
    n_sub = round(0.75 * rate * length)
    n_ins = round(0.25 * rate * length)
    seq_pool = tuple(rng.sample(api_vocab, 48))

    act_pool = [f"com.{name}.ui.Screen{n:03d}" for n in range(60)]
    file_pool = [f"assets/{name}/res_{n:03d}.bin" for n in range(90)]
    return _FamilyBlueprint(
        name=name,
        seq_base=seq_base,
        seq_sub_slots=tuple(sorted(positions[:n_sub])),
        seq_ins_slots=tuple(sorted(rng.sample(range(length + 1), n_ins))),
        seq_pool=seq_pool,
        permissions=_plant_set(rng, perm_universe, rng.randrange(24, 41), rate, "perm"),
        activities=_plant_set(rng, act_pool, rng.randrange(10, 19), rate, f"com.{name}.drift"),
        files=_plant_set(rng, file_pool, rng.randrange(16, 29), rate, f"assets/{name}/drift"),
    )


def _sample_sequence(rng: random.Random, bp: _FamilyBlueprint, drift: float) -> tuple[str, ...]:
    seq = list(bp.seq_base)
    for pos in bp.seq_sub_slots:
        seq[pos] = rng.choice(bp.seq_pool)
    n_drift = round(drift * len(seq))
    if n_drift:
        for pos in rng.sample(range(len(seq)), n_drift):
            seq[pos] = rng.choice(bp.seq_pool)
    for pos in reversed(bp.seq_ins_slots):
        seq.insert(pos, rng.choice(bp.seq_pool))
    return tuple(seq)


def generate_planted(families: int, per_family: int, mutation_rate: float,
                     seed: int) -> Dataset:
    """Generate a labeled dataset with planted family structure.

    Pure function of its arguments: the same call always returns an
    identical dataset.  With ``mutation_rate`` 0 every sample equals its
    family base exactly.
    """
    if families < 1 or per_family < 1:
        raise ValueError("families and per_family must be positive")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation_rate must be in [0, 1]")
    rng = random.Random(seed)
    api_vocab = _api_vocab(rng)
    perm_universe = _permission_universe()

    samples = []
    for f in range(families):
        name = f"fam{f:02d}"
        bp = _plant_family(rng, name, mutation_rate, api_vocab, perm_universe)
        for i in range(per_family):
            sid = f"{name}-{i:04d}"
            drift = rng.random() * mutation_rate * 0.5
            samples.append(Sample(
                id=sid,
                family=name,
                api_sequence=_sample_sequence(rng, bp, drift),
                permissions=_sample_set(rng, bp.permissions, drift, sid),
                activity_names=_sample_set(rng, bp.activities, drift, sid),
                file_names=_sample_set(rng, bp.files, drift, sid),
            ))
    return Dataset(tuple(samples))
