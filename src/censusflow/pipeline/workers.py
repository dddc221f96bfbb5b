"""Workers plugged into the processing stage.

The worker interface is two calls: ``classify(image_bytes) -> PageClass``
and ``recognize(image_bytes) -> label string``. The mock implementations
read fixture "images" (JSON documents embedding the ground-truth class and
label, see ``censusflow.fixtures``) and are fully deterministic given their
seed; the recognizer can inject controlled noise so evaluation code can be
calibrated against a known error rate. An external-process adapter invokes
real models through a command line.
"""

from __future__ import annotations

import json
import random
import string
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Optional

from ..domain import TAG_SPLIT_PATTERN, TOKEN_FOR_TAG, EntityTag, PageClass
from ..iiif import NullTransport
from ..label_codec import decode_strict

_SUBSTITUTION_POOL = string.ascii_lowercase + string.digits
#: Each surname token and the token a head flip turns it into.
_FLIPPED = {TOKEN_FOR_TAG[EntityTag.SURNAME_HEAD]: TOKEN_FOR_TAG[EntityTag.SURNAME],
            TOKEN_FOR_TAG[EntityTag.SURNAME]: TOKEN_FOR_TAG[EntityTag.SURNAME_HEAD]}
#: Each tag token's place in the canonical field order.
_RANK = {token: i for i, token in enumerate(TOKEN_FOR_TAG.values())}


class WorkerError(RuntimeError):
    pass


def parse_fixture_image(image_bytes: bytes) -> dict:
    try:
        payload = json.loads(image_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WorkerError(f"not a fixture image: {exc}") from exc
    if not isinstance(payload, dict):
        raise WorkerError(
            f"not a fixture image: expected a JSON object, got {type(payload).__name__}")
    if "page_class" not in payload:
        raise WorkerError("fixture image lacks a page_class")
    return payload


@dataclass(frozen=True)
class NoiseSpec:
    """Noise injected by the mock recognizer.

    * ``char_substitution``: probability of substituting each non-tag,
      non-newline character of the label.
    * ``entity_drop``: probability of dropping each field.
    * ``head_flip``: probability of toggling a head marker between the
      head and non-head surname tags.
    """

    char_substitution: float = 0.0
    entity_drop: float = 0.0
    head_flip: float = 0.0

    def __post_init__(self):
        for name in ("char_substitution", "entity_drop", "head_flip"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def is_zero(self) -> bool:
        return self.char_substitution == 0.0 and self.entity_drop == 0.0 and self.head_flip == 0.0


class MockClassifier:
    """Fixture-backed classifier: returns the embedded ground-truth class."""

    version = "mock-classifier/1"

    def classify(self, image_bytes: bytes) -> PageClass:
        payload = parse_fixture_image(image_bytes)
        try:
            return PageClass[payload["page_class"]]
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable page_class
            raise WorkerError(f"unknown page class {payload['page_class']!r}") from exc


class MockRecognizer:
    """Fixture-backed recognizer with seeded, per-image deterministic noise.

    The noise RNG is seeded from (seed, image identifier), so re-running a
    task after a crash reproduces the same prediction. The noise edits the
    fixture's label text in two passes, and the draws come in this order:

    1. When ``entity_drop`` or ``head_flip`` is set, each field in label
       order draws a head flip first (surname fields only, and only when
       ``head_flip`` is set), then a drop (only when ``entity_drop`` is
       set). The label comes back as ``encode`` would write its
       ``decode_strict`` records after those edits, and a label that
       ``decode_strict`` rejects raises its ``MalformedLabel``.
    2. When ``char_substitution`` is set, each character of the text
       between tags, newlines aside, draws a substitution in label order.

    ``tests/test_codec_pin.py`` pins the predictions, so a change to this
    order changes every noisy prediction.
    """

    version = "mock-recognizer/1"

    def __init__(self, seed: int = 0, noise: NoiseSpec = NoiseSpec()):
        self.seed = seed
        self.noise = noise

    def recognize(self, image_bytes: bytes) -> str:
        payload = parse_fixture_image(image_bytes)
        label = payload.get("label")
        if label is None:
            raise WorkerError("fixture image lacks a label")
        if not isinstance(label, str):
            raise WorkerError("fixture label is not a string")
        if self.noise.is_zero:
            return label
        rng = random.Random(f"{self.seed}:{payload.get('identifier', '')}")
        return self._perturb(label, rng)

    def _perturb(self, label: str, rng: random.Random) -> str:
        noise = self.noise
        if noise.entity_drop or noise.head_flip:
            label = self._drop_and_flip(label, rng)
        if noise.char_substitution:
            pieces = TAG_SPLIT_PATTERN.split(label)
            for i in range(0, len(pieces), 2):  # even pieces are plain text
                chars = list(pieces[i])
                for j, c in enumerate(chars):
                    if c != "\n" and rng.random() < noise.char_substitution:
                        choices = _SUBSTITUTION_POOL.replace(c, "")
                        chars[j] = rng.choice(choices)
                pieces[i] = "".join(chars)
            label = "".join(pieces)
        return label

    def _drop_and_flip(self, label: str, rng: random.Random) -> str:
        """Drop fields and flip surname tags in the label text itself.

        Each line is split once on its tags. A field's value is the text
        after its tag, less one leading and one trailing space, and a
        surname tag opens a new record once the open one has a field, as
        in ``decode_strict``. Each record's kept fields are written in
        canonical order, one record a line, as ``encode`` writes them.
        """
        drop = self.noise.entity_drop
        flip = self.noise.head_flip
        draw = rng.random
        split = TAG_SPLIT_PATTERN.split
        lines = []
        tags = 0
        for line in label.split("\n"):
            pieces = split(line)
            if pieces[0]:
                _reject(label)  # text before the line's first tag
            tags += len(pieces) >> 1
            seen: set[str] = set()  # the open record's tokens
            kept: list[tuple[int, str]] = []  # its kept fields, by rank
            for token, value in zip(pieces[1::2], pieces[2::2]):
                if value[:1] == " ":
                    value = value[1:]
                if value[-1:] == " ":
                    value = value[:-1]
                if not value:
                    _reject(label)  # an empty value
                if token in _FLIPPED:
                    if seen:
                        if kept:
                            lines.append(_joined(kept))
                            kept = []
                        seen = set()
                    if flip and draw() < flip:
                        token = _FLIPPED[token]
                elif token in seen:
                    _reject(label)  # a duplicate field
                seen.add(token)
                if drop and draw() < drop:
                    continue
                kept.append((_RANK[token], token + value))
            if kept:
                lines.append(_joined(kept))
        if label.count("<") != tags:
            _reject(label)  # an unknown token or a lone "<"
        return "\n".join(lines)


def _joined(fields: list[tuple[int, str]]) -> str:
    """One record's line: its ranked ``token + value`` fields in canonical
    order, one space apart."""
    fields.sort()
    return " ".join([field for _, field in fields])


def _reject(label: str) -> NoReturn:
    """Raise the ``MalformedLabel`` that ``decode_strict`` raises for ``label``."""
    decode_strict(label)
    raise AssertionError(f"decode_strict accepts {label!r}")


class ExternalProcessWorker:
    """Adapter that shells out to real models.

    Each call writes the image to a temp file and invokes the configured
    command with the file path appended; stdout is the answer (a page class
    name for classification, a label string for recognition).
    """

    def __init__(self, classify_cmd: Optional[list[str]], recognize_cmd: Optional[list[str]]):
        self.classify_cmd = classify_cmd
        self.recognize_cmd = recognize_cmd
        self.version = "external/" + "-".join(
            Path(cmd[0]).name for cmd in (classify_cmd, recognize_cmd) if cmd
        )

    def _run(self, cmd: list[str], image_bytes: bytes) -> str:
        with tempfile.NamedTemporaryFile(suffix=".img", delete=False) as fh:
            fh.write(image_bytes)
            path = fh.name
        try:
            proc = subprocess.run(
                cmd + [path], capture_output=True, text=True, timeout=600, check=False
            )
            if proc.returncode != 0:
                raise WorkerError(f"{cmd[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout.rstrip("\n")
        finally:
            Path(path).unlink(missing_ok=True)

    def classify(self, image_bytes: bytes) -> PageClass:
        if not self.classify_cmd:
            raise WorkerError("no classify command configured")
        answer = self._run(self.classify_cmd, image_bytes).strip().upper()
        try:
            return PageClass[answer]
        except KeyError as exc:
            raise WorkerError(f"classifier answered {answer!r}") from exc

    def recognize(self, image_bytes: bytes) -> str:
        if not self.recognize_cmd:
            raise WorkerError("no recognize command configured")
        return self._run(self.recognize_cmd, image_bytes)


@dataclass
class WorkerSet:
    """Classifier plus recognizer, presented as one worker interface.

    Workers run on compute nodes without internet access, so ``transport``
    is always a null transport that raises on use: worker code that tries to
    reach the network fails loudly.
    """

    classifier: object
    recognizer: object

    @property
    def transport(self) -> NullTransport:
        return NullTransport()

    def classify(self, image_bytes: bytes) -> PageClass:
        return self.classifier.classify(image_bytes)

    def recognize(self, image_bytes: bytes) -> str:
        return self.recognizer.recognize(image_bytes)

    @property
    def versions(self) -> dict[str, str]:
        return {
            "classifier": getattr(self.classifier, "version", "unknown"),
            "recognizer": getattr(self.recognizer, "version", "unknown"),
        }

