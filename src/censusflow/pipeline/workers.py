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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from ..domain import TAG_SPLIT_PATTERN, EntityTag, PageClass, PersonRecord
from ..iiif import NullTransport
from ..label_codec import decode_strict, encode

_SUBSTITUTION_POOL = string.ascii_lowercase + string.digits


class WorkerError(RuntimeError):
    pass


def parse_fixture_image(image_bytes: bytes) -> dict:
    try:
        payload = json.loads(image_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WorkerError(f"not a fixture image: {exc}") from exc
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
        except KeyError as exc:
            raise WorkerError(f"unknown page class {payload['page_class']!r}") from exc


class MockRecognizer:
    """Fixture-backed recognizer with seeded, per-image deterministic noise.

    The noise RNG is seeded from (seed, image identifier), so re-running a
    task after a crash reproduces the same prediction.
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
        if self.noise.is_zero:
            return label
        rng = random.Random(f"{self.seed}:{payload.get('identifier', '')}")
        return self._perturb(label, rng)

    def _perturb(self, label: str, rng: random.Random) -> str:
        noise = self.noise
        if noise.entity_drop or noise.head_flip:
            page = decode_strict(label)
            records = []
            for record in page.records:
                fields: dict[EntityTag, str] = {}
                for tag, value in record.fields.items():
                    if noise.head_flip and tag in (EntityTag.SURNAME_HEAD, EntityTag.SURNAME):
                        if rng.random() < noise.head_flip:
                            tag = (
                                EntityTag.SURNAME
                                if tag is EntityTag.SURNAME_HEAD
                                else EntityTag.SURNAME_HEAD
                            )
                    if noise.entity_drop and rng.random() < noise.entity_drop:
                        continue
                    fields[tag] = value
                if fields:
                    records.append(PersonRecord(fields))
            page = replace(page, records=tuple(records))
            label = encode(page, token_budget=10**9)
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

