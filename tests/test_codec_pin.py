"""Pins the label codec's and the mock recognizer's outputs.

One SHA-256 covers, for 50 seeded synthetic pages: the encoded label, the
records and warnings ``decode_lenient`` gives for it and for a noisy
prediction of it, and that prediction itself. A refactor of the codec or of
the tag vocabulary must leave every label, draw and warning as it was.
"""

import hashlib
import json

import pytest

from censusflow.label_codec import decode_lenient, encode
from censusflow.pipeline.workers import MockRecognizer, NoiseSpec

from conftest import generate_synthetic_page

PINNED_SHA256 = "ebc6ceee88d85ae45a7c5eb32f5a6f0c285657e5e328c2e2ad57efb450e5a8c4"


def _report_lines(report):
    for record in report.transcript.records:
        yield json.dumps([[tag.name, value] for tag, value in record.fields.items()],
                         ensure_ascii=False)
    for warning in report.warnings:
        yield f"{warning.position} {warning.kind.value}"


@pytest.mark.filterwarnings("ignore::censusflow.domain.RowCountWarning")
def test_codec_and_mock_outputs_are_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        label = str(encode(generate_synthetic_page(seed)))
        image = json.dumps({"identifier": f"pin/p{seed:04d}", "page_class": "LIST",
                            "label": label}).encode("utf-8")
        prediction = MockRecognizer(seed, NoiseSpec(0.02, 0.02, 0.01)).recognize(image)
        lines = [label, *_report_lines(decode_lenient(label)),
                 prediction, *_report_lines(decode_lenient(prediction))]
        digest.update("\n".join(lines).encode("utf-8") + b"\0")
    assert digest.hexdigest() == PINNED_SHA256
