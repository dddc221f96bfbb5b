"""IIIF Image API request construction and image integrity verification.

URL builders cover API versions 2 and 3. Integrity of an image is checked
through its ``info.json``: a parseable body with positive dimensions counts
as OK (optionally the full image is fetched and sniffed as well). Transport
is injected so everything is testable without a network; transient failures
retry with exponential backoff and full jitter.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Protocol, Sequence
from urllib.parse import quote

from .ingest import ImageRef


class EmptyIdentifier(ValueError):
    pass


class TransportFailure(RuntimeError):
    """A network-level failure (timeout, connection error); retryable."""


class IsolationViolation(RuntimeError):
    """A transport call was attempted from an isolated compute context."""


class FetchError(RuntimeError):
    def __init__(self, status_code: int, url: str):
        super().__init__(f"HTTP {status_code} for {url}")
        self.status_code = status_code
        self.url = url


class TransportResponse(NamedTuple):
    status_code: int
    body: bytes


class Transport(Protocol):
    def get(self, url: str, timeout_ms: int) -> TransportResponse: ...


class HttpTransport:
    """Real HTTP transport backed by requests."""

    def __init__(self):
        import requests

        self._session = requests.Session()
        self._exceptions = requests.RequestException

    def get(self, url: str, timeout_ms: int) -> TransportResponse:
        try:
            response = self._session.get(url, timeout=timeout_ms / 1000.0)
        except self._exceptions as exc:
            raise TransportFailure(str(exc)) from exc
        return TransportResponse(response.status_code, response.content)


class NullTransport:
    """Transport stand-in for internet-isolated compute nodes.

    Any call raises IsolationViolation, enforcing that the processing stage
    cannot reach the network.
    """

    def get(self, url: str, timeout_ms: int) -> TransportResponse:
        raise IsolationViolation(f"network access is not allowed on compute nodes: {url}")


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_ms: int = 250

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be >= 0")

    def backoff_ms(self, attempt: int) -> float:
        """Pre-jitter delay before retry ``attempt`` (0-based); doubles each
        attempt, so delays are non-decreasing."""
        return self.base_backoff_ms * (2**attempt)

    def attempts(self, rng: Optional[random.Random], sleep: Callable[[float], None]):
        """Yield each attempt number, sleeping a draw from ``[0, backoff_ms]``
        (full jitter) before each retry; without a caller's ``rng``, one is
        seeded from os.urandom at the first retry only."""
        for attempt in range(self.max_attempts):
            if attempt:
                if rng is None:
                    rng = random.Random()
                sleep(rng.uniform(0.0, self.backoff_ms(attempt - 1)) / 1000.0)
            yield attempt


@dataclass(frozen=True)
class IiifEndpoint:
    base_url: str
    api_version: int = 2
    timeout_ms: int = 10_000
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        object.__setattr__(self, "base_url", self.base_url.rstrip("/"))
        if self.api_version not in (2, 3):
            raise ValueError(f"unsupported IIIF Image API version: {self.api_version}")


def _encoded(identifier: str) -> str:
    if not identifier:
        raise EmptyIdentifier("IIIF identifier must be non-empty")
    return quote(identifier, safe="")


def info_url(endpoint: IiifEndpoint, identifier: str) -> str:
    """``{base}/{identifier}/info.json`` with the identifier percent-encoded
    (slashes become %2F)."""
    return f"{endpoint.base_url}/{_encoded(identifier)}/info.json"


def full_image_url(endpoint: IiifEndpoint, identifier: str) -> str:
    """Full-size image URL; v2 uses ``full/full``, v3 ``full/max``."""
    size = "full" if endpoint.api_version == 2 else "max"
    return f"{endpoint.base_url}/{_encoded(identifier)}/full/{size}/0/default.jpg"


class IntegrityStatus(Enum):
    OK = "OK"
    MISSING = "MISSING"
    CORRUPT = "CORRUPT"
    TRANSPORT_ERROR = "TRANSPORT_ERROR"


@dataclass(frozen=True)
class IntegrityResult:
    image: ImageRef
    status: IntegrityStatus
    width: Optional[int] = None
    height: Optional[int] = None
    detail: str = ""


_IMAGE_MAGICS = (b"\xff\xd8", b"\x89PNG", b"II*\x00", b"MM\x00*")


def _parse_dimensions(body: bytes) -> Optional[tuple[int, int]]:
    try:
        info = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    width, height = info.get("width"), info.get("height")
    if isinstance(width, bool) or isinstance(height, bool):
        return None
    if not isinstance(width, int) or not isinstance(height, int):
        return None
    if width <= 0 or height <= 0:
        return None
    return width, height


def check_integrity(
    endpoint: IiifEndpoint,
    image: ImageRef,
    transport: Transport,
    *,
    fetch_pixels: bool = False,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> IntegrityResult:
    """Verify that an image is present and uncorrupted on the server.

    Fetches ``info.json``: HTTP 404 means MISSING, an unparseable body or
    non-positive dimensions mean CORRUPT, and network failures (after the
    endpoint's retries with exponential backoff and full jitter) mean
    TRANSPORT_ERROR. On success the result carries the image's dimensions.
    With ``fetch_pixels`` the full image is downloaded and its header
    sniffed as well.

    Total function: every outcome is encoded in the result status (only an
    IsolationViolation from the transport propagates, by design).
    """
    url = info_url(endpoint, image.iiif_identifier)
    last_detail = ""
    for _ in endpoint.retry.attempts(rng, sleep):
        try:
            response = transport.get(url, endpoint.timeout_ms)
        except TransportFailure as exc:
            last_detail = str(exc)
            continue
        if response.status_code == 404:
            return IntegrityResult(image, IntegrityStatus.MISSING)
        if response.status_code != 200:
            last_detail = f"HTTP {response.status_code}"
            continue
        dims = _parse_dimensions(response.body)
        if dims is None:
            return IntegrityResult(image, IntegrityStatus.CORRUPT, detail="bad info.json")
        width, height = dims
        if fetch_pixels:
            try:
                pixels = transport.get(full_image_url(endpoint, image.iiif_identifier),
                                       endpoint.timeout_ms)
            except TransportFailure as exc:
                last_detail = str(exc)
                continue
            if pixels.status_code != 200 or not pixels.body.startswith(_IMAGE_MAGICS):
                return IntegrityResult(image, IntegrityStatus.CORRUPT, detail="bad image payload")
        return IntegrityResult(image, IntegrityStatus.OK, width=width, height=height)
    return IntegrityResult(image, IntegrityStatus.TRANSPORT_ERROR, detail=last_detail)


def fetch_image(
    endpoint: IiifEndpoint,
    identifier: str,
    transport: Transport,
    *,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> bytes:
    """Download the full-size image, retrying transient failures.

    Raises:
        FetchError: on a definitive non-200 answer.
        TransportFailure: when retries are exhausted.
    """
    url = full_image_url(endpoint, identifier)
    last: Optional[TransportFailure] = None
    for _ in endpoint.retry.attempts(rng, sleep):
        try:
            response = transport.get(url, endpoint.timeout_ms)
        except TransportFailure as exc:
            last = exc
            continue
        if response.status_code != 200:
            raise FetchError(response.status_code, url)
        return response.body
    raise last if last is not None else TransportFailure(f"no attempts made for {url}")


def write_results_csv(results: Sequence[IntegrityResult], path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["identifier", "status", "width", "height", "detail"])
        for r in results:
            writer.writerow(
                [r.image.iiif_identifier, r.status.value, r.width or "", r.height or "", r.detail]
            )
