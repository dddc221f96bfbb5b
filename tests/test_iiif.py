import itertools
import json
import random
import threading

import pytest
import requests

from censusflow.iiif import (
    EmptyIdentifier,
    FetchError,
    HttpTransport,
    IiifEndpoint,
    IntegrityStatus,
    IsolationViolation,
    NullTransport,
    RetryPolicy,
    TransportFailure,
    TransportResponse,
    check_integrity,
    fetch_image,
    full_image_url,
    info_url,
    write_results_csv,
)
from censusflow.ingest import GazetteerEntry, ImageRef, RegisterMetadata

ENDPOINT = IiifEndpoint("https://a.example/iiif/", retry=RetryPolicy(3, 100))
_Random = random.Random  # kept for tests that forbid building a new one


def image_ref(identifier="reg1/p01") -> ImageRef:
    meta = RegisterMetadata(1881, GazetteerEntry("03310", "Vichy", "Allier"), "6M1")
    return ImageRef(register=meta, iiif_identifier=identifier, sequence_index=0)


class ScriptedTransport:
    """Returns queued responses in order; TransportFailure instances raise."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = []

    def get(self, url, timeout_ms):
        self.calls.append(url)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_info(width=2000, height=3000) -> TransportResponse:
    return TransportResponse(200, json.dumps({"width": width, "height": height}).encode())


class TestUrls:
    def test_base_url_trailing_slash_normalized(self):
        assert ENDPOINT.base_url == "https://a.example/iiif"

    def test_info_url_encodes_slashes(self):
        assert (
            info_url(ENDPOINT, "reg1/p01")
            == "https://a.example/iiif/reg1%2Fp01/info.json"
        )

    def test_info_url_plain_identifier(self):
        assert info_url(ENDPOINT, "p01").endswith("/p01/info.json")

    def test_empty_identifier(self):
        with pytest.raises(EmptyIdentifier):
            info_url(ENDPOINT, "")

    def test_full_image_url_v2(self):
        assert full_image_url(ENDPOINT, "p01").endswith("/p01/full/full/0/default.jpg")

    def test_full_image_url_v3(self):
        v3 = IiifEndpoint("https://a.example/iiif", api_version=3)
        assert full_image_url(v3, "p01").endswith("/p01/full/max/0/default.jpg")

    def test_full_image_url_encodes(self):
        assert "a%2Fb" in full_image_url(ENDPOINT, "a/b")

    def test_injective_over_identifiers(self):
        identifiers = ["a", "b", "a/b", "a%2Fb", "a b", "a+b", "a?b"]
        urls = [info_url(ENDPOINT, i) for i in identifiers]
        assert len(set(urls)) == len(identifiers)
        for one, two in itertools.combinations(identifiers, 2):
            assert info_url(ENDPOINT, one) != info_url(ENDPOINT, two)

    def test_bad_api_version(self):
        with pytest.raises(ValueError):
            IiifEndpoint("https://a.example", api_version=4)


class TestCheckIntegrity:
    def test_ok_records_dimensions(self):
        transport = ScriptedTransport(ok_info())
        result = check_integrity(ENDPOINT, image_ref(), transport)
        assert result.status is IntegrityStatus.OK
        assert (result.width, result.height) == (2000, 3000)

    def test_404_is_missing(self):
        transport = ScriptedTransport(TransportResponse(404, b""))
        result = check_integrity(ENDPOINT, image_ref(), transport)
        assert result.status is IntegrityStatus.MISSING
        assert len(transport.calls) == 1  # definitive answer, no retries

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"{}", b'{"width": 0, "height": 10}', b'{"width": "x", "height": 3}'],
    )
    def test_bad_info_is_corrupt(self, body):
        transport = ScriptedTransport(TransportResponse(200, body))
        result = check_integrity(ENDPOINT, image_ref(), transport)
        assert result.status is IntegrityStatus.CORRUPT

    def test_recovers_after_two_failures(self):
        transport = ScriptedTransport(
            TransportFailure("boom"), TransportFailure("boom"), ok_info()
        )
        sleeps = []
        result = check_integrity(
            ENDPOINT, image_ref(), transport, sleep=sleeps.append, rng=random.Random(0)
        )
        assert result.status is IntegrityStatus.OK
        assert len(transport.calls) == 3
        assert len(sleeps) == 2

    def test_exhausted_retries(self):
        transport = ScriptedTransport(*[TransportFailure("down")] * 3)
        result = check_integrity(ENDPOINT, image_ref(), transport, sleep=lambda s: None)
        assert result.status is IntegrityStatus.TRANSPORT_ERROR
        assert "down" in result.detail
        assert len(transport.calls) == 3

    def test_http_500_retries_then_errors(self):
        transport = ScriptedTransport(*[TransportResponse(500, b"")] * 3)
        result = check_integrity(ENDPOINT, image_ref(), transport, sleep=lambda s: None)
        assert result.status is IntegrityStatus.TRANSPORT_ERROR
        assert "500" in result.detail

    def test_backoff_non_decreasing_before_jitter(self):
        policy = RetryPolicy(max_attempts=5, base_backoff_ms=100)
        delays = [policy.backoff_ms(k) for k in range(4)]
        assert delays == sorted(delays) == [100, 200, 400, 800]

    def test_jittered_sleeps_bounded_by_backoff(self):
        transport = ScriptedTransport(*[TransportFailure("x")] * 3)
        sleeps = []
        check_integrity(
            ENDPOINT, image_ref(), transport, sleep=sleeps.append, rng=random.Random(7)
        )
        policy = ENDPOINT.retry
        for attempt, slept in enumerate(sleeps):
            assert 0.0 <= slept <= policy.backoff_ms(attempt) / 1000.0

    def test_fetch_pixels_sniffs_magic(self):
        transport = ScriptedTransport(ok_info(), TransportResponse(200, b"\xff\xd8rest"))
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True)
        assert result.status is IntegrityStatus.OK

    def test_fetch_pixels_rejects_garbage(self):
        transport = ScriptedTransport(ok_info(), TransportResponse(200, b"<html>"))
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True)
        assert result.status is IntegrityStatus.CORRUPT


class TestFetchImage:
    def test_success(self):
        transport = ScriptedTransport(TransportResponse(200, b"bytes"))
        assert fetch_image(ENDPOINT, "p01", transport) == b"bytes"

    def test_non_200_raises_fetch_error(self):
        transport = ScriptedTransport(TransportResponse(404, b""))
        with pytest.raises(FetchError):
            fetch_image(ENDPOINT, "p01", transport)

    def test_retries_then_raises(self):
        transport = ScriptedTransport(*[TransportFailure("x")] * 3)
        with pytest.raises(TransportFailure):
            fetch_image(ENDPOINT, "p01", transport, sleep=lambda s: None)


class TestRetryRng:
    """The jitter RNG (seeded from os.urandom by default) is built only
    before the first backoff sleep."""

    @pytest.fixture
    def no_new_rng(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random.Random() built")

        monkeypatch.setattr("censusflow.iiif.random.Random", refuse)

    def test_no_rng_without_a_retry(self, no_new_rng):
        result = check_integrity(ENDPOINT, image_ref(), ScriptedTransport(ok_info()))
        assert result.status is IntegrityStatus.OK
        transport = ScriptedTransport(TransportResponse(200, b"bytes"))
        assert fetch_image(ENDPOINT, "p01", transport) == b"bytes"

    def test_retries_draw_from_the_callers_rng(self, no_new_rng):
        policy = ENDPOINT.retry
        reference = _Random(5)
        expected = [
            reference.uniform(0.0, policy.backoff_ms(k)) / 1000.0 for k in range(2)
        ]
        for call in ("integrity", "fetch"):
            transport = ScriptedTransport(
                TransportFailure("x"), TransportFailure("x"), ok_info()
            )
            sleeps = []
            rng = _Random(5)
            if call == "integrity":
                result = check_integrity(
                    ENDPOINT, image_ref(), transport, sleep=sleeps.append, rng=rng
                )
                assert result.status is IntegrityStatus.OK
            else:
                fetch_image(ENDPOINT, "p01", transport, sleep=sleeps.append, rng=rng)
            assert sleeps == expected


class TestOneRetryRule:
    """Every GET, ``info.json``, the pixels and the download, is asked again
    after a transport failure or any answer but 200 and 404, up to the
    endpoint's attempts, and a 404 is final at once."""

    JPEG = TransportResponse(200, b"\xff\xd8rest")

    def test_fetch_image_recovers_after_a_503(self):
        transport = ScriptedTransport(TransportResponse(503, b"busy"),
                                      TransportResponse(200, b"bytes"))
        assert fetch_image(ENDPOINT, "p01", transport, sleep=lambda s: None) == b"bytes"
        assert len(transport.calls) == 2

    def test_fetch_image_raises_the_last_503(self):
        transport = ScriptedTransport(*[TransportResponse(503, b"busy")] * 3)
        with pytest.raises(FetchError) as caught:
            fetch_image(ENDPOINT, "p01", transport, sleep=lambda s: None)
        assert caught.value.status_code == 503
        assert len(transport.calls) == 3

    def test_fetch_image_404_is_one_get(self):
        transport = ScriptedTransport(TransportResponse(404, b""))
        with pytest.raises(FetchError) as caught:
            fetch_image(ENDPOINT, "p01", transport, sleep=lambda s: None)
        assert caught.value.status_code == 404
        assert len(transport.calls) == 1

    def test_info_404_is_one_get(self):
        transport = ScriptedTransport(TransportResponse(404, b""))
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True,
                                 sleep=lambda s: None)
        assert result.status is IntegrityStatus.MISSING
        assert len(transport.calls) == 1

    def test_pixel_transport_failure_retries_only_the_pixels(self):
        transport = ScriptedTransport(ok_info(), TransportFailure("reset"), self.JPEG)
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True,
                                 sleep=lambda s: None)
        assert result.status is IntegrityStatus.OK
        info, pixels = info_url(ENDPOINT, "reg1/p01"), full_image_url(ENDPOINT, "reg1/p01")
        assert transport.calls == [info, pixels, pixels]

    def test_pixel_503_is_asked_again(self):
        transport = ScriptedTransport(ok_info(), TransportResponse(503, b"busy"), self.JPEG)
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True,
                                 sleep=lambda s: None)
        assert result.status is IntegrityStatus.OK
        assert (result.width, result.height) == (2000, 3000)
        assert len(transport.calls) == 3

    def test_pixel_transport_failures_exhausted(self):
        transport = ScriptedTransport(ok_info(), *[TransportFailure("reset")] * 3)
        result = check_integrity(ENDPOINT, image_ref(), transport, fetch_pixels=True,
                                 sleep=lambda s: None)
        assert result.status is IntegrityStatus.TRANSPORT_ERROR
        assert result.detail == "reset"
        assert len(transport.calls) == 4

    def test_the_last_attempt_decides(self):
        """A 503 then two transport failures raise the last failure; two
        failures then a 503 give the 503."""
        transport = ScriptedTransport(TransportResponse(503, b""), TransportFailure("a"),
                                      TransportFailure("b"))
        with pytest.raises(TransportFailure, match="b"):
            fetch_image(ENDPOINT, "p01", transport, sleep=lambda s: None)
        transport = ScriptedTransport(TransportFailure("a"), TransportFailure("b"),
                                      TransportResponse(503, b""))
        result = check_integrity(ENDPOINT, image_ref(), transport, sleep=lambda s: None)
        assert (result.status, result.detail) == (IntegrityStatus.TRANSPORT_ERROR, "HTTP 503")


class TestNullTransport:
    def test_raises_isolation_violation(self):
        with pytest.raises(IsolationViolation):
            NullTransport().get("https://a.example/iiif/p01/info.json", 1000)


class TestBatch:
    def test_results_csv(self, tmp_path):
        transport = ScriptedTransport(ok_info(), TransportResponse(404, b""))
        results = [
            check_integrity(ENDPOINT, image_ref("a"), transport),
            check_integrity(ENDPOINT, image_ref("b"), transport),
        ]
        out = tmp_path / "results.csv"
        write_results_csv(results, out)
        text = out.read_text(encoding="utf-8")
        assert "OK" in text and "MISSING" in text


def test_http_transport_wraps_request_errors():
    transport = HttpTransport()
    with pytest.raises(TransportFailure):
        transport.get("http://127.0.0.1:1/nope", timeout_ms=200)


def test_http_transport_keeps_one_session_per_thread(monkeypatch):
    """Each thread gets a session of its own at its first use and reuses
    it; no session is shared between threads. No request leaves the
    process: ``requests.Session`` is a stand-in here."""

    class Response:
        status_code = 200
        content = b"ok"

    class Session:
        made = []

        def __init__(self):
            self.gets = []
            Session.made.append(self)

        def get(self, url, timeout):
            self.gets.append((threading.get_ident(), url))
            return Response()

    monkeypatch.setattr(requests, "Session", Session)
    transport = HttpTransport()
    assert len(Session.made) == 1  # the constructing thread's, which makes no request

    def two_gets(name):
        for k in range(2):
            assert transport.get(f"https://a.example/{name}/{k}", 1000).body == b"ok"

    threads = [threading.Thread(target=two_gets, args=(name,)) for name in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    names = sorted([url.split("/")[3] for _, url in session.gets] for session in Session.made)
    assert names == [[], ["a", "a"], ["b", "b"]]
    assert all(len({ident for ident, _ in session.gets}) == 1 for session in Session.made[1:])
